//! Flow-level simulation and experiment harness for the Owan evaluation.
//!
//! * [`sim`] — the time-slotted fluid simulator (validated against the
//!   paper's testbed methodology, §5.1),
//! * [`metrics`] — completion time / deadline / makespan metrics,
//! * [`controller`] — charged update transitions between slots (§3.3),
//! * [`probes`] — the observability handle and per-slot audit hook every
//!   run entry point takes,
//! * [`runner`] — engine construction and parallel comparison sweeps,
//! * [`failures`] — link/switch failure experiments (§3.4),
//! * [`validate`] — the simulator-vs-testbed validation (§5.1).
//!
//! # Example: compare Owan against SWAN on the Internet2 testbed
//!
//! ```
//! use owan_sim::runner::{run_comparison, EngineKind, RunnerConfig};
//! use owan_sim::metrics::{self, SizeBin};
//! use owan_topo::internet2_testbed;
//! use owan_workload::{generate, WorkloadConfig};
//!
//! let net = internet2_testbed();
//! let mut wl = WorkloadConfig::testbed(0.5, 42);
//! wl.duration_s = 600.0; // keep the doctest quick
//! let requests: Vec<_> = generate(&net, &wl).into_iter().take(5).collect();
//!
//! let mut cfg = RunnerConfig::default();
//! cfg.anneal_iterations = 40;
//! let results = run_comparison(
//!     &[EngineKind::Owan, EngineKind::Swan],
//!     &net,
//!     &requests,
//!     &cfg,
//! );
//! let (owan_avg, _) = metrics::summary(&results[0], SizeBin::All);
//! let (swan_avg, _) = metrics::summary(&results[1], SizeBin::All);
//! assert!(owan_avg > 0.0 && swan_avg > 0.0);
//! ```

pub mod controller;
pub mod failures;
pub mod metrics;
pub mod probes;
pub mod runner;
pub mod sim;
pub mod telemetry;
pub mod validate;

pub use controller::{run_controller, transition_factor, update_params, UpdateDiscipline};
pub use failures::{
    degrade_plant, degrade_plant_mapped, simulate_with_failures, simulate_with_restarts, Failure,
    FailureEvent,
};
pub use probes::{AuditHook, Probes, SlotAudit};
pub use runner::{
    make_engine, run_comparison, run_engine, run_engine_probed, EngineKind, RunnerConfig,
};
pub use sim::{
    book_starvation, build_scope_rows, deliver, plan_is_feasible, simulate, simulate_observed,
    simulate_probed, start_transfers, why_samples, CompletionRecord, PlanError, SimConfig,
    SimResult,
};
pub use telemetry::SlotTelemetry;
pub use validate::{validate_simulator, ValidationReport};
