//! The three benchmark workloads: how their inputs are generated from the
//! seed, and one pass of the slot loop over one generated instance.
//!
//! The slot loop is driven only through public entry points
//! (`owan_sim::simulate*` and `owan_chaos::run_chaos`). Every engine is
//! wrapped in a [`Probe`] — itself a `TrafficEngineer` — which times each
//! `plan_slot` from the outside and, in the traced run, captures the
//! slot's input for the isolated layer replays in `crate::layers`.

use crate::speed::Speed;
use crate::trace::{maybe_span, Tracer};
use owan_chaos::{run_chaos, seeded_scenario, ChaosConfig, FaultEvent, OpFaultModel, SlotAudit};
use owan_core::{
    default_topology, AnnealConfig, EnergyCache, EnergyCacheStats, OwanConfig, OwanEngine,
    SchedulingPolicy, SlotInput, SlotPlan, Topology, TrafficEngineer, Transfer, TransferRequest,
};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use owan_oracle::{check_plan, check_timeline};
use owan_sim::{
    make_engine, simulate, simulate_observed, CompletionRecord, EngineKind, RunnerConfig, SimConfig,
};
use owan_topo::{inter_dc, isp_backbone, Network};
use owan_update::{NetworkDelta, UpdateParams, UpdatePlan};
use owan_workload::{generate, WorkloadConfig};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Slot length of every workload, seconds (the paper's five minutes).
pub const SLOT_S: f64 = 300.0;
/// Topology seed of both generated networks (the CLI's `isp`/`interdc`).
const NETWORK_SEED: u64 = 7;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Owan on the 40-site ISP backbone, ideal fluid simulator, SJF.
    IspOwan,
    /// Owan on the 24-site inter-DC WAN under seeded faults, hardened runner.
    InterdcChaos,
    /// The Tempus time-expanded LP on the ISP backbone with deadlines.
    IspTempusDeadline,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::IspOwan,
        Workload::InterdcChaos,
        Workload::IspTempusDeadline,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IspOwan => "isp-owan",
            Workload::InterdcChaos => "interdc-chaos",
            Workload::IspTempusDeadline => "isp-tempus-deadline",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Independent instances generated per run. Completion-time figures
    /// of one instance swing with its draw of transfer sizes; pooling a
    /// few instances keeps a run's quality metrics steady across seeds.
    pub fn instances(self) -> usize {
        match self {
            Workload::IspOwan => 5,
            Workload::InterdcChaos => 16,
            Workload::IspTempusDeadline => 14,
        }
    }

    /// The instance seeds a run with `seed` generates: disjoint between
    /// seeds, identical for equal seeds.
    pub fn instance_seeds(self, seed: u64) -> Vec<u64> {
        let k = self.instances() as u64;
        (0..k)
            .map(|i| seed.wrapping_mul(k).wrapping_add(i))
            .collect()
    }
}

/// One generated input: network, transfers, and (for the chaos workload)
/// the fault scenario.
pub struct Instance {
    /// Which workload this instance belongs to.
    pub workload: Workload,
    /// Seed of the transfers, faults and annealing.
    pub seed: u64,
    /// The network.
    pub network: Network,
    /// Generated transfer requests.
    pub requests: Vec<TransferRequest>,
    /// Fiber cuts, repairs, site failures and controller crashes.
    pub events: Vec<FaultEvent>,
}

/// Chaos horizon and slot cap, slots (the `owan-cli chaos` default).
const CHAOS_SLOTS: usize = 60;

impl Instance {
    /// Generates instance `seed` of `workload`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let (network, wl) = match workload {
            Workload::IspOwan => {
                let mut wl = WorkloadConfig::simulation(1.0, seed);
                wl.duration_s = 3_600.0;
                (isp_backbone(NETWORK_SEED), wl)
            }
            Workload::InterdcChaos => (
                inter_dc(NETWORK_SEED),
                WorkloadConfig::simulation(1.0, seed).with_hotspots(),
            ),
            Workload::IspTempusDeadline => {
                let mut wl = WorkloadConfig::simulation(1.0, seed).with_deadlines(SLOT_S, 10.0);
                wl.duration_s = 3_600.0;
                (isp_backbone(NETWORK_SEED), wl)
            }
        };
        let requests = generate(&network, &wl);
        let events = match workload {
            Workload::InterdcChaos => {
                seeded_scenario(&network.plant, seed, SLOT_S * CHAOS_SLOTS as f64)
            }
            _ => Vec::new(),
        };
        Instance {
            workload,
            seed,
            network,
            requests,
            events,
        }
    }

    /// The Owan engine configuration of this instance (the CLI defaults:
    /// 150 annealing iterations ideal, 60 under chaos; one chain).
    pub fn owan_config(&self) -> OwanConfig {
        let (iters, seed) = match self.workload {
            Workload::InterdcChaos => (60, self.seed.wrapping_add(1)),
            _ => (150, self.seed),
        };
        OwanConfig {
            anneal: AnnealConfig {
                max_iterations: iters,
                seed,
                ..Default::default()
            },
            policy: SchedulingPolicy::ShortestJobFirst,
            ..Default::default()
        }
    }

    /// A fresh engine for this instance, wrapped in a probe logging to `log`.
    pub fn engine(&self, plant: &FiberPlant, log: &Log) -> Probe {
        let inner = match self.workload {
            Workload::IspOwan | Workload::InterdcChaos => {
                let start = if self.network.static_topology.total_links() > 0
                    && self.workload == Workload::IspOwan
                {
                    self.network.static_topology.clone()
                } else {
                    default_topology(plant)
                };
                let config = self.owan_config();
                Inner::Owan(Box::new(OwanEngine::new(start, config)), config)
            }
            Workload::IspTempusDeadline => {
                let cfg = RunnerConfig {
                    sim: sim_config(),
                    seed: self.seed,
                    policy: SchedulingPolicy::EarliestDeadlineFirst,
                    ..Default::default()
                };
                Inner::Other(make_engine(EngineKind::Tempus, &self.network, &cfg))
            }
        };
        Probe {
            inner,
            log: Rc::clone(log),
            calls: 0,
        }
    }
}

fn sim_config() -> SimConfig {
    SimConfig {
        slot_len_s: SLOT_S,
        max_slots: 5_000,
        ..Default::default()
    }
}

/// The update-op fault model of a chaos instance (the `owan-cli chaos`
/// defaults: 10% of attempts time out, 5% fail fast).
pub fn op_fault_model(seed: u64) -> OpFaultModel {
    OpFaultModel {
        seed,
        timeout_prob: 0.1,
        fail_prob: 0.05,
    }
}

/// Owan's state just before a captured `plan_slot`.
#[derive(Clone)]
pub struct OwanPre {
    /// The engine's current topology (before spare-port repair).
    pub current: Topology,
    /// Clone of the engine's evaluation cache.
    pub cache: Option<EnergyCache>,
    /// `plan_slot` calls this engine instance made before this one.
    pub calls: u64,
    /// The engine's configuration.
    pub config: OwanConfig,
}

/// One captured slot of the traced run.
pub struct Capture {
    /// Shared slot id of the run.
    pub slot: u64,
    /// The plant the engine planned against.
    pub plant: FiberPlant,
    /// Active transfers.
    pub transfers: Vec<Transfer>,
    /// Owan's pre-slot state; `None` for other engines.
    pub owan: Option<OwanPre>,
    /// The plan the engine returned.
    pub plan: SlotPlan,
}

/// One audited chaos slot: the runner's delta and schedule.
pub struct AuditCapture {
    /// Runner slot index (idle slots included).
    pub runner_slot: usize,
    /// Delta from the achieved state into the plan, with its schedule.
    pub update: Option<(NetworkDelta, UpdatePlan)>,
    /// Update-scheduler parameters.
    pub params: UpdateParams,
}

/// Everything one pass records through its probes.
#[derive(Default)]
pub struct SlotLog {
    /// Host nanoseconds of each `plan_slot`, in call order.
    pub plan_ns: Vec<u64>,
    /// Captured slots (traced passes only).
    pub captures: Vec<Capture>,
    /// Evaluation-cache counters of every engine the pass dropped.
    pub cache_stats: EnergyCacheStats,
    /// Span recorder; when attached, every slot's input is captured.
    pub tracer: Option<Tracer>,
    /// Machine-speed samples, one before each slot and one after the pass.
    pub speed: Speed,
    /// Next shared slot id.
    pub next_slot: u64,
}

/// Shared handle on a pass's [`SlotLog`].
pub type Log = Rc<RefCell<SlotLog>>;

enum Inner {
    Owan(Box<OwanEngine>, OwanConfig),
    Other(Box<dyn TrafficEngineer + Send>),
}

/// A `TrafficEngineer` that wraps the real engine and times every
/// `plan_slot` call from the outside.
pub struct Probe {
    inner: Inner,
    log: Log,
    calls: u64,
}

impl Probe {
    fn engine(&mut self) -> &mut dyn TrafficEngineer {
        match &mut self.inner {
            Inner::Owan(e, _) => e.as_mut(),
            Inner::Other(e) => e.as_mut(),
        }
    }
}

impl TrafficEngineer for Probe {
    fn name(&self) -> &str {
        match &self.inner {
            Inner::Owan(e, _) => e.name(),
            Inner::Other(e) => e.name(),
        }
    }

    fn plan_slot(&mut self, plant: &FiberPlant, input: &SlotInput<'_>) -> SlotPlan {
        let (tracer, slot) = {
            let mut log = self.log.borrow_mut();
            log.next_slot += 1;
            (log.tracer.clone(), log.next_slot - 1)
        };
        let tracer = tracer.as_ref();
        maybe_span(tracer, "bench.speed", Some(slot), || {
            self.log.borrow_mut().speed.sample()
        });
        let pre = match &self.inner {
            Inner::Owan(e, config) if tracer.is_some() => {
                Some(maybe_span(tracer, "bench.capture", Some(slot), || {
                    OwanPre {
                        current: e.current_topology().clone(),
                        cache: e.energy_caches().first().cloned(),
                        calls: self.calls,
                        config: *config,
                    }
                }))
            }
            _ => None,
        };
        let (plan, ns) = maybe_span(tracer, "core.engine", Some(slot), || {
            let start = Instant::now();
            let plan = self.engine().plan_slot(plant, input);
            (plan, start.elapsed().as_nanos() as u64)
        });
        self.calls += 1;
        let mut log = self.log.borrow_mut();
        log.plan_ns.push(ns);
        if tracer.is_some() {
            let capture = maybe_span(tracer, "bench.capture", Some(slot), || Capture {
                slot,
                plant: plant.clone(),
                transfers: input.transfers.to_vec(),
                owan: pre,
                plan: plan.clone(),
            });
            log.captures.push(capture);
        }
        plan
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.engine().set_recorder(recorder);
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        if let Inner::Owan(e, _) = &self.inner {
            if let Ok(mut log) = self.log.try_borrow_mut() {
                for c in e.energy_caches() {
                    log.cache_stats.merge(&c.stats);
                }
            }
        }
    }
}

/// The deterministic result of one pass: must repeat exactly for equal
/// seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Per-transfer outcomes.
    pub completions: Vec<CompletionRecord>,
    /// Delivered volume, Gb (background volume under chaos).
    pub delivered_gbits: f64,
    /// Blackhole plus transition loss, Gb (chaos only).
    pub lost_gbits: f64,
    /// Slots planned.
    pub slots: usize,
    /// Why the run stopped early: a `plan_error` or a failed audit.
    pub error: Option<String>,
    /// Fault/recovery counters (chaos only).
    pub chaos: Option<owan_chaos::ChaosStats>,
    /// Scheduled update operations (chaos only).
    pub update_ops: usize,
}

impl Outcome {
    /// Absolute completion time of the last finished transfer. Transfers
    /// that never finish count as failed, not as a longer makespan.
    pub fn makespan_s(&self) -> f64 {
        self.completions
            .iter()
            .filter_map(|c| c.completion_s)
            .fold(0.0, f64::max)
    }

    /// Transfers that never finished.
    pub fn unfinished(&self) -> usize {
        self.completions
            .iter()
            .filter(|c| c.completion_s.is_none())
            .count()
    }

    /// Transfers that finished.
    pub fn finished(&self) -> usize {
        self.completions.len() - self.unfinished()
    }
}

/// What one pass measured.
pub struct Pass {
    /// Host nanoseconds of the whole slot loop call, less the time spent
    /// in speed samples.
    pub wall_ns: u64,
    /// The pass's slot log.
    pub log: SlotLog,
    /// Deterministic results.
    pub outcome: Outcome,
    /// Obs counters (traced passes only).
    pub counters: BTreeMap<String, u64>,
    /// Audited chaos slots (traced passes only).
    pub audits: Vec<AuditCapture>,
}

/// Runs one pass of the slot loop over `inst`. With a tracer the pass
/// enables the obs recorder (its counters are the exact work counts),
/// captures every slot, and audits every chaos slot with the oracle.
pub fn run_pass(inst: &Instance, tracer: Option<&Tracer>) -> Pass {
    let log: Log = Rc::new(RefCell::new(SlotLog {
        tracer: tracer.cloned(),
        ..Default::default()
    }));
    let recorder = if tracer.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut audits = Vec::new();
    let (outcome, wall_ns) = maybe_span(tracer, "sim", None, || {
        let start = Instant::now();
        let outcome = match inst.workload {
            Workload::IspOwan | Workload::IspTempusDeadline => {
                let plant = &inst.network.plant;
                let mut engine = inst.engine(plant, &log);
                let r = if tracer.is_some() {
                    simulate_observed(plant, &inst.requests, &mut engine, &sim_config(), &recorder)
                } else {
                    simulate(plant, &inst.requests, &mut engine, &sim_config())
                };
                drop(engine);
                let delivered_gbits = r
                    .completions
                    .iter()
                    .filter(|c| c.completion_s.is_some())
                    .map(|c| c.volume_gbits)
                    .sum();
                Outcome {
                    delivered_gbits,
                    lost_gbits: 0.0,
                    slots: r.slots,
                    error: r
                        .plan_error
                        .map(|(slot, e)| format!("plan_error at slot {slot}: {e}")),
                    chaos: None,
                    update_ops: 0,
                    completions: r.completions,
                }
            }
            Workload::InterdcChaos => {
                let config = ChaosConfig {
                    slot_len_s: SLOT_S,
                    max_slots: CHAOS_SLOTS,
                    detection_delay_s: 30.0,
                    ..Default::default()
                };
                let op_faults = op_fault_model(inst.seed);
                let mut make =
                    |p: &FiberPlant| Box::new(inst.engine(p, &log)) as Box<dyn TrafficEngineer>;
                let mut audit = |a: &SlotAudit| -> Result<(), String> {
                    maybe_span(tracer, "chaos.audit", None, || {
                        audits.push(AuditCapture {
                            runner_slot: a.slot,
                            update: a.delta.cloned().zip(a.update.cloned()),
                            params: a.params,
                        });
                        audit_slot(a)
                    })
                };
                let hook: Option<&mut owan_chaos::AuditHook> = if tracer.is_some() {
                    Some(&mut audit)
                } else {
                    None
                };
                let r = run_chaos(
                    &inst.network.plant,
                    &inst.requests,
                    &mut make,
                    &config,
                    &inst.events,
                    &op_faults,
                    &recorder,
                    hook,
                );
                match r {
                    Ok(r) => Outcome {
                        delivered_gbits: r.background_gbits,
                        lost_gbits: r.stats.blackhole_gbits + r.transition_loss_gbits,
                        slots: r.slots,
                        error: None,
                        chaos: Some(r.stats),
                        update_ops: r.update_ops,
                        completions: r.completions,
                    },
                    Err(e) => Outcome {
                        completions: Vec::new(),
                        delivered_gbits: 0.0,
                        lost_gbits: 0.0,
                        slots: 0,
                        error: Some(e),
                        chaos: None,
                        update_ops: 0,
                    },
                }
            }
        };
        (outcome, start.elapsed().as_nanos() as u64)
    });
    let mut log = Rc::try_unwrap(log)
        .ok()
        .expect("every probe is dropped when the slot loop returns")
        .into_inner();
    let wall_ns = wall_ns.saturating_sub(log.speed.spent_ns());
    maybe_span(tracer, "bench.speed", None, || log.speed.sample());
    Pass {
        wall_ns,
        log,
        outcome,
        counters: recorder.snapshot().counters,
        audits,
    }
}

/// The oracle audit `owan-cli chaos` runs on every slot.
fn audit_slot(a: &SlotAudit) -> Result<(), String> {
    check_plan(a.believed_plant, a.transfers, a.slot_len_s, a.plan)
        .map_err(|v| format!("slot plan: {v}"))?;
    if let (Some(delta), Some(update)) = (a.delta, a.update) {
        check_timeline(delta, update, &a.params).map_err(|v| format!("update: {v}"))?;
    }
    Ok(())
}
