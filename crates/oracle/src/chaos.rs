//! Chaos replay: drive the *hardened* controller path (`owan-chaos`)
//! over fuzzed scenarios and audit every planned slot.
//!
//! Where [`crate::replay`] checks the fault-free control loop against
//! one-way failure injections, this module replays full chaos timelines
//! — cuts that heal, sites that blink, amplifier degradation, injected
//! update-op faults, controller crashes — through
//! [`owan_chaos::run_chaos_probed`], with [`audit_slot`] asserting every
//! slot's cross-layer invariants on the *believed* plant and
//! blackhole/loop/overload freedom of every executed update schedule.
//! [`fuzz_chaos`] sweeps seed ranges.

use crate::fuzz::Scenario;
use crate::replay::{audit_slot, owan_engine, AuditLog, ReplayFailure};
use owan_chaos::{run_chaos_probed, ChaosConfig, ChaosSpec, FaultEvent, FaultKind, OpFaultModel};
use owan_core::TrafficEngineer;
use owan_optical::FiberPlant;
use owan_sim::{AuditHook, Failure, Probes, SlotAudit};

/// Chaos-replay tunables.
#[derive(Debug, Clone, Copy)]
pub struct ChaosReplayConfig {
    /// Annealing iterations per slot (small: the invariants hold for any
    /// iteration count).
    pub anneal_iterations: usize,
    /// Detection delay for injected faults, seconds.
    pub detection_delay_s: f64,
    /// Per-attempt probability an update op times out.
    pub timeout_prob: f64,
    /// Per-attempt probability an update op fails fast.
    pub fail_prob: f64,
}

impl Default for ChaosReplayConfig {
    fn default() -> Self {
        ChaosReplayConfig {
            anneal_iterations: 40,
            detection_delay_s: 45.0,
            timeout_prob: 0.1,
            fail_prob: 0.05,
        }
    }
}

impl ChaosReplayConfig {
    /// The hardened-loop configuration for replaying `scenario`.
    pub(crate) fn chaos_config(&self, scenario: &Scenario) -> ChaosConfig {
        ChaosConfig {
            slot_len_s: scenario.slot_len_s,
            max_slots: scenario.max_slots,
            detection_delay_s: self.detection_delay_s,
            ..Default::default()
        }
    }

    /// The update-op fault model for replaying `scenario`.
    pub(crate) fn op_faults(&self, scenario: &Scenario) -> OpFaultModel {
        OpFaultModel {
            seed: scenario.seed,
            timeout_prob: self.timeout_prob,
            fail_prob: self.fail_prob,
        }
    }

    /// The engine factory for replaying `scenario`: a fresh Owan engine
    /// on the believed plant, at start and after every crash.
    pub(crate) fn engines(
        &self,
        scenario: &Scenario,
    ) -> impl FnMut(&FiberPlant) -> Box<dyn TrafficEngineer> {
        let (iterations, seed) = (self.anneal_iterations, scenario.seed);
        move |plant: &FiberPlant| {
            Box::new(owan_engine(plant, iterations, seed)) as Box<dyn TrafficEngineer>
        }
    }
}

/// What a clean chaos replay covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosReplayStats {
    /// Slots the hardened controller planned in.
    pub slots: usize,
    /// Plans checked with [`crate::check_plan`].
    pub plans_checked: usize,
    /// Update schedules checked with [`crate::check_timeline`].
    pub updates_checked: usize,
    /// Transfers that completed within the horizon.
    pub completed: usize,
    /// Fault events whose detection delay elapsed during the run.
    pub faults_detected: u64,
    /// Controller crash restarts exercised.
    pub crashes: u64,
}

/// Derives a full chaos timeline from a fuzz scenario: every generated
/// failure becomes a fault event, heals a quarter-horizon later, and one
/// controller crash lands mid-run. Deterministic in the scenario.
pub fn chaos_events_for(scenario: &Scenario) -> Vec<FaultEvent> {
    let horizon = scenario.slot_len_s * scenario.max_slots as f64;
    let mut events: Vec<FaultEvent> = Vec::new();
    for f in &scenario.failures {
        let (fault, repair) = match f.failure {
            Failure::FiberCut(id) => (FaultKind::FiberCut(id), FaultKind::FiberRepaired(id)),
            Failure::SiteDown(s) => (FaultKind::SiteDown(s), FaultKind::SiteUp(s)),
            Failure::AmpDegraded { fiber, usable } => (
                FaultKind::AmpDegraded { fiber, usable },
                FaultKind::AmpRepaired(fiber),
            ),
        };
        events.push(FaultEvent::at(f.time_s, fault));
        let heal = f.time_s + 0.25 * horizon;
        if heal < horizon {
            events.push(FaultEvent::at(heal, repair));
        }
    }
    events.push(FaultEvent::at(0.4 * horizon, FaultKind::ControllerCrash));
    events.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    events
}

/// Replays one scenario through the hardened controller, auditing every
/// planned slot and every executed update schedule with [`audit_slot`].
/// The hardened loop's timeline flows into `probes`, so a violation
/// freezes a flight dump covering the slots leading up to it.
pub fn replay_chaos_scenario(
    scenario: &Scenario,
    config: &ChaosReplayConfig,
    probes: &Probes,
) -> Result<ChaosReplayStats, ReplayFailure> {
    replay_chaos_audited(scenario, config, probes, &mut |a: &SlotAudit| {
        audit_slot(a, probes)
    })
}

/// [`replay_chaos_scenario`] with `check` as the per-slot audit.
fn replay_chaos_audited(
    scenario: &Scenario,
    config: &ChaosReplayConfig,
    probes: &Probes,
    check: &mut AuditHook,
) -> Result<ChaosReplayStats, ReplayFailure> {
    let events = chaos_events_for(scenario);
    let faults = ChaosSpec {
        events: &events,
        op_faults: config.op_faults(scenario),
    };
    let mut log = AuditLog::default();
    let result = run_chaos_probed(
        &scenario.plant,
        &scenario.requests,
        &mut config.engines(scenario),
        &config.chaos_config(scenario),
        faults,
        probes,
        Some(&mut |a: &SlotAudit| log.check(a, check)),
    );
    let result = result.map_err(|message| log.failure(message))?;
    Ok(ChaosReplayStats {
        slots: result.slots,
        plans_checked: log.plans_checked,
        updates_checked: log.updates_checked,
        completed: result
            .completions
            .iter()
            .filter(|c| c.completion_s.is_some())
            .count(),
        faults_detected: result.stats.faults_detected,
        crashes: result.stats.crashes,
    })
}

/// Aggregate coverage of a clean chaos fuzz sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosFuzzStats {
    /// Scenarios replayed.
    pub scenarios: usize,
    /// Total slots planned across all replays.
    pub slots: usize,
    /// Total plans checked.
    pub plans_checked: usize,
    /// Total update schedules checked.
    pub updates_checked: usize,
    /// Total crash restarts exercised.
    pub crashes: u64,
}

/// Sweeps `count` seeds starting at `start` through chaos replay, every
/// check counted on `probes`. On a violation, returns the failing seed
/// with the failure.
pub fn fuzz_chaos(
    start: u64,
    count: u64,
    config: &ChaosReplayConfig,
    probes: &Probes,
) -> Result<ChaosFuzzStats, (u64, ReplayFailure)> {
    let mut stats = ChaosFuzzStats::default();
    for seed in start..start + count {
        let scenario = Scenario::generate(seed);
        let s = replay_chaos_scenario(&scenario, config, probes).map_err(|f| (seed, f))?;
        stats.scenarios += 1;
        stats.slots += s.slots;
        stats.plans_checked += s.plans_checked;
        stats.updates_checked += s.updates_checked;
        stats.crashes += s.crashes;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_events_are_deterministic_and_sorted() {
        let s = Scenario::generate(17);
        let a = chaos_events_for(&s);
        let b = chaos_events_for(&s);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].time_s <= w[1].time_s));
        assert!(a
            .iter()
            .any(|e| matches!(e.kind, FaultKind::ControllerCrash)));
    }

    #[test]
    fn single_chaos_replay_is_clean() {
        let s = Scenario::generate(3);
        let stats = replay_chaos_scenario(&s, &ChaosReplayConfig::default(), &Probes::off())
            .unwrap_or_else(|f| panic!("seed 3 violated: {f}"));
        assert!(stats.plans_checked > 0);
        assert_eq!(stats.plans_checked, stats.slots);
    }

    #[test]
    fn audit_failure_carries_the_rejected_slot() {
        // A hook that rejects the first audited slot past slot 1: the
        // failure must name that slot and the hook's own message.
        let s = Scenario::generate(3);
        let mut rejected = None;
        let failure = replay_chaos_audited(
            &s,
            &ChaosReplayConfig::default(),
            &Probes::off(),
            &mut |a: &SlotAudit| {
                if a.slot < 2 {
                    return Ok(());
                }
                rejected = Some(a.slot);
                Err(String::from("planted"))
            },
        )
        .expect_err("the hook rejects a slot");
        assert_eq!(Some(failure.slot), rejected);
        assert_eq!(failure.message, "planted");
        assert_eq!(
            failure.to_string(),
            format!("slot {}: planted", failure.slot)
        );
    }
}
