//! Attack replay: adversarial demand waves composed with chaos fault
//! timelines, driven through the hardened controller with every attacked
//! slot audited by both invariant checkers.
//!
//! This is the traffic-adversity twin of [`crate::chaos`]: where
//! [`fuzz_chaos`](crate::chaos::fuzz_chaos) sweeps physical-fault
//! timelines, [`fuzz_attack`] additionally injects a seeded coremelt
//! and/or flash-crowd wave into every scenario, so the oracle exercises
//! exactly the composition the `owan-cli attack` subcommand runs —
//! detection-delayed believed plant, op faults, controller crashes, and
//! hostile demand, all at once.

use crate::chaos::{chaos_events_for, ChaosReplayConfig};
use crate::fuzz::Scenario;
use crate::replay::{audit_slot, AuditLog, ReplayFailure};
use owan_chaos::{run_attack, AttackSpec, AttackTimeline, ChaosSpec};
use owan_sim::{AuditHook, Probes, SlotAudit};
use owan_workload::attack::{coremelt, flash_crowd, AttackWave, CoremeltConfig, FlashCrowdConfig};

/// Derives a deterministic attack timeline for a fuzz scenario: a
/// coremelt wave, a flash-crowd wave, or both, by seed, with onsets in
/// the first half of the horizon so recovery has room to show.
pub fn attack_timeline_for(scenario: &Scenario) -> AttackTimeline {
    let horizon = scenario.slot_len_s * scenario.max_slots as f64;
    let mut waves: Vec<AttackWave> = Vec::new();
    if scenario.seed % 3 != 1 {
        let mut cm = CoremeltConfig::new(scenario.seed ^ 0xC0DE, 0.2 * horizon, 0.4 * horizon);
        // Fuzz plants are small rings; one target and modest intensity
        // keep the surge within what invariant-checked plans can carry.
        cm.target_fibers = 1;
        cm.pairs_per_fiber = 2;
        cm.intensity = 1.0;
        waves.push(coremelt(&scenario.plant, &cm));
    }
    if scenario.seed % 3 != 2 {
        let mut fc = FlashCrowdConfig::new(scenario.seed ^ 0xF1A5, 0.3 * horizon);
        fc.sources = 3;
        fc.ramp_s = scenario.slot_len_s;
        fc.hold_s = 2.0 * scenario.slot_len_s;
        fc.decay_s = scenario.slot_len_s;
        fc.bucket_s = scenario.slot_len_s;
        waves.push(flash_crowd(&scenario.plant, &fc));
    }
    AttackTimeline::new(waves)
}

/// What a clean attack replay covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttackReplayStats {
    /// Slots the hardened controller planned in (attacked run).
    pub slots: usize,
    /// Plans checked with [`crate::check_plan`].
    pub plans_checked: usize,
    /// Update schedules checked with [`crate::check_timeline`].
    pub updates_checked: usize,
    /// Attack waves composed into the scenario.
    pub waves: usize,
    /// Post-onset slots in the restored state.
    pub restored_slots: u64,
    /// True when background delivery recovered to the target fraction
    /// and held to the end of the horizon.
    pub recovered: bool,
}

/// Replays one fuzz scenario with its derived attack timeline composed
/// into the fault timeline, auditing every attacked slot with
/// [`audit_slot`]. Attack counters land under `chaos.attack.*` and the
/// hardened loop's timeline flows into `probes`.
pub fn replay_attack_scenario(
    scenario: &Scenario,
    config: &ChaosReplayConfig,
    probes: &Probes,
) -> Result<AttackReplayStats, ReplayFailure> {
    replay_attack_audited(scenario, config, probes, &mut |a: &SlotAudit| {
        audit_slot(a, probes)
    })
}

/// [`replay_attack_scenario`] with `check` as the per-slot audit.
fn replay_attack_audited(
    scenario: &Scenario,
    config: &ChaosReplayConfig,
    probes: &Probes,
    check: &mut AuditHook,
) -> Result<AttackReplayStats, ReplayFailure> {
    let timeline = attack_timeline_for(scenario);
    let events = chaos_events_for(scenario);
    let attack = AttackSpec {
        timeline: &timeline,
        faults: ChaosSpec {
            events: &events,
            op_faults: config.op_faults(scenario),
        },
        restore_fraction: 0.9,
    };
    let mut log = AuditLog::default();
    let outcome = run_attack(
        &scenario.plant,
        &scenario.requests,
        &mut config.engines(scenario),
        &config.chaos_config(scenario),
        attack,
        probes,
        Some(&mut |a: &SlotAudit| log.check(a, check)),
    );
    let outcome = outcome.map_err(|message| log.failure(message))?;
    Ok(AttackReplayStats {
        slots: outcome.attacked.slots,
        plans_checked: log.plans_checked,
        updates_checked: log.updates_checked,
        waves: timeline.waves().len(),
        restored_slots: outcome.metrics.restored_slots,
        recovered: outcome.metrics.time_to_restore_slots.is_some(),
    })
}

/// Aggregate coverage of a clean attack fuzz sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttackFuzzStats {
    /// Scenarios replayed.
    pub scenarios: usize,
    /// Total slots planned across all attacked runs.
    pub slots: usize,
    /// Total plans checked.
    pub plans_checked: usize,
    /// Total update schedules checked.
    pub updates_checked: usize,
    /// Total attack waves composed.
    pub waves: usize,
    /// Scenarios whose background delivery recovered to the bar.
    pub recovered: usize,
}

/// Sweeps `count` seeds starting at `start` through attack replay, every
/// check counted on `probes`. On a violation, returns the failing seed
/// with the failure.
pub fn fuzz_attack(
    start: u64,
    count: u64,
    config: &ChaosReplayConfig,
    probes: &Probes,
) -> Result<AttackFuzzStats, (u64, ReplayFailure)> {
    let mut stats = AttackFuzzStats::default();
    for seed in start..start + count {
        let scenario = Scenario::generate(seed);
        let s = replay_attack_scenario(&scenario, config, probes).map_err(|f| (seed, f))?;
        stats.scenarios += 1;
        stats.slots += s.slots;
        stats.plans_checked += s.plans_checked;
        stats.updates_checked += s.updates_checked;
        stats.waves += s.waves;
        stats.recovered += s.recovered as usize;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attack_timeline_is_deterministic_per_scenario() {
        let s = Scenario::generate(21);
        assert_eq!(attack_timeline_for(&s), attack_timeline_for(&s));
        assert!(!attack_timeline_for(&s).waves().is_empty());
    }

    #[test]
    fn single_attack_replay_is_clean() {
        let s = Scenario::generate(4);
        let stats = replay_attack_scenario(&s, &ChaosReplayConfig::default(), &Probes::off())
            .unwrap_or_else(|f| panic!("seed 4 violated: {f}"));
        assert!(stats.plans_checked > 0);
        assert_eq!(stats.plans_checked, stats.slots);
        assert!(stats.waves > 0);
    }

    #[test]
    fn audit_failure_carries_the_rejected_slot() {
        let s = Scenario::generate(4);
        let mut rejected = None;
        let failure = replay_attack_audited(
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
    }
}
