//! Differential replay: drive the production control loop over fuzzed
//! scenarios and check every invariant at every slot.
//!
//! [`replay_scenario`] runs one [`Scenario`] through
//! [`owan_sim::simulate_with_failures`] — the same slot loop every
//! simulator run uses, with its failure timeline, starvation bookkeeping
//! and dust floor — and audits every slot with [`audit_slot`]:
//! [`check_plan`] on each emitted plan and [`check_timeline`] on the
//! update from the previous plan. [`fuzz`] sweeps seed ranges; on
//! divergence the failing scenario is shrunk by [`minimize`] to a
//! [`Reproducer`] — a seed plus the surviving request/failure indices,
//! which regenerate the minimal case exactly (generation is
//! deterministic).

use crate::fuzz::Scenario;
use crate::invariants::{check_plan, check_timeline};
use owan_core::{default_topology, AnnealConfig, OwanConfig, OwanEngine, TrafficEngineer};
use owan_optical::FiberPlant;
use owan_sim::{simulate_with_failures, AuditHook, PlanError, Probes, SimConfig, SlotAudit};

/// Replay tunables. The defaults keep debug-mode replay of one scenario
/// in the low tens of milliseconds so hundreds of seeds fit in a test.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Annealing iterations per slot (the production default is 400;
    /// replay shrinks it — the oracle checks hold for *any* iteration
    /// count).
    pub anneal_iterations: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            anneal_iterations: 40,
        }
    }
}

impl ReplayConfig {
    /// The engine a replay of `scenario` drives: Owan at this iteration
    /// budget, seeded from the scenario.
    pub fn engine(&self, scenario: &Scenario) -> OwanEngine {
        owan_engine(&scenario.plant, self.anneal_iterations, scenario.seed)
    }
}

/// The Owan engine every oracle replay drives on `plant`: `iterations`
/// annealing steps per slot, seeded from the scenario seed.
pub(crate) fn owan_engine(plant: &FiberPlant, iterations: usize, seed: u64) -> OwanEngine {
    let config = OwanConfig {
        anneal: AnnealConfig {
            max_iterations: iterations,
            seed: seed.wrapping_add(1),
            ..Default::default()
        },
        ..Default::default()
    };
    OwanEngine::new(default_topology(plant), config)
}

/// The oracle's audit of one slot: [`check_plan`] on the plan against the
/// plant the controller believed, then [`check_timeline`] on the update
/// into it. Every check counts on `probes.recorder`
/// (`oracle.invariant_checked` / `oracle.invariant_violated`), and a
/// violation raises the `oracle.invariant_violated` scope anomaly, which
/// freezes the flight ring on the slots leading up to it.
pub fn audit_slot(a: &SlotAudit, probes: &Probes) -> Result<(), String> {
    let checked = probes.recorder.counter("oracle.invariant_checked");
    let violated = probes.recorder.counter("oracle.invariant_violated");
    let reject = |message: String| {
        violated.add(1);
        probes.scope.anomaly("oracle.invariant_violated", a.slot);
        Err(message)
    };
    checked.add(1);
    if let Err(v) = check_plan(a.believed_plant, a.transfers, a.slot_len_s, a.plan) {
        return reject(format!("slot plan: {v}"));
    }
    if let (Some(delta), Some(update)) = (a.delta, a.update) {
        checked.add(1);
        if let Err(v) = check_timeline(delta, update, &a.params) {
            return reject(format!("update: {v}"));
        }
    }
    Ok(())
}

/// An invariant violation observed during replay.
#[derive(Debug, Clone)]
pub struct ReplayFailure {
    /// Slot the violation surfaced in.
    pub slot: usize,
    /// The violated invariant, rendered (`"slot plan: LinkCapacity: ..."`).
    pub message: String,
}

impl std::fmt::Display for ReplayFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot {}: {}", self.slot, self.message)
    }
}

/// Audit bookkeeping for one replay: how many slots and transitions
/// passed, and the first rejected slot.
#[derive(Default)]
pub(crate) struct AuditLog {
    pub plans_checked: usize,
    pub updates_checked: usize,
    rejected: Option<ReplayFailure>,
}

impl AuditLog {
    /// Runs `check` on one slot, counting a pass and remembering a
    /// rejection together with its slot.
    pub(crate) fn check(&mut self, a: &SlotAudit, check: &mut AuditHook) -> Result<(), String> {
        match check(a) {
            Ok(()) => {
                self.plans_checked += 1;
                self.updates_checked += usize::from(a.update.is_some());
                Ok(())
            }
            Err(message) => {
                self.rejected = Some(ReplayFailure {
                    slot: a.slot,
                    message: message.clone(),
                });
                Err(message)
            }
        }
    }

    /// The failure behind a run that stopped with `message`: the rejected
    /// slot when the audit stopped it (the only way a chaos run fails).
    pub(crate) fn failure(&mut self, message: String) -> ReplayFailure {
        self.rejected
            .take()
            .unwrap_or(ReplayFailure { slot: 0, message })
    }
}

/// What a clean replay covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Slots executed.
    pub slots: usize,
    /// Plans checked with [`check_plan`].
    pub plans_checked: usize,
    /// Plan transitions checked with [`check_timeline`].
    pub updates_checked: usize,
    /// Transfers that completed within the horizon.
    pub completed: usize,
}

/// Replays one scenario through `engine` (usually
/// [`ReplayConfig::engine`]), auditing every slot with [`audit_slot`].
pub fn replay_scenario(
    scenario: &Scenario,
    engine: &mut dyn TrafficEngineer,
    probes: &Probes,
) -> Result<ReplayStats, ReplayFailure> {
    let config = SimConfig {
        slot_len_s: scenario.slot_len_s,
        max_slots: scenario.max_slots,
        ..Default::default()
    };
    let mut log = AuditLog::default();
    let result = simulate_with_failures(
        &scenario.plant,
        &scenario.requests,
        engine,
        &config,
        &scenario.failures,
        probes,
        Some(&mut |a: &SlotAudit| log.check(a, &mut |a: &SlotAudit| audit_slot(a, probes))),
    );
    match result.plan_error {
        Some((slot, PlanError::Audit(message))) => Err(ReplayFailure { slot, message }),
        Some((slot, e)) => Err(ReplayFailure {
            slot,
            message: format!("PlanError: {e}"),
        }),
        None => Ok(ReplayStats {
            slots: result.slots,
            plans_checked: log.plans_checked,
            updates_checked: log.updates_checked,
            completed: result
                .completions
                .iter()
                .filter(|c| c.completion_s.is_some())
                .count(),
        }),
    }
}

/// A minimized failing case: the seed plus the request/failure indices
/// that survived shrinking. `Scenario::generate(seed).subset(..)`
/// reconstructs it exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// Generating seed.
    pub seed: u64,
    /// Surviving request indices (into the generated request vector).
    pub request_idx: Vec<usize>,
    /// Surviving failure indices (into the generated failure vector).
    pub failure_idx: Vec<usize>,
    /// The violation the minimal case still triggers.
    pub message: String,
}

impl Reproducer {
    /// Rebuilds the minimal scenario this reproducer describes.
    pub fn scenario(&self) -> Scenario {
        Scenario::generate(self.seed).subset(&self.request_idx, &self.failure_idx)
    }

    /// Plain-text serialization (one `key: value` per line).
    pub fn to_text(&self) -> String {
        let join = |v: &[usize]| {
            v.iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "owan-oracle reproducer v1\nseed: {}\nrequests: {}\nfailures: {}\nviolation: {}\n",
            self.seed,
            join(&self.request_idx),
            join(&self.failure_idx),
            self.message
        )
    }

    /// Parses [`Reproducer::to_text`] output.
    pub fn from_text(text: &str) -> Result<Reproducer, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("owan-oracle reproducer v1") => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let mut seed = None;
        let mut request_idx = Vec::new();
        let mut failure_idx = Vec::new();
        let mut message = String::new();
        for line in lines {
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match key {
                "seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?),
                "requests" => {
                    request_idx = parse_indices(value)?;
                }
                "failures" => {
                    failure_idx = parse_indices(value)?;
                }
                "violation" => {
                    message = value.to_string();
                }
                _ => {}
            }
        }
        Ok(Reproducer {
            seed: seed.ok_or("missing seed")?,
            request_idx,
            failure_idx,
            message,
        })
    }
}

fn parse_indices(value: &str) -> Result<Vec<usize>, String> {
    value
        .split_whitespace()
        .map(|s| {
            s.parse::<usize>()
                .map_err(|e| format!("bad index {s}: {e}"))
        })
        .collect()
}

/// Greedy delta-debugging: drop one request (then one failure) at a time,
/// keeping any removal that still reproduces *a* violation. The result is
/// 1-minimal — removing any single surviving element makes the failure
/// disappear.
pub fn minimize(scenario: &Scenario, config: &ReplayConfig) -> Reproducer {
    let mut request_idx: Vec<usize> = (0..scenario.requests.len()).collect();
    let mut failure_idx: Vec<usize> = (0..scenario.failures.len()).collect();
    let base = Scenario::generate(scenario.seed);

    let still_fails = |req: &[usize], fail: &[usize]| -> Option<String> {
        let scenario = base.subset(req, fail);
        replay_scenario(&scenario, &mut config.engine(&scenario), &Probes::off())
            .err()
            .map(|f| f.message)
    };
    let mut message = match still_fails(&request_idx, &failure_idx) {
        Some(m) => m,
        // The caller observed a failure the base scenario does not
        // reproduce (e.g. it replayed under different options); return
        // the unshrunk index set.
        None => {
            return Reproducer {
                seed: scenario.seed,
                request_idx,
                failure_idx,
                message: String::from("not reproducible under minimizer options"),
            }
        }
    };

    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        let mut i = 0;
        while i < request_idx.len() {
            let mut candidate = request_idx.clone();
            candidate.remove(i);
            if let Some(m) = still_fails(&candidate, &failure_idx) {
                request_idx = candidate;
                message = m;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        let mut j = 0;
        while j < failure_idx.len() {
            let mut candidate = failure_idx.clone();
            candidate.remove(j);
            if let Some(m) = still_fails(&request_idx, &candidate) {
                failure_idx = candidate;
                message = m;
                shrunk = true;
            } else {
                j += 1;
            }
        }
    }

    Reproducer {
        seed: scenario.seed,
        request_idx,
        failure_idx,
        message,
    }
}

/// What a fuzz sweep covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzStats {
    /// Seeds replayed cleanly.
    pub seeds: u64,
    /// Total slots executed.
    pub slots: usize,
    /// Total plans checked.
    pub plans_checked: usize,
    /// Total transitions checked.
    pub updates_checked: usize,
}

/// Replays `count` consecutive seeds starting at `start`, every check
/// counted on `probes`. Returns stats on success, or the first failure
/// minimized to a [`Reproducer`]. The minimizer runs unprobed — its
/// replays probe candidate subsets rather than verify, so counting them
/// would inflate the check totals.
pub fn fuzz(
    start: u64,
    count: u64,
    config: &ReplayConfig,
    probes: &Probes,
) -> Result<FuzzStats, Reproducer> {
    let mut stats = FuzzStats::default();
    for seed in start..start + count {
        let scenario = Scenario::generate(seed);
        match replay_scenario(&scenario, &mut config.engine(&scenario), probes) {
            Ok(s) => {
                stats.seeds += 1;
                stats.slots += s.slots;
                stats.plans_checked += s.plans_checked;
                stats.updates_checked += s.updates_checked;
            }
            Err(_) => return Err(minimize(&scenario, config)),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_seed_replays_ok() {
        let scenario = Scenario::generate(0);
        let mut engine = ReplayConfig::default().engine(&scenario);
        let stats = replay_scenario(&scenario, &mut engine, &Probes::off())
            .unwrap_or_else(|f| panic!("seed 0 diverged: {f}"));
        assert!(stats.plans_checked > 0);
    }

    #[test]
    fn reproducer_text_round_trips() {
        let r = Reproducer {
            seed: 42,
            request_idx: vec![0, 3, 7],
            failure_idx: vec![1],
            message: String::from("LinkCapacity: link (0, 1) over capacity"),
        };
        let parsed = Reproducer::from_text(&r.to_text()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn reproducer_rejects_garbage() {
        assert!(Reproducer::from_text("not a reproducer").is_err());
        assert!(Reproducer::from_text("owan-oracle reproducer v1\nseed: banana\n").is_err());
    }

    #[test]
    fn minimize_on_passing_scenario_is_graceful() {
        let scenario = Scenario::generate(0);
        let r = minimize(&scenario, &ReplayConfig::default());
        assert_eq!(r.seed, 0);
        assert!(r.message.contains("not reproducible"));
    }
}
