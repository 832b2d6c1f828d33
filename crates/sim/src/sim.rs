//! The time-slotted fluid flow simulator.
//!
//! Time is divided into slots "much longer than the time to reconfigure the
//! network and adjust sending rates, i.e., a few minutes vs. hundreds or
//! thousands of milliseconds" (§3.1). Each slot the simulator:
//!
//! 1. admits transfers whose arrival time has passed,
//! 2. asks the engine for a [`SlotPlan`](owan_core::SlotPlan),
//! 3. verifies the plan is feasible (no link over capacity),
//! 4. schedules the update from the previous plan when something consumes
//!    it — telemetry, an audit hook, or a charged-transition run
//!    ([`crate::controller`]) — and offers the slot to the audit hook,
//! 5. advances every transfer fluidly by its allocated rate, recording
//!    mid-slot completion times and per-deadline byte counts,
//! 6. updates starvation counters (the §3.2 starvation guard's input).
//!
//! Every `owan-sim` run mode — ideal, failure timeline, controller
//! restarts, charged transitions, oracle replay — is this one loop.
//!
//! The paper validated exactly this style of flow-level simulator against
//! its hardware testbed within 10% (§5.1); [`crate::validate`] reproduces
//! that comparison with an impaired-rate mode.

use crate::controller::{transition_factor, update_params, UpdateDiscipline};
use crate::probes::{AuditHook, Probes, SlotAudit};
use crate::telemetry::{at_risk_count, SimTelemetry, SlotTelemetry};
use owan_core::{SlotInput, SlotPlan, TrafficEngineer, Transfer, TransferRequest};
use owan_obs::Recorder;
use owan_optical::FiberPlant;
use owan_scope::{path_label, SlotObservation, TransferSlotRow};
use owan_update::{
    plan_consistent_observed, plan_one_shot_observed, NetworkDelta, UpdateTelemetry,
};
use owan_why::{TransferSample, WhySlotObservation};
use serde::{Deserialize, Serialize};

const EPS: f64 = 1e-9;

/// Transfers whose remaining volume falls below this floor (1e-6 Gb = 125
/// bytes) are counted complete at the end of the slot. LP-based engines
/// leave numerical dust of this order; without the floor a sub-byte
/// residue can starve forever below the allocators' rate thresholds.
const COMPLETION_FLOOR_GBITS: f64 = 1e-6;

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Slot length, seconds (paper: five minutes).
    pub slot_len_s: f64,
    /// Hard cap on simulated slots (guards against engines that cannot
    /// drain the workload).
    pub max_slots: usize,
    /// Rate efficiency in `(0, 1]`: fraction of each allocated rate that
    /// is actually delivered. `1.0` is the ideal fluid model; `~0.9`
    /// emulates the testbed's imperfect rate limiting and prefix-splitting
    /// (§5.1 performance validation).
    pub rate_efficiency: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            slot_len_s: 300.0,
            max_slots: 2_000,
            rate_efficiency: 1.0,
        }
    }
}

/// Per-transfer outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletionRecord {
    /// Transfer id (index into the request list).
    pub id: usize,
    /// Total volume, gigabits.
    pub volume_gbits: f64,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Deadline, if any.
    pub deadline_s: Option<f64>,
    /// Completion time (absolute seconds), or `None` if unfinished when
    /// the simulation ended.
    pub completion_s: Option<f64>,
    /// Gigabits delivered before the deadline (equals `volume_gbits` when
    /// the transfer met its deadline; meaningful only if a deadline is set).
    pub gbits_by_deadline: f64,
}

impl CompletionRecord {
    /// Completion time relative to arrival, if finished.
    pub fn completion_time_s(&self) -> Option<f64> {
        self.completion_s.map(|c| c - self.arrival_s)
    }

    /// True if the transfer finished before its deadline.
    pub fn met_deadline(&self) -> bool {
        match (self.completion_s, self.deadline_s) {
            (Some(c), Some(d)) => c <= d + EPS,
            _ => false,
        }
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Name of the engine that produced it.
    pub engine: String,
    /// Per-transfer outcomes, ordered by id.
    pub completions: Vec<CompletionRecord>,
    /// Absolute time the last transfer completed (the *makespan* measured
    /// in Figure 8), or the simulation end if some never finished.
    pub makespan_s: f64,
    /// Total allocated throughput per slot `(slot start, Gbps)` — the
    /// series plotted in Figure 10(a).
    pub throughput_series: Vec<(f64, f64)>,
    /// Per-slot `(slot start, delivered volume in Gb)` — *delivered*, i.e.
    /// after impairment and (in charged runs) update-transition losses.
    pub delivered_series: Vec<(f64, f64)>,
    /// Slots simulated.
    pub slots: usize,
    /// Update operations scheduled across a charged-transition run (0 in
    /// ideal runs, which pay for no transition).
    pub update_ops: usize,
    /// Gb a charged-transition run lost to update transitions relative to
    /// the allocated rates (0 in ideal runs).
    pub transition_loss_gbits: f64,
    /// Per-slot controller telemetry, present when the run was made with
    /// a recording [`Recorder`] (see [`simulate_probed`]).
    pub telemetry: Option<Vec<SlotTelemetry>>,
    /// Set when the engine emitted an infeasible plan, or the audit hook
    /// rejected a slot: the slot it happened in and why. The run stops at
    /// that slot; transfers still pending are reported unfinished.
    pub plan_error: Option<(usize, PlanError)>,
}

impl SimResult {
    /// True if every transfer completed.
    pub fn all_completed(&self) -> bool {
        self.completions.iter().all(|c| c.completion_s.is_some())
    }
}

/// Why a run stopped at a [`SlotPlan`]: it failed the feasibility check —
/// a bug in the engine that emitted it, not an operational condition — or
/// the audit hook rejected it. Fuzz harnesses record it in
/// [`SimResult::plan_error`] instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanError {
    /// An allocation carried a negative rate.
    NegativeRate {
        /// Offending transfer id.
        transfer: usize,
        /// The negative rate, Gbps.
        rate_gbps: f64,
    },
    /// Allocated paths load a link beyond its circuit capacity.
    LinkOverCapacity {
        /// Link endpoints (u < v).
        u: usize,
        /// Link endpoints (u < v).
        v: usize,
        /// Total load crossing the link, Gbps.
        load_gbps: f64,
        /// Link capacity (multiplicity × θ), Gbps.
        capacity_gbps: f64,
    },
    /// The run's audit hook rejected the slot, with its message.
    Audit(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NegativeRate {
                transfer,
                rate_gbps,
            } => {
                write!(f, "negative rate {rate_gbps} for transfer {transfer}")
            }
            PlanError::LinkOverCapacity {
                u,
                v,
                load_gbps,
                capacity_gbps,
            } => write!(
                f,
                "link ({u},{v}) carries {load_gbps} over capacity {capacity_gbps}"
            ),
            PlanError::Audit(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for PlanError {}

/// Verifies that a plan does not oversubscribe any link of its topology.
pub fn plan_is_feasible(plan: &SlotPlan, theta: f64) -> Result<(), PlanError> {
    let n = plan.topology.site_count();
    let mut load = vec![0.0f64; n * n];
    for a in &plan.allocations {
        for (path, r) in &a.paths {
            if *r < -EPS {
                return Err(PlanError::NegativeRate {
                    transfer: a.transfer,
                    rate_gbps: *r,
                });
            }
            for w in path.windows(2) {
                load[w[0] * n + w[1]] += r;
                load[w[1] * n + w[0]] += r;
            }
        }
    }
    for u in 0..n {
        for v in u + 1..n {
            let cap = plan.topology.multiplicity(u, v) as f64 * theta;
            if load[u * n + v] > cap + 1e-6 {
                return Err(PlanError::LinkOverCapacity {
                    u,
                    v,
                    load_gbps: load[u * n + v],
                    capacity_gbps: cap,
                });
            }
        }
    }
    Ok(())
}

/// Supplies the plant the engine sees at each slot. The fault-free runs
/// use a static plant; failure runs fold a timeline of events into
/// progressively degraded plants ([`crate::failures`]). Centralizing the
/// slot loop behind this trait keeps the failure path from drifting from
/// the fault-free path.
pub(crate) trait PlantProvider {
    /// The undegraded plant: global parameters (θ, φ, reconfiguration
    /// times) come from here.
    fn base(&self) -> &FiberPlant;
    /// Plant presented to the engine for the slot starting at `now_s`.
    fn plant_at(&mut self, slot: usize, now_s: f64) -> &FiberPlant;
}

/// A fixed plant for the whole run.
pub(crate) struct StaticPlant<'a>(pub &'a FiberPlant);

impl PlantProvider for StaticPlant<'_> {
    fn base(&self) -> &FiberPlant {
        self.0
    }
    fn plant_at(&mut self, _slot: usize, _now_s: f64) -> &FiberPlant {
        self.0
    }
}

/// Supplies the engine driving each slot. A fresh instance mid-run models
/// a stateless controller restart (§3.4): the replacement recomputes from
/// the stored plant + transfer set with no memory of its predecessor.
pub(crate) trait EngineSource {
    /// Engine for `slot`. Must be idempotent per slot (repeated calls with
    /// the same slot return the same instance, not a fresh restart).
    fn engine_at(&mut self, slot: usize) -> &mut dyn TrafficEngineer;
}

/// One engine for the whole run.
pub(crate) struct SingleEngine<'a>(pub &'a mut dyn TrafficEngineer);

impl EngineSource for SingleEngine<'_> {
    fn engine_at(&mut self, _slot: usize) -> &mut dyn TrafficEngineer {
        self.0
    }
}

/// Runs `engine` over `requests` on `plant` until every transfer completes
/// (or `max_slots` elapse).
///
/// If the engine ever emits an infeasible plan — a bug in the engine, not
/// an operational condition — the run stops at that slot and reports the
/// violation in [`SimResult::plan_error`], so differential fuzz harnesses
/// can record and minimize the failure instead of aborting.
pub fn simulate(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    engine: &mut dyn TrafficEngineer,
    config: &SimConfig,
) -> SimResult {
    simulate_probed(plant, requests, engine, config, &Probes::off())
}

/// [`simulate`] with only the telemetry tier attached (see
/// [`simulate_probed`]).
pub fn simulate_observed(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    engine: &mut dyn TrafficEngineer,
    config: &SimConfig,
    recorder: &Recorder,
) -> SimResult {
    let probes = Probes {
        recorder: recorder.clone(),
        ..Probes::off()
    };
    simulate_probed(plant, requests, engine, config, &probes)
}

/// [`simulate`] with observability attached. The engine gets the
/// recorder and profiler; each slot is timed as a `stage.slot` span and a
/// `slot` region, the result carries one [`SlotTelemetry`] row per slot,
/// the scope records transfer lifecycles and flight frames, and the why
/// recorder gets per-transfer samples (a tripped SLO monitor freezes the
/// flight recorder through [`owan_scope::ScopeRecorder::anomaly`]). The update
/// into each plan is scheduled for telemetry only — the idealized
/// simulator still delivers the full allocation — so plans and completion
/// metrics are identical under every probe set.
pub fn simulate_probed(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    engine: &mut dyn TrafficEngineer,
    config: &SimConfig,
    probes: &Probes,
) -> SimResult {
    drive_slots(
        requests,
        &mut StaticPlant(plant),
        &mut SingleEngine(engine),
        config,
        None,
        probes,
        None,
    )
}

/// The one controller slot loop behind every `owan-sim` run mode:
/// admission, planning, feasibility gate, update scheduling, audit, fluid
/// delivery, deadline + starvation bookkeeping, probes.
///
/// `charge` selects how transitions are paid for. `None` is the paper's
/// idealized simulator: the update into each plan is scheduled only when
/// telemetry or `audit` consumes it, and the full allocation is
/// delivered. `Some(discipline)` schedules every update with that
/// discipline and discounts the slot's delivery by the carried fraction
/// ([`transition_factor`]). `audit` sees every planned slot; an `Err`
/// stops the run with [`PlanError::Audit`].
pub(crate) fn drive_slots(
    requests: &[TransferRequest],
    plants: &mut dyn PlantProvider,
    engines: &mut dyn EngineSource,
    config: &SimConfig,
    charge: Option<UpdateDiscipline>,
    probes: &Probes,
    mut audit: Option<&mut AuditHook>,
) -> SimResult {
    assert!(config.rate_efficiency > 0.0 && config.rate_efficiency <= 1.0);
    let Probes {
        recorder,
        scope,
        prof,
        why,
    } = probes;
    let scope_on = scope.is_enabled();
    if scope_on {
        scope.begin_run(requests);
    }
    let why_on = why.is_enabled();
    if why_on {
        why.begin_run(requests);
    }
    let base = plants.base();
    let theta = base.params().wavelength_capacity_gbps;
    let wavelengths = base.params().wavelengths_per_fiber;
    let params = update_params(base);
    let mut engine_name = engines.engine_at(0).name().to_string();
    let telemetry = recorder.is_enabled().then(|| SimTelemetry::new(recorder));
    let update_telemetry = telemetry
        .as_ref()
        .map_or_else(UpdateTelemetry::disabled, |t| t.update.clone());
    let schedule_updates = charge.is_some() || telemetry.is_some() || audit.is_some();
    let mut slot_rows: Vec<SlotTelemetry> = Vec::new();
    let mut prev_plan: Option<SlotPlan> = None;

    let (mut transfers, mut records) = start_transfers(requests);
    let mut throughput_series = Vec::new();
    let mut delivered_series = Vec::new();
    let mut makespan_s: f64 = 0.0;
    let mut slots = 0;
    let mut update_ops_total = 0usize;
    let mut transition_loss_gbits = 0.0;
    let mut plan_error: Option<(usize, PlanError)> = None;

    for slot in 0..config.max_slots {
        let now = slot as f64 * config.slot_len_s;
        slots = slot + 1;
        let current_plant = plants.plant_at(slot, now);

        // Active = arrived and incomplete.
        let active: Vec<Transfer> = transfers
            .iter()
            .filter(|t| t.arrival_s <= now + EPS && !t.is_complete())
            .cloned()
            .collect();
        let pending_future = transfers
            .iter()
            .any(|t| t.arrival_s > now + EPS && !t.is_complete());
        if active.is_empty() && !pending_future {
            break;
        }
        // A workload stuck on portless endpoints (e.g. sites that died in
        // a failure run) cannot drain; stop when no active transfer can
        // make progress and nothing new will arrive.
        let any_progress_possible = active.iter().any(|t| {
            current_plant.router_ports(t.src) > 0 && current_plant.router_ports(t.dst) > 0
        });
        if !any_progress_possible && !pending_future {
            break;
        }

        let engine = engines.engine_at(slot);
        engine.set_recorder(recorder.clone());
        engine.set_profiler(prof.clone());
        engine_name = engine.name().to_string();
        let slot_region = prof.region("slot");
        let slot_start_ns = recorder.now_ns();
        let slot_span = telemetry
            .as_ref()
            .map(|t| (t.slot_stage.enter(), t.stage_marks()));
        let plan_start_ns = recorder.now_ns();
        let plan = engine.plan_slot(
            current_plant,
            &SlotInput {
                transfers: &active,
                slot_len_s: config.slot_len_s,
                now_s: now,
            },
        );
        let plan_ns = recorder.now_ns().saturating_sub(plan_start_ns);
        if let Err(e) = plan_is_feasible(&plan, theta) {
            scope.anomaly("plan.infeasible", slot);
            plan_error = Some((slot, e));
            break;
        }
        throughput_series.push((now, plan.throughput_gbps));

        // The update from the previous plan into this one.
        let transition = match &prev_plan {
            Some(prev) if schedule_updates => {
                let _region = prof.region("update");
                let delta = NetworkDelta::from_plans(
                    &prev.topology,
                    &prev.allocations,
                    &plan.topology,
                    &plan.allocations,
                    wavelengths,
                );
                let update = match charge {
                    Some(UpdateDiscipline::OneShot) => {
                        plan_one_shot_observed(&delta, &params, &update_telemetry)
                    }
                    _ => plan_consistent_observed(&delta, &params, &update_telemetry),
                };
                Some((delta, update))
            }
            _ => None,
        };
        let update_ops = transition.as_ref().map_or(0, |(_, u)| u.ops.len());
        let (scale, loss) = match (&transition, charge) {
            (Some((delta, update)), Some(_)) => {
                update_ops_total += update_ops;
                transition_factor(
                    delta,
                    update,
                    &params,
                    config.slot_len_s,
                    plan.throughput_gbps,
                )
            }
            _ => (1.0, 0.0),
        };
        transition_loss_gbits += loss;

        if let Some(hook) = audit.as_deref_mut() {
            let verdict = hook(&SlotAudit {
                slot,
                now_s: now,
                believed_plant: current_plant,
                transfers: &active,
                plan: &plan,
                delta: transition.as_ref().map(|(d, _)| d),
                update: transition.as_ref().map(|(_, u)| u),
                params,
                slot_len_s: config.slot_len_s,
                used_fallback: false,
            });
            if let Err(message) = verdict {
                plan_error = Some((slot, PlanError::Audit(message)));
                break;
            }
        }

        // Advance transfers.
        let mut got_rate = vec![false; transfers.len()];
        let mut scope_delivered = (scope_on || why_on).then(|| vec![0.0f64; transfers.len()]);
        let mut slot_delivered = 0.0;
        for alloc in &plan.allocations {
            let rate_alloc = alloc.total_rate();
            let rate = rate_alloc * config.rate_efficiency * scale;
            if rate <= EPS {
                continue;
            }
            let t = &mut transfers[alloc.transfer];
            debug_assert!(!t.is_complete(), "allocation to a finished transfer");
            got_rate[alloc.transfer] = true;
            let remaining_before = t.remaining_gbits;
            slot_delivered += deliver(
                t,
                &mut records[alloc.transfer],
                rate_alloc,
                rate,
                now,
                config.slot_len_s,
                &mut makespan_s,
            );
            if let Some(delivered) = scope_delivered.as_mut() {
                delivered[alloc.transfer] = remaining_before - t.remaining_gbits;
            }
        }
        delivered_series.push((now, slot_delivered));

        // Numerical-dust floor: see COMPLETION_FLOOR_GBITS.
        for (i, t) in transfers.iter_mut().enumerate() {
            if !t.is_complete() && t.remaining_gbits < COMPLETION_FLOOR_GBITS {
                t.remaining_gbits = 0.0;
                let finish = now + config.slot_len_s;
                records[i].completion_s = Some(finish);
                makespan_s = makespan_s.max(finish);
            }
        }

        let queue_depth = book_starvation(&mut transfers, &got_rate, now);

        let at_risk = if telemetry.is_some() || scope_on {
            at_risk_count(&active, &plan, now)
        } else {
            0
        };
        let mut stage_ns = (0u64, 0u64, 0u64, 0u64);
        if let (Some(t), Some((span, marks))) = (&telemetry, slot_span) {
            span.finish();
            stage_ns = t.stage_marks().since(&marks);
            let row = SlotTelemetry {
                slot,
                start_s: now,
                active_transfers: active.len(),
                queue_depth,
                at_risk,
                plan_ns,
                anneal_ns: stage_ns.0,
                circuits_ns: stage_ns.1,
                rates_ns: stage_ns.2,
                update_ns: stage_ns.3,
                update_ops,
                throughput_gbps: plan.throughput_gbps,
            };
            t.publish_slot(&row);
            slot_rows.push(row);
        }
        if let (true, Some(delivered)) = (scope_on, &scope_delivered) {
            let rows = build_scope_rows(&active, &plan, &transfers, &records, delivered);
            scope.record_slot(&SlotObservation {
                slot,
                now_s: now,
                slot_len_s: config.slot_len_s,
                start_ns: slot_start_ns,
                end_ns: recorder.now_ns().max(slot_start_ns),
                plan_start_ns,
                plan_ns,
                anneal_ns: stage_ns.0,
                circuits_ns: stage_ns.1,
                rates_ns: stage_ns.2,
                update_ns: stage_ns.3,
                update_ops,
                throughput_gbps: plan.throughput_gbps,
                active_transfers: active.len(),
                queue_depth,
                at_risk,
                plan: &plan,
                rows: &rows,
                believed_down: &[],
                actual_down: &[],
                events: &[],
            });
        }
        if let (true, Some(delivered)) = (why_on, &scope_delivered) {
            // No blackholes or attacks here: full == live, and the fault
            // channel stays empty.
            let rates = plan.allocations.iter().map(|a| {
                let rate_alloc = a.total_rate();
                (a.transfer, rate_alloc, rate_alloc)
            });
            let samples = why_samples(rates, &active, delivered, &transfers, &records);
            if let Some(reason) = why.observe_slot(&WhySlotObservation {
                slot,
                now_s: now,
                slot_len_s: config.slot_len_s,
                start_ns: slot_start_ns,
                end_ns: recorder.now_ns().max(slot_start_ns),
                plan_ns,
                transition_scale: scale,
                throughput_gbps: plan.throughput_gbps,
                attack_active: false,
                samples: &samples,
                events: &[],
            }) {
                scope.anomaly(reason, slot);
            }
        }
        if schedule_updates {
            prev_plan = Some(plan);
        }
        slot_region.finish();
    }

    if !records.iter().all(|r| r.completion_s.is_some()) {
        makespan_s = makespan_s.max(slots as f64 * config.slot_len_s);
    }

    SimResult {
        engine: engine_name,
        completions: records,
        makespan_s,
        throughput_series,
        delivered_series,
        slots,
        update_ops: update_ops_total,
        transition_loss_gbits,
        telemetry: telemetry.map(|_| slot_rows),
        plan_error,
    }
}

/// Fresh transfer state and unfinished outcome records for `requests`,
/// both indexed by transfer id.
pub fn start_transfers(requests: &[TransferRequest]) -> (Vec<Transfer>, Vec<CompletionRecord>) {
    let transfers = requests
        .iter()
        .enumerate()
        .map(|(id, r)| Transfer::from_request(id, r))
        .collect();
    let records = requests
        .iter()
        .enumerate()
        .map(|(id, r)| CompletionRecord {
            id,
            volume_gbits: r.volume_gbits,
            arrival_s: r.arrival_s,
            deadline_s: r.deadline_s,
            completion_s: None,
            gbits_by_deadline: 0.0,
        })
        .collect();
    (transfers, records)
}

/// Advances one transfer through the slot starting at `now`: `rate` is
/// what the network actually carries for it, `rate_alloc` the allocation
/// that rate was derived from. Books pro-rata bytes before the deadline
/// and, when the allocation covers the remaining volume, the completion
/// instant (folded into `makespan_s`). Returns the volume booked as
/// delivered this slot.
///
/// Completion keys off the *allocated* rate: a transfer whose allocation
/// covers its remaining volume finishes this slot, merely later when
/// impairment, a transition or a blackhole ate into the slot. Modeling
/// the under-delivered sliver this way avoids the unphysical geometric
/// tail a demand-capped allocator would otherwise produce.
pub fn deliver(
    t: &mut Transfer,
    rec: &mut CompletionRecord,
    rate_alloc: f64,
    rate: f64,
    now: f64,
    slot_len_s: f64,
    makespan_s: &mut f64,
) -> f64 {
    if let Some(d) = t.deadline_s {
        if d > now {
            let usable = (d - now).min(slot_len_s);
            let by_deadline = (rate * usable).min(t.remaining_gbits);
            rec.gbits_by_deadline = (rec.gbits_by_deadline + by_deadline).min(t.volume_gbits);
        }
    }
    if rate_alloc * slot_len_s + EPS >= t.remaining_gbits {
        let finish = now + t.remaining_gbits / rate;
        let booked = t.remaining_gbits;
        t.remaining_gbits = 0.0;
        rec.completion_s = Some(finish);
        *makespan_s = makespan_s.max(finish);
        booked
    } else {
        let vol = rate * slot_len_s;
        t.remaining_gbits -= vol;
        vol
    }
}

/// Starvation bookkeeping, the §3.2 guard's input: every arrived,
/// unfinished transfer that got no rate this slot ages by one starved
/// slot, and a served one resets. Returns how many starved this slot.
pub fn book_starvation(transfers: &mut [Transfer], got_rate: &[bool], now: f64) -> usize {
    let mut starved = 0usize;
    for (i, t) in transfers.iter_mut().enumerate() {
        if t.arrival_s <= now + EPS && !t.is_complete() {
            if got_rate[i] {
                t.starved_slots = 0;
            } else {
                t.starved_slots += 1;
                starved += 1;
            }
        }
    }
    starved
}

/// The tier-4 feed for one slot: one sample per allocation, in
/// allocation order (the order the chaos runner books its Gb ledger in),
/// from `(transfer, full rate, live rate)`, then one queued sample per
/// active transfer without an allocation.
pub fn why_samples(
    rates: impl IntoIterator<Item = (usize, f64, f64)>,
    active: &[Transfer],
    delivered: &[f64],
    transfers: &[Transfer],
    records: &[CompletionRecord],
) -> Vec<TransferSample> {
    let mut samples: Vec<TransferSample> = Vec::with_capacity(active.len());
    let mut sampled = vec![false; transfers.len()];
    for (id, full_rate_gbps, live_rate_gbps) in rates {
        sampled[id] = true;
        samples.push(TransferSample {
            id,
            full_rate_gbps,
            live_rate_gbps,
            delivered_gbits: delivered[id],
            remaining_gbits: transfers[id].remaining_gbits,
            completion_s: records[id].completion_s,
            queued: full_rate_gbps <= EPS,
        });
    }
    for t in active {
        if !sampled[t.id] {
            samples.push(TransferSample {
                id: t.id,
                full_rate_gbps: 0.0,
                live_rate_gbps: 0.0,
                delivered_gbits: 0.0,
                remaining_gbits: transfers[t.id].remaining_gbits,
                completion_s: records[t.id].completion_s,
                queued: true,
            });
        }
    }
    samples
}

/// One [`TransferSlotRow`] per active transfer, for the scope's transfer
/// tracker: allocated rate, volume delivered this slot (attributed per
/// path pro-rata by path rate), post-slot remaining volume, queue
/// position for unserved transfers, and the completion instant when the
/// transfer finished this slot. Shared with the chaos loop, which feeds
/// its achieved (post-fault) plan instead of the target plan.
pub fn build_scope_rows(
    active: &[Transfer],
    plan: &SlotPlan,
    transfers: &[Transfer],
    records: &[CompletionRecord],
    delivered: &[f64],
) -> Vec<TransferSlotRow> {
    let mut rows = Vec::with_capacity(active.len());
    let mut queue_pos = 0usize;
    for a in active {
        let id = a.id;
        let alloc = plan.allocations.iter().find(|al| al.transfer == id);
        let rate_gbps = alloc.map_or(0.0, |al| al.total_rate());
        let delivered_gbits = delivered.get(id).copied().unwrap_or(0.0);
        let served = rate_gbps > EPS;
        let paths = match alloc {
            Some(al) if served && delivered_gbits > 0.0 => al
                .paths
                .iter()
                .filter(|(_, r)| *r > EPS)
                .map(|(p, r)| (path_label(p), delivered_gbits * r / rate_gbps))
                .collect(),
            _ => Vec::new(),
        };
        rows.push(TransferSlotRow {
            id,
            rate_gbps,
            delivered_gbits,
            remaining_gbits: transfers[id].remaining_gbits,
            queue_pos: if served {
                None
            } else {
                queue_pos += 1;
                Some(queue_pos - 1)
            },
            completion_s: records[id].completion_s,
            paths,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_core::{default_topology, OwanConfig, OwanEngine};
    use owan_optical::OpticalParams;

    fn plant() -> FiberPlant {
        let params = OpticalParams {
            wavelength_capacity_gbps: 10.0,
            wavelengths_per_fiber: 8,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for i in 0..4 {
            p.add_site(&format!("S{i}"), 2, 1);
        }
        for i in 0..4 {
            p.add_fiber(i, (i + 1) % 4, 300.0);
        }
        p
    }

    fn requests() -> Vec<TransferRequest> {
        vec![
            TransferRequest {
                src: 0,
                dst: 1,
                volume_gbits: 600.0,
                arrival_s: 0.0,
                deadline_s: None,
            },
            TransferRequest {
                src: 2,
                dst: 3,
                volume_gbits: 300.0,
                arrival_s: 0.0,
                deadline_s: None,
            },
            TransferRequest {
                src: 1,
                dst: 2,
                volume_gbits: 100.0,
                arrival_s: 400.0,
                deadline_s: None,
            },
        ]
    }

    #[test]
    fn owan_drains_workload() {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        let res = simulate(&p, &requests(), &mut e, &cfg);
        assert!(res.all_completed(), "{res:?}");
        for c in &res.completions {
            let ct = c.completion_time_s().unwrap();
            assert!(ct > 0.0);
            assert!(c.completion_s.unwrap() >= c.arrival_s);
        }
        assert!(res.makespan_s > 0.0);
    }

    #[test]
    fn late_arrival_not_served_early() {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        let res = simulate(&p, &requests(), &mut e, &cfg);
        let late = &res.completions[2];
        assert!(late.completion_s.unwrap() >= 400.0);
    }

    #[test]
    fn demand_limited_transfer_finishes_in_one_slot() {
        // 50 Gb over a 100 s slot: the allocator hands it exactly its
        // demand rate (0.5 Gbps), so it completes precisely at the slot
        // boundary — never later.
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let reqs = vec![TransferRequest {
            src: 0,
            dst: 1,
            volume_gbits: 50.0,
            arrival_s: 0.0,
            deadline_s: None,
        }];
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        let res = simulate(&p, &reqs, &mut e, &cfg);
        let ct = res.completions[0].completion_time_s().unwrap();
        assert!((ct - 100.0).abs() < 1e-6, "got {ct}");
    }

    #[test]
    fn impaired_final_sliver_finishes_late_not_never() {
        // With rate efficiency 0.9, the same transfer completes at
        // 100 / 0.9 ≈ 111 s instead of iterating an asymptotic tail.
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let reqs = vec![TransferRequest {
            src: 0,
            dst: 1,
            volume_gbits: 50.0,
            arrival_s: 0.0,
            deadline_s: None,
        }];
        let cfg = SimConfig {
            slot_len_s: 100.0,
            rate_efficiency: 0.9,
            ..Default::default()
        };
        let res = simulate(&p, &reqs, &mut e, &cfg);
        let ct = res.completions[0].completion_time_s().unwrap();
        assert!((ct - 100.0 / 0.9).abs() < 1e-6, "got {ct}");
    }

    #[test]
    fn rate_efficiency_slows_completion() {
        let p = plant();
        let run = |eff: f64| {
            let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
            let cfg = SimConfig {
                slot_len_s: 100.0,
                rate_efficiency: eff,
                ..Default::default()
            };
            simulate(&p, &requests(), &mut e, &cfg)
        };
        let ideal = run(1.0);
        let impaired = run(0.9);
        let avg = |r: &SimResult| {
            r.completions
                .iter()
                .filter_map(|c| c.completion_time_s())
                .sum::<f64>()
                / r.completions.len() as f64
        };
        assert!(
            avg(&impaired) >= avg(&ideal),
            "impairment cannot speed things up"
        );
    }

    #[test]
    fn deadline_bookkeeping() {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let reqs = vec![
            // Easily met: 100 Gb, deadline after 200 s at >= 10 Gbps.
            TransferRequest {
                src: 0,
                dst: 1,
                volume_gbits: 100.0,
                arrival_s: 0.0,
                deadline_s: Some(200.0),
            },
            // Impossible: 10 000 Gb in 100 s.
            TransferRequest {
                src: 2,
                dst: 3,
                volume_gbits: 10_000.0,
                arrival_s: 0.0,
                deadline_s: Some(100.0),
            },
        ];
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        let res = simulate(&p, &reqs, &mut e, &cfg);
        assert!(res.completions[0].met_deadline());
        assert!(!res.completions[1].met_deadline());
        // Partial bytes before the deadline were still delivered.
        assert!(res.completions[1].gbits_by_deadline > 0.0);
        assert!(res.completions[1].gbits_by_deadline < 10_000.0);
    }

    #[test]
    fn empty_workload() {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let res = simulate(&p, &[], &mut e, &SimConfig::default());
        assert_eq!(res.slots, 1);
        assert!(res.completions.is_empty());
    }

    #[test]
    fn feasibility_checker_catches_overload() {
        use owan_core::{Allocation, SlotPlan, Topology};
        let mut topo = Topology::empty(2);
        topo.add_links(0, 1, 1);
        let plan = SlotPlan {
            topology: topo,
            allocations: vec![Allocation {
                transfer: 0,
                paths: vec![(vec![0, 1], 25.0)],
            }],
            throughput_gbps: 25.0,
        };
        assert!(plan_is_feasible(&plan, 10.0).is_err());
        assert!(plan_is_feasible(&plan, 30.0).is_ok());
    }
}
