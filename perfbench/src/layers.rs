//! Isolated layer replays for the traced run. Each captured slot is fed
//! back through the public function of every layer it used, inside a
//! span of that layer, and each replay must reproduce the work the slot
//! loop did — the same plan, the same circuits, the same schedule. Any
//! difference rejects the per-layer numbers.

use crate::trace::Tracer;
use crate::workloads::{op_fault_model, AuditCapture, Capture, Instance, OwanPre, Pass, SLOT_S};
use owan_chaos::ChaosConfig;
use owan_core::{
    anneal_with_cache, assign_rates, build_topology, plant_fingerprint, repair_spare_ports,
    CoreTelemetry, EnergyContext, PlantCache, Profiler, RegenGraph, SlotPlan,
};
use owan_optical::OpticalState;
use owan_te::FixedContext;
use owan_update::{execute_plan, plan_consistent, NetworkDelta, UpdateParams};
use std::sync::Arc;

/// Summed replay time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timed {
    /// Nanoseconds, scaled for machine speed (see `crate::speed`).
    pub ns: f64,
    /// Calls.
    pub calls: u64,
}

impl Timed {
    fn add(&mut self, ns: u64, scale: f64) {
        self.ns += ns as f64 * scale;
        self.calls += 1;
    }

    /// Mean milliseconds per call; 0 for a layer never called.
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64 / 1e6
        }
    }
}

/// What the replays measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replays {
    /// `anneal_with_cache` per Owan slot.
    pub anneal: Timed,
    /// `build_topology` per Owan slot.
    pub circuits: Timed,
    /// `RegenGraph::build_with_free_regens` per linked pair.
    pub regen: Timed,
    /// `relay_candidates_with_costs` (Yen) per linked pair.
    pub yen: Timed,
    /// `OpticalState::provision` per circuit.
    pub provision: Timed,
    /// `assign_rates` per Owan slot.
    pub rates: Timed,
    /// `NetworkDelta::from_plans` + `plan_consistent` per slot transition.
    pub update: Timed,
    /// `execute_plan` per audited chaos transition.
    pub exec: Timed,
    /// `FixedContext::build_mcf` per LP slot.
    pub mcf: Timed,
    /// `McfProblem::max_throughput` per LP slot.
    pub lp: Timed,
    /// Scheduled update operations over all transitions.
    pub update_ops: u64,
    /// Machine-speed factor measured just before the slot being replayed.
    pub scale: f64,
}

/// Replays every captured slot of one traced pass under `tracer`.
pub fn replay(
    inst: &Instance,
    pass: &Pass,
    tracer: &Tracer,
    out: &mut Replays,
) -> Result<(), String> {
    let root = tracer.open("bench.replay", None);
    let result = replay_inner(inst, pass, tracer, out);
    tracer.close(root);
    result
}

fn replay_inner(
    inst: &Instance,
    pass: &Pass,
    tracer: &Tracer,
    out: &mut Replays,
) -> Result<(), String> {
    let caps = &pass.log.captures;
    let mut lp_ctx: Option<FixedContext> = None;
    for (i, cap) in caps.iter().enumerate() {
        out.scale = crate::speed::current_factor();
        if let Some(pre) = &cap.owan {
            replay_owan(cap, pre, tracer, out)?;
        } else {
            let theta = cap.plant.params().wavelength_capacity_gbps;
            let ctx = lp_ctx.get_or_insert_with(|| {
                FixedContext::new(
                    inst.network.static_topology.clone(),
                    theta,
                    owan_sim::RunnerConfig::default().tunnels_k,
                )
            });
            let ((mcf, _tunnels), ns) = tracer.span("te", Some(cap.slot), || {
                ctx.build_mcf(&cap.transfers, SLOT_S)
            });
            out.mcf.add(ns, out.scale);
            let (_, ns) = tracer.span("solver", Some(cap.slot), || mcf.max_throughput());
            out.lp.add(ns, out.scale);
        }
        if pass.audits.is_empty() && i > 0 {
            replay_update(&caps[i - 1].plan, cap, None, tracer, out)?;
        }
    }
    if !pass.audits.is_empty() {
        if pass.audits.len() != caps.len() {
            return Err(format!(
                "{} audited slots but {} planned slots",
                pass.audits.len(),
                caps.len()
            ));
        }
        let op_faults = op_fault_model(inst.seed);
        let retry = ChaosConfig::default().retry;
        let (mut retries, mut aborts) = (0, 0);
        for (i, audit) in pass.audits.iter().enumerate() {
            let Some((delta, update)) = &audit.update else {
                continue;
            };
            out.scale = crate::speed::current_factor();
            replay_update(&caps[i - 1].plan, &caps[i], Some(audit), tracer, out)?;
            let mut inject =
                |op: usize, attempt: u32| op_faults.fault(audit.runner_slot, op, attempt);
            let (report, ns) = tracer.span("update.exec", Some(caps[i].slot), || {
                execute_plan(delta, update, &retry, &mut inject)
            });
            out.exec.add(ns, out.scale);
            retries += report.retries;
            aborts += report.aborted;
        }
        let stats = pass.outcome.chaos.unwrap_or_default();
        if (retries, aborts) != (stats.op_retries, stats.op_aborts) {
            return Err(format!(
                "replayed executions retried {retries} / aborted {aborts} ops, the runner {} / {}",
                stats.op_retries, stats.op_aborts
            ));
        }
    }
    Ok(())
}

/// Re-plans the update from `prev` into `cap.plan`. Under chaos the
/// runner's delta starts from the achieved (post-fault) state, so the
/// schedule is re-planned from the audited delta and must equal the
/// runner's; `from_plans` on the targeted plans stands in for the
/// runner's own delta construction.
fn replay_update(
    prev: &SlotPlan,
    cap: &Capture,
    audit: Option<&AuditCapture>,
    tracer: &Tracer,
    out: &mut Replays,
) -> Result<(), String> {
    let params = audit.map_or_else(
        || UpdateParams {
            theta_gbps: cap.plant.params().wavelength_capacity_gbps,
            circuit_time_s: cap.plant.params().circuit_reconfig_time_s,
            ..Default::default()
        },
        |a| a.params,
    );
    let w = cap.plant.params().wavelengths_per_fiber;
    let (plan, ns) = tracer.span("update", Some(cap.slot), || {
        let delta = NetworkDelta::from_plans(
            &prev.topology,
            &prev.allocations,
            &cap.plan.topology,
            &cap.plan.allocations,
            w,
        );
        match audit.and_then(|a| a.update.as_ref()) {
            Some((audited, _)) => plan_consistent(audited, &params),
            None => plan_consistent(&delta, &params),
        }
    });
    out.update.add(ns, out.scale);
    out.update_ops += plan.ops.len() as u64;
    if let Some((_, runner)) = audit.and_then(|a| a.update.as_ref()) {
        if plan.ops != runner.ops || plan.makespan_s != runner.makespan_s {
            return Err(format!(
                "slot {}: re-planned update differs from the runner's schedule",
                cap.slot
            ));
        }
    }
    Ok(())
}

fn replay_owan(
    cap: &Capture,
    pre: &OwanPre,
    tracer: &Tracer,
    out: &mut Replays,
) -> Result<(), String> {
    let slot = Some(cap.slot);
    let plant = &cap.plant;
    let fiber_dist = plant.fiber_distance_matrix();
    let mut start = pre.current.clone();
    repair_spare_ports(plant, &mut start, &cap.transfers, &fiber_dist);
    let ctx = EnergyContext {
        plant,
        fiber_dist: &fiber_dist,
        transfers: &cap.transfers,
        policy: pre.config.policy,
        slot_len_s: SLOT_S,
        circuit_config: pre.config.circuit,
        rate_config: pre.config.rate,
        prof: Profiler::disabled(),
    };
    // The engine's per-slot seed schedule (`OwanEngine::plan_slot`).
    let mut cfg = pre.config.anneal;
    cfg.seed = cfg
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(pre.calls);
    let mut cache = pre.cache.clone();
    if let Some(c) = cache.as_mut() {
        let pc = c
            .plant_cache_for(plant_fingerprint(plant))
            .unwrap_or_else(|| Arc::new(PlantCache::build(plant, &fiber_dist)));
        c.install_plant_cache(pc);
    }
    let (r, ns) = tracer.span("core.anneal", slot, || {
        anneal_with_cache(
            &ctx,
            &start,
            &cfg,
            cache.as_mut(),
            &CoreTelemetry::disabled(),
        )
    });
    out.anneal.add(ns, out.scale);
    let replayed = SlotPlan {
        topology: r.outcome.built.achieved.clone(),
        allocations: r.outcome.rates.allocations.clone(),
        throughput_gbps: r.outcome.rates.throughput_gbps,
    };
    if replayed != cap.plan {
        return Err(format!(
            "slot {}: anneal replay differs from the captured plan",
            cap.slot
        ));
    }

    let (built, ns) = tracer.span("core.circuits", slot, || {
        build_topology(plant, &r.topology, &fiber_dist, &pre.config.circuit)
    });
    out.circuits.add(ns, out.scale);
    if built.achieved != cap.plan.topology {
        return Err(format!(
            "slot {}: isolated circuit build differs from the captured topology",
            cap.slot
        ));
    }

    let pristine = OpticalState::new(plant);
    let k = pre.config.circuit.relay_candidates;
    for (u, v, _) in r.topology.links() {
        let (g, ns) = tracer.span("core.regen", slot, || {
            RegenGraph::build_with_free_regens(plant, pristine.free_regen_vec(), &fiber_dist, u, v)
        });
        out.regen.add(ns, out.scale);
        let (_, ns) = tracer.span("graph", slot, || g.relay_candidates_with_costs(k));
        out.yen.add(ns, out.scale);
    }

    let mut state = OpticalState::new(plant);
    for (_, circuit) in built.optical.circuits() {
        let mut relay = Vec::with_capacity(circuit.regen_sites.len() + 2);
        relay.push(circuit.src);
        relay.extend_from_slice(&circuit.regen_sites);
        relay.push(circuit.dst);
        let (id, ns) = tracer.span("optical", slot, || state.provision(plant, &relay));
        out.provision.add(ns, out.scale);
        let same = id.ok().and_then(|id| state.circuit(id)) == Some(circuit);
        if !same {
            return Err(format!(
                "slot {}: re-provisioning relay path {relay:?} gave a different circuit",
                cap.slot
            ));
        }
    }

    let theta = plant.params().wavelength_capacity_gbps;
    let (rates, ns) = tracer.span("core.rates", slot, || {
        assign_rates(
            &built.achieved,
            theta,
            &cap.transfers,
            pre.config.policy,
            SLOT_S,
            &pre.config.rate,
        )
    });
    out.rates.add(ns, out.scale);
    if rates.allocations != cap.plan.allocations {
        return Err(format!(
            "slot {}: isolated rate assignment differs from the captured allocations",
            cap.slot
        ));
    }
    Ok(())
}
