//! Failure handling (§3.4).
//!
//! "Link and switch failures are detected and sent to the controller. The
//! controller removes these links and switches from the physical network,
//! and recomputes the network state with the updated physical network."
//! Controller failure is handled by statelessness: "we only need to store
//! the physical network and the set of all transfers … when the controller
//! fails, we spawn a new instance, which starts to compute and reconfigure
//! the network state at the next time slot."
//!
//! [`degrade_plant`] produces the post-failure physical network;
//! [`simulate_with_failures`] drives an engine through a timeline of
//! failure events, presenting the degraded plant from each event's slot on;
//! [`simulate_with_restarts`] emulates the stateless controller failover by
//! swapping in a fresh engine at chosen slot boundaries. Richer fault
//! dynamics — repairs, detection delay, mid-slot blackholes, update-op
//! faults — live in the `owan-chaos` crate, which builds on the same
//! primitives.

use crate::probes::{AuditHook, Probes};
use crate::sim::{
    drive_slots, EngineSource, PlantProvider, SimConfig, SimResult, SingleEngine, StaticPlant,
};
use owan_core::{TrafficEngineer, TransferRequest};
use owan_optical::{FiberId, FiberPlant, SiteId};

const EPS: f64 = 1e-9;

/// A failure event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Failure {
    /// A fiber cut: the fiber disappears from the plant.
    FiberCut(FiberId),
    /// A site (router + ROADM) goes dark: its router ports drop to zero and
    /// all its fibers are removed.
    SiteDown(SiteId),
    /// Partial degradation: an amplifier fault shrinks the fiber's usable
    /// wavelengths to `usable` (a cap below the plant-wide φ). Multiple
    /// degradations of the same fiber compose by taking the minimum.
    AmpDegraded {
        /// Affected fiber.
        fiber: FiberId,
        /// Usable wavelengths remaining.
        usable: u32,
    },
}

/// A failure at a point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// When the failure occurs, seconds.
    pub time_s: f64,
    /// What fails.
    pub failure: Failure,
}

/// Rebuilds a plant with the given failures applied (fibers removed, dead
/// sites stripped of ports and regenerators, degraded fibers capped). Site
/// ids are preserved; fiber ids compact (see [`degrade_plant_mapped`] for
/// the id mapping).
pub fn degrade_plant(plant: &FiberPlant, failures: &[Failure]) -> FiberPlant {
    degrade_plant_mapped(plant, failures).0
}

/// [`degrade_plant`] plus the fiber-id mapping: `map[original_id]` is the
/// fiber's id in the degraded plant, or `None` if it was removed. Failure
/// fiber ids always refer to the plant passed in; callers tracking faults
/// across a degradation (e.g. mid-slot blackhole detection in `owan-chaos`)
/// use the map to translate.
pub fn degrade_plant_mapped(
    plant: &FiberPlant,
    failures: &[Failure],
) -> (FiberPlant, Vec<Option<FiberId>>) {
    let dead_site = |s: SiteId| {
        failures
            .iter()
            .any(|f| matches!(f, Failure::SiteDown(d) if *d == s))
    };
    let cut_fiber = |f: FiberId| {
        failures
            .iter()
            .any(|x| matches!(x, Failure::FiberCut(c) if *c == f))
    };
    // Minimum surviving-wavelength cap per fiber across amp faults, folded
    // with any cap already on the fiber (degrading a degraded plant must
    // never restore capacity).
    let amp_cap = |f: FiberId| {
        failures
            .iter()
            .filter_map(|x| match x {
                Failure::AmpDegraded { fiber, usable } if *fiber == f => Some(*usable),
                _ => None,
            })
            .chain(plant.fiber(f).lambda_cap)
            .min()
    };

    let mut out = FiberPlant::new(plant.params().clone());
    for s in 0..plant.site_count() {
        let site = plant.site(s);
        if dead_site(s) {
            out.add_site(&site.name, 0, 0);
        } else {
            out.add_site(&site.name, site.router_ports, site.regenerators);
        }
    }
    let mut map = vec![None; plant.fiber_count()];
    for (id, fiber) in plant.fibers().iter().enumerate() {
        if !cut_fiber(id) && !dead_site(fiber.a) && !dead_site(fiber.b) {
            let new_id = out.add_fiber(fiber.a, fiber.b, fiber.length_km);
            out.set_fiber_wavelength_cap(new_id, amp_cap(id));
            map[id] = Some(new_id);
        }
    }
    (out, map)
}

/// Folds a failure timeline into per-slot degraded plants.
pub(crate) struct FailureTimelinePlant<'a> {
    base: &'a FiberPlant,
    /// Events sorted by time.
    timeline: Vec<FailureEvent>,
    applied: usize,
    current: FiberPlant,
}

impl<'a> FailureTimelinePlant<'a> {
    pub(crate) fn new(base: &'a FiberPlant, events: &[FailureEvent]) -> Self {
        let mut timeline = events.to_vec();
        timeline.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
        FailureTimelinePlant {
            base,
            timeline,
            applied: 0,
            current: base.clone(),
        }
    }
}

impl PlantProvider for FailureTimelinePlant<'_> {
    fn base(&self) -> &FiberPlant {
        self.base
    }
    fn plant_at(&mut self, _slot: usize, now_s: f64) -> &FiberPlant {
        let due = self
            .timeline
            .iter()
            .take_while(|e| e.time_s <= now_s + EPS)
            .count();
        if due > self.applied {
            let active: Vec<Failure> = self.timeline[..due].iter().map(|e| e.failure).collect();
            self.current = degrade_plant(self.base, &active);
            self.applied = due;
        }
        &self.current
    }
}

/// Like [`crate::sim::simulate_probed`] but with a failure timeline: from
/// the slot containing each event onward, the engine sees the degraded
/// plant. Transfers whose endpoints died can never finish and are
/// reported unfinished. `audit`, when given, sees every planned slot with
/// the update into its plan (the oracle's differential replay hooks in
/// here); an `Err` stops the run with [`crate::PlanError::Audit`].
pub fn simulate_with_failures(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    engine: &mut dyn TrafficEngineer,
    config: &SimConfig,
    events: &[FailureEvent],
    probes: &Probes,
    audit: Option<&mut AuditHook>,
) -> SimResult {
    drive_slots(
        requests,
        &mut FailureTimelinePlant::new(plant, events),
        &mut SingleEngine(engine),
        config,
        None,
        probes,
        audit,
    )
}

/// Swaps in a fresh engine at each slot in `restart_slots` (§3.4 stateless
/// failover: a crashed controller's replacement recomputes from the stored
/// plant + transfer set, carrying no in-memory state across the crash).
struct RestartingEngines<'a> {
    factory: &'a mut dyn FnMut() -> Box<dyn TrafficEngineer>,
    /// Sorted restart boundaries.
    restart_slots: Vec<usize>,
    next_restart: usize,
    current: Box<dyn TrafficEngineer>,
}

impl<'a> RestartingEngines<'a> {
    fn new(factory: &'a mut dyn FnMut() -> Box<dyn TrafficEngineer>, restarts: &[usize]) -> Self {
        let mut restart_slots = restarts.to_vec();
        restart_slots.sort_unstable();
        restart_slots.dedup();
        let current = factory();
        RestartingEngines {
            factory,
            restart_slots,
            next_restart: 0,
            current,
        }
    }
}

impl EngineSource for RestartingEngines<'_> {
    fn engine_at(&mut self, slot: usize) -> &mut dyn TrafficEngineer {
        let mut restarted = false;
        while self.next_restart < self.restart_slots.len()
            && self.restart_slots[self.next_restart] <= slot
        {
            restarted = true;
            self.next_restart += 1;
        }
        if restarted {
            self.current = (self.factory)();
        }
        self.current.as_mut()
    }
}

/// Runs the workload with controller crashes at the given slot boundaries:
/// at each slot in `restart_slots`, the engine is discarded and `factory`
/// builds its stateless replacement. With an empty `restart_slots` this is
/// exactly [`crate::sim::simulate`].
pub fn simulate_with_restarts(
    plant: &FiberPlant,
    requests: &[TransferRequest],
    factory: &mut dyn FnMut() -> Box<dyn TrafficEngineer>,
    config: &SimConfig,
    restart_slots: &[usize],
) -> SimResult {
    let mut engines = RestartingEngines::new(factory, restart_slots);
    drive_slots(
        requests,
        &mut StaticPlant(plant),
        &mut engines,
        config,
        None,
        &Probes::off(),
        None,
    )
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

    #[test]
    fn degrade_removes_fibers_and_ports() {
        let p = plant();
        let d = degrade_plant(&p, &[Failure::FiberCut(0), Failure::SiteDown(3)]);
        assert_eq!(d.site_count(), 4);
        assert_eq!(d.router_ports(3), 0);
        // Fiber 0 cut, plus both fibers touching site 3 gone: 4 - 3 = 1.
        assert_eq!(d.fiber_count(), 1);
    }

    #[test]
    fn degrade_caps_wavelengths() {
        let p = plant();
        let d = degrade_plant(
            &p,
            &[Failure::AmpDegraded {
                fiber: 1,
                usable: 3,
            }],
        );
        assert_eq!(d.fiber_count(), 4, "degraded fiber survives");
        assert_eq!(d.usable_wavelengths(1), 3);
        assert_eq!(d.usable_wavelengths(0), 8);
        // Two degradations of the same fiber compose by minimum.
        let d2 = degrade_plant(
            &p,
            &[
                Failure::AmpDegraded {
                    fiber: 1,
                    usable: 3,
                },
                Failure::AmpDegraded {
                    fiber: 1,
                    usable: 5,
                },
            ],
        );
        assert_eq!(d2.usable_wavelengths(1), 3);
    }

    #[test]
    fn degrade_mapping_tracks_removals() {
        let p = plant();
        let (d, map) = degrade_plant_mapped(&p, &[Failure::FiberCut(1)]);
        assert_eq!(map, vec![Some(0), None, Some(1), Some(2)]);
        for (orig, new) in map.iter().enumerate() {
            if let Some(n) = new {
                assert_eq!(d.fiber(*n).a, p.fiber(orig).a);
                assert_eq!(d.fiber(*n).b, p.fiber(orig).b);
            }
        }
    }

    /// One 2 Tb transfer across the ring, slots of 100 s, under `events`.
    fn ring_run(events: &[FailureEvent], probes: &Probes) -> SimResult {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let reqs = [TransferRequest {
            src: 0,
            dst: 2,
            volume_gbits: 2_000.0,
            arrival_s: 0.0,
            deadline_s: None,
        }];
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        simulate_with_failures(&p, &reqs, &mut e, &cfg, events, probes, None)
    }

    #[test]
    fn owan_survives_fiber_cut() {
        let events = [FailureEvent {
            time_s: 150.0,
            failure: Failure::FiberCut(0),
        }];
        let res = ring_run(&events, &Probes::off());
        assert!(
            res.all_completed(),
            "transfer should reroute around the cut"
        );
    }

    #[test]
    fn owan_survives_amp_degradation() {
        let events = [FailureEvent {
            time_s: 150.0,
            failure: Failure::AmpDegraded {
                fiber: 0,
                usable: 1,
            },
        }];
        let res = ring_run(&events, &Probes::off());
        assert!(res.all_completed(), "{res:?}");
    }

    #[test]
    fn dead_destination_never_completes() {
        let p = plant();
        let mut e = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let reqs = vec![TransferRequest {
            src: 0,
            dst: 2,
            volume_gbits: 100_000.0,
            arrival_s: 0.0,
            deadline_s: None,
        }];
        let cfg = SimConfig {
            slot_len_s: 100.0,
            max_slots: 50,
            ..Default::default()
        };
        let events = [FailureEvent {
            time_s: 0.0,
            failure: Failure::SiteDown(2),
        }];
        let res = simulate_with_failures(&p, &reqs, &mut e, &cfg, &events, &Probes::off(), None);
        assert!(!res.all_completed());
        assert!(res.slots < 50, "simulation stops early instead of spinning");
    }

    #[test]
    fn failure_run_carries_telemetry() {
        let events = [FailureEvent {
            time_s: 150.0,
            failure: Failure::FiberCut(0),
        }];
        let probes = Probes {
            recorder: owan_obs::Recorder::enabled(),
            ..Probes::off()
        };
        let res = ring_run(&events, &probes);
        assert!(res.all_completed());
        let rows = res.telemetry.expect("observed run records telemetry");
        // One row per planned slot (the final admission-only slot plans
        // nothing and records no row).
        assert_eq!(rows.len(), res.throughput_series.len());
        assert!(!rows.is_empty());
        assert!(rows.iter().all(|r| r.active_transfers >= 1));
    }

    #[test]
    fn controller_failover_is_stateless() {
        // §3.4: a restarted controller resumes from the stored physical
        // network + transfer set. Run one engine for the whole workload
        // and a crash-and-restart run split at slot 3: the replacement
        // engine re-anneals from scratch, so individual plans may differ,
        // but every transfer still completes and the makespan stays in the
        // same ballpark (the restart costs at most a couple of slots of
        // re-convergence, not the workload).
        let p = plant();
        let reqs = vec![
            TransferRequest {
                src: 0,
                dst: 1,
                volume_gbits: 800.0,
                arrival_s: 0.0,
                deadline_s: None,
            },
            TransferRequest {
                src: 2,
                dst: 3,
                volume_gbits: 800.0,
                arrival_s: 0.0,
                deadline_s: None,
            },
        ];
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        let mut continuous = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let res = crate::sim::simulate(&p, &reqs, &mut continuous, &cfg);
        assert!(res.all_completed());

        let mut factory = || -> Box<dyn TrafficEngineer> {
            Box::new(OwanEngine::new(default_topology(&p), OwanConfig::default()))
        };
        let restarted = simulate_with_restarts(&p, &reqs, &mut factory, &cfg, &[3]);
        assert!(
            restarted.all_completed(),
            "crash-and-restart run must still drain: {restarted:?}"
        );
        // The restarted controller may need a little re-convergence, but a
        // stateless failover must not derail the run.
        assert!(
            restarted.makespan_s <= res.makespan_s + 2.0 * cfg.slot_len_s,
            "restart cost too high: {} vs {}",
            restarted.makespan_s,
            res.makespan_s
        );
    }

    #[test]
    fn restart_with_no_boundaries_matches_plain_run() {
        let p = plant();
        let reqs = vec![TransferRequest {
            src: 0,
            dst: 2,
            volume_gbits: 1_200.0,
            arrival_s: 0.0,
            deadline_s: None,
        }];
        let cfg = SimConfig {
            slot_len_s: 100.0,
            ..Default::default()
        };
        let mut plain_engine = OwanEngine::new(default_topology(&p), OwanConfig::default());
        let plain = crate::sim::simulate(&p, &reqs, &mut plain_engine, &cfg);
        let mut factory = || -> Box<dyn TrafficEngineer> {
            Box::new(OwanEngine::new(default_topology(&p), OwanConfig::default()))
        };
        let restarted = simulate_with_restarts(&p, &reqs, &mut factory, &cfg, &[]);
        assert_eq!(plain.completions, restarted.completions);
        assert_eq!(plain.makespan_s, restarted.makespan_s);
    }
}
