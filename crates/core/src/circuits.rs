//! Building optical circuits for a desired network-layer topology —
//! Algorithm 3, lines 2–14 ("build optical circuits for each link").
//!
//! For every desired link `(u, v)` with multiplicity `m`, the builder asks
//! the regenerator graph for candidate relay paths in increasing weight
//! order and tries to provision each as an optical circuit until `m`
//! circuits exist or the candidates are exhausted. If fewer than `m` can be
//! built (no wavelengths, no regenerators, reach violations), the achieved
//! topology records the smaller multiplicity — "If there are not enough
//! possible optical circuits to satisfy all the desired capacity, we have
//! to decrease the link capacity" (lines 13–14).

use crate::cache::{EnergyCache, EnergyCacheStats, FiberSet, PlantCache};
use crate::regen::RegenGraph;
use crate::telemetry::CoreTelemetry;
use crate::topology::Topology;
use owan_optical::{Circuit, CircuitId, FiberPlant, OccupancyShadow, OpticalState, SiteId};

/// Per-pair probe unions of a build: for each desired pair, every fiber
/// any relay candidate its provisioning attempts *tried* could read or
/// write. Recorded by the cached and delta builders; the naive builder
/// leaves it empty.
///
/// A later delta rebuild resuming from this build uses the log as the
/// fiber half of its **dirty-set screen**: a pair whose recorded probe
/// union avoids every diverged fiber (and whose relay domain avoids every
/// diverged regenerator count) provably reproduces its previous circuits.
#[derive(Debug, Clone, Default)]
pub struct ProbeLog(Vec<((usize, usize), FiberSet)>);

impl ProbeLog {
    fn get(&self, u: usize, v: usize) -> Option<&FiberSet> {
        self.0
            .iter()
            .find(|&&((a, b), _)| (a, b) == (u, v))
            .map(|(_, p)| p)
    }

    fn push(&mut self, u: usize, v: usize, probe: FiberSet) {
        self.0.push(((u, v), probe));
    }
}

/// The log is derived data — two builds with equal circuits have equal
/// probe unions wherever both recorded them — so it is excluded from
/// equality: the naive builder records nothing, and the structural
/// identity the debug assertions check is over achieved topology, optical
/// state, and circuits.
impl PartialEq for ProbeLog {
    fn eq(&self, _: &ProbeLog) -> bool {
        true
    }
}

/// Result of realizing a desired topology in the optical layer.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltTopology {
    /// The topology actually achieved (multiplicities possibly reduced).
    pub achieved: Topology,
    /// The optical state with all circuits provisioned.
    pub optical: OpticalState,
    /// Circuit ids per link, aligned with `achieved.links()` order.
    pub circuits: Vec<((usize, usize), Vec<CircuitId>)>,
    /// Probe-set unions per desired pair (see [`ProbeLog`]).
    pub pair_probes: ProbeLog,
}

impl BuiltTopology {
    /// Total circuits provisioned.
    pub fn circuit_count(&self) -> usize {
        self.circuits.iter().map(|(_, c)| c.len()).sum()
    }
}

/// Configuration of the circuit builder.
#[derive(Debug, Clone, Copy)]
pub struct CircuitBuildConfig {
    /// Candidate relay paths tried per circuit (Yen's k on the transformed
    /// regenerator graph).
    pub relay_candidates: usize,
}

impl Default for CircuitBuildConfig {
    fn default() -> Self {
        CircuitBuildConfig {
            relay_candidates: 4,
        }
    }
}

/// Provisions circuits for every link of `desired`, in deterministic link
/// order, against a fresh optical state.
///
/// `fiber_dist` is the plant's all-pairs fiber distance matrix (shared
/// across calls for speed; see [`RegenGraph::build`]).
pub fn build_topology(
    plant: &FiberPlant,
    desired: &Topology,
    fiber_dist: &[Vec<f64>],
    config: &CircuitBuildConfig,
) -> BuiltTopology {
    build_topology_observed(
        plant,
        desired,
        fiber_dist,
        config,
        &CoreTelemetry::disabled(),
    )
}

/// [`build_topology`] with telemetry: counts circuits built, failed
/// provisioning attempts, regenerators consumed, and regenerator-graph
/// constructions (the shortest-path workhorse). The built result is
/// identical to the unobserved call.
pub fn build_topology_observed(
    plant: &FiberPlant,
    desired: &Topology,
    fiber_dist: &[Vec<f64>],
    config: &CircuitBuildConfig,
    telemetry: &CoreTelemetry,
) -> BuiltTopology {
    let mut optical = OpticalState::new(plant);
    let mut achieved = Topology::empty(desired.site_count());
    let mut circuits = Vec::new();

    for (u, v, m) in desired.links() {
        let mut ids = Vec::new();
        for _ in 0..m {
            // The regenerator graph changes as regenerators are consumed,
            // so rebuild it per circuit.
            let rg = RegenGraph::build(plant, &optical, fiber_dist, u, v);
            telemetry.shortest_path_calls.incr();
            let mut provisioned = false;
            for relay in rg.relay_candidates(config.relay_candidates) {
                match optical.provision(plant, &relay) {
                    Ok(id) => {
                        telemetry.circuits_built.incr();
                        telemetry
                            .regens_consumed
                            .add(optical.circuit(id).map_or(0, |c| c.regen_sites.len()) as u64);
                        ids.push(id);
                        provisioned = true;
                        break;
                    }
                    Err(_) => telemetry.wavelength_failures.incr(),
                }
            }
            if !provisioned {
                break; // reduce this link's capacity (Alg 3 lines 13-14)
            }
        }
        if !ids.is_empty() {
            achieved.add_links(u, v, ids.len() as u32);
            circuits.push(((u, v), ids));
        }
    }

    BuiltTopology {
        achieved,
        optical,
        circuits,
        pair_probes: ProbeLog::default(),
    }
}

/// Adds every fiber `c` traverses to `set`.
fn add_circuit_fibers(c: &Circuit, set: &mut FiberSet) {
    for seg in &c.segments {
        for &f in &seg.fibers {
            set.insert(f);
        }
    }
}

/// The lazy relay search both fast builders provision through.
///
/// A circuit request (Algorithm 3 lines 7–12) tries the relay candidates
/// in weight order until one provisions. The first candidate comes from
/// [`PlantCache::first_relay_path`] — one early-exit Dijkstra, no graph
/// build. Only when it fails to provision does `RegenGraph` + Yen run,
/// under the same free-regenerator vector, for the rest of the list.
/// Yen's first path is that same path and a failed `provision` commits
/// nothing, so the candidates tried, their order, and their outcomes are
/// exactly the naive builder's.
struct LazySearch<'a> {
    plant: &'a FiberPlant,
    fiber_dist: &'a [Vec<f64>],
    relay_k: usize,
    pc: &'a PlantCache,
    telemetry: &'a CoreTelemetry,
}

impl LazySearch<'_> {
    /// Provisions up to `m` circuits for `(u, v)`, stopping at the first
    /// request no candidate satisfies. Returns the new circuit ids and the
    /// pair's probe union: every fiber a tried candidate could read or
    /// write.
    fn provision_pair(
        &self,
        optical: &mut OpticalState,
        stats: &mut EnergyCacheStats,
        u: SiteId,
        v: SiteId,
        m: u32,
    ) -> (Vec<CircuitId>, FiberSet) {
        let mut ids = Vec::new();
        let mut probe = FiberSet::new(self.plant.fiber_count());
        for _ in 0..m {
            match self.provision_one(optical, stats, u, v, &mut probe) {
                Some(id) => ids.push(id),
                None => break, // reduce this link's capacity (Alg 3 lines 13-14)
            }
        }
        (ids, probe)
    }

    /// One circuit request; see the type docs.
    fn provision_one(
        &self,
        optical: &mut OpticalState,
        stats: &mut EnergyCacheStats,
        u: SiteId,
        v: SiteId,
        probe: &mut FiberSet,
    ) -> Option<CircuitId> {
        let first = if self.relay_k == 0 {
            None
        } else {
            self.pc.first_relay_path(optical.free_regen_vec(), u, v)
        };
        let Some(first) = first else {
            stats.relay_hits += 1;
            return None;
        };
        if let Some(id) = self.try_candidate(optical, &first, probe) {
            stats.relay_hits += 1;
            return Some(id);
        }
        if self.relay_k == 1 {
            stats.relay_hits += 1;
            return None;
        }
        stats.relay_misses += 1;
        self.telemetry.shortest_path_calls.incr();
        let candidates = RegenGraph::build_with_free_regens(
            self.plant,
            optical.free_regen_vec(),
            self.fiber_dist,
            u,
            v,
        )
        .relay_candidates(self.relay_k);
        debug_assert_eq!(candidates.first(), Some(&first), "Yen's first path");
        candidates
            .iter()
            .skip(1)
            .find_map(|relay| self.try_candidate(optical, relay, probe))
    }

    /// Tries to provision one relay candidate, adding to `probe` every
    /// fiber the attempt can read or write: the circuit's own fibers on
    /// success, the shortest route of every relay window on failure.
    fn try_candidate(
        &self,
        optical: &mut OpticalState,
        relay: &[SiteId],
        probe: &mut FiberSet,
    ) -> Option<CircuitId> {
        match optical.provision(self.plant, relay) {
            Ok(id) => {
                let c = optical.circuit(id).expect("just provisioned");
                add_circuit_fibers(c, probe);
                self.telemetry.circuits_built.incr();
                self.telemetry
                    .regens_consumed
                    .add(c.regen_sites.len() as u64);
                Some(id)
            }
            Err(_) => {
                self.telemetry.wavelength_failures.incr();
                for w in relay.windows(2) {
                    let route = self.plant.shortest_fiber_route(w[0], w[1]);
                    for f in route.map(|(fibers, _, _)| fibers).unwrap_or_default() {
                        probe.insert(f);
                    }
                }
                None
            }
        }
    }
}

/// [`build_topology_observed`] through the lazy relay search: identical
/// construction order and identical results, but `RegenGraph::build` + Yen
/// run only for the requests whose first relay path fails to provision.
/// `telemetry.shortest_path_calls` therefore counts only those fallback
/// graph builds.
pub fn build_topology_cached(
    plant: &FiberPlant,
    desired: &Topology,
    fiber_dist: &[Vec<f64>],
    config: &CircuitBuildConfig,
    cache: &mut EnergyCache,
    telemetry: &CoreTelemetry,
) -> BuiltTopology {
    cache.stats.full_builds += 1;
    let pc = cache.plant_precompute(plant, fiber_dist);
    let search = LazySearch {
        plant,
        fiber_dist,
        relay_k: config.relay_candidates,
        pc: &pc,
        telemetry,
    };
    let mut optical = OpticalState::new(plant);
    let mut achieved = Topology::empty(desired.site_count());
    let mut circuits = Vec::new();
    let mut pair_probes = ProbeLog::default();

    for (u, v, m) in desired.links() {
        let (ids, probe) = search.provision_pair(&mut optical, &mut cache.stats, u, v, m);
        // Recorded even for pairs that built nothing: the failed attempt
        // still tried candidates, and a future delta's screen replays
        // exactly that attempt.
        pair_probes.push(u, v, probe);
        if !ids.is_empty() {
            achieved.add_links(u, v, ids.len() as u32);
            circuits.push(((u, v), ids));
        }
    }

    let built = BuiltTopology {
        achieved,
        optical,
        circuits,
        pair_probes,
    };
    debug_assert_eq!(
        built,
        build_topology_observed(
            plant,
            desired,
            fiber_dist,
            config,
            &CoreTelemetry::disabled()
        ),
        "cached build must equal the naive build"
    );
    built
}

/// Maximum link-unit distance the delta rebuild accepts (Algorithm 2's
/// neighbor move changes at most four).
const MAX_DELTA_UNITS: u32 = 4;

/// Incremental circuit rebuild: provisions `desired` by resuming from the
/// retained build of `prev_desired` instead of rebuilding every link.
///
/// The builder walks every active pair in canonical order, maintaining the
/// build under construction plus a lightweight **occupancy shadow** — the
/// packed channel words and regenerator vector of a verbatim replay of the
/// previous build, without circuit storage. It tracks a **dirty set**: the
/// fibers on which the live build has provably diverged from the replay
/// (contributed only by pairs whose circuits actually changed). An
/// unchanged pair is reused verbatim — no path search, no provisioning —
/// when its **screen** clears:
///
/// 1. the live and replayed free-regenerator vectors agree on the pair's
///    relay domain — so every provisioning attempt of a fresh build would
///    search the same relay candidates in the same order as the previous
///    build did (equal projections stay equal attempt by attempt, since
///    both sides then consume the same regenerators); and
/// 2. channel occupancy agrees on the pair's recorded probe union (see
///    [`ProbeLog`]) — the fibers of every candidate the previous build
///    tried — so every tried candidate meets the same outcome and the
///    same first-fit channels. Clean fibers agree by construction, so only
///    the probe fibers in the dirty set are compared.
///
/// Every other pair — a failed screen, or a changed multiplicity — is
/// re-provisioned through the lazy relay search, exactly as
/// [`build_topology_cached`] would. Divergence degrades reuse pair by
/// pair; there is no all-or-nothing fallback.
///
/// Returns `None` only when the topologies differ by more than
/// [`MAX_DELTA_UNITS`] units (beyond the neighbor-move bound, resuming
/// saves little and the caller's full rebuild is simpler). The result is
/// *structurally identical* to a fresh build — ids, storage order, and
/// occupancy — and debug builds assert that equality on every call.
#[allow(clippy::too_many_arguments)]
pub fn try_build_topology_delta(
    plant: &FiberPlant,
    desired: &Topology,
    prev_desired: &Topology,
    prev_built: &BuiltTopology,
    fiber_dist: &[Vec<f64>],
    config: &CircuitBuildConfig,
    cache: &mut EnergyCache,
    telemetry: &CoreTelemetry,
) -> Option<BuiltTopology> {
    let n = desired.site_count();
    debug_assert_eq!(n, prev_desired.site_count());

    let mut delta_units = 0u32;
    for u in 0..n {
        for v in u + 1..n {
            delta_units += prev_desired
                .multiplicity(u, v)
                .abs_diff(desired.multiplicity(u, v));
        }
    }
    if delta_units > MAX_DELTA_UNITS {
        cache.stats.delta_fallbacks += 1;
        return None;
    }
    if delta_units == 0 {
        cache.stats.delta_builds += 1;
        return Some(prev_built.clone());
    }

    let prev_ids = |u: usize, v: usize| -> &[CircuitId] {
        prev_built
            .circuits
            .iter()
            .find(|&&((a, b), _)| (a, b) == (u, v))
            .map(|(_, ids)| ids.as_slice())
            .unwrap_or(&[])
    };

    let pc = cache.plant_precompute(plant, fiber_dist);
    let search = LazySearch {
        plant,
        fiber_dist,
        relay_k: config.relay_candidates,
        pc: &pc,
        telemetry,
    };
    let mut optical = OpticalState::new(plant);
    let mut replay = OccupancyShadow::new(plant);
    let mut achieved = Topology::empty(n);
    let mut circuits = Vec::new();
    let mut pair_probes = ProbeLog::default();
    let mut reused = 0u64;
    let mut rebuilt = 0u64;

    // Dirty set: a conservative superset of the fibers where the live
    // build has diverged from the replay so far. A rebuilt pair whose new
    // circuits differ from its previous ones contributes the fibers of
    // *both* generations; everything else (reused pairs, and rebuilds
    // that reproduced their circuits verbatim) contributes nothing,
    // because identical circuits installed on both sides leave occupancy
    // words and free-regenerator counts equal.
    let mut dirty_fibers = FiberSet::new(plant.fiber_count());
    let mut any_dirty = false;

    for u in 0..n {
        for v in u + 1..n {
            let m_prev = prev_desired.multiplicity(u, v);
            let m_new = desired.multiplicity(u, v);
            if m_prev == 0 && m_new == 0 {
                continue;
            }
            let ids = prev_ids(u, v);

            // The screen (see the function docs): unchanged multiplicity,
            // equal domain projections, equal occupancy on probe ∩ dirty.
            let domain_equal = || {
                let (lv, rv) = (optical.free_regen_vec(), replay.free_regen_vec());
                pc.domain(u, v).iter().all(|&s| lv[s] == rv[s])
            };
            let screened = prev_built.pair_probes.get(u, v).filter(|prev_probe| {
                m_prev == m_new
                    && (!any_dirty || domain_equal())
                    && prev_probe
                        .iter_common(&dirty_fibers)
                        .all(|f| optical.occupancy_words(f) == replay.occupancy_words(f))
            });
            if let Some(prev_probe) = screened {
                reused += 1;
                let mut pair_ids = Vec::new();
                for &id in ids {
                    let c = prev_built.optical.circuit(id).expect("live circuit");
                    replay.install(c);
                    pair_ids.push(optical.install(c.clone()));
                }
                pair_probes.push(u, v, prev_probe.clone());
                if !pair_ids.is_empty() {
                    achieved.add_links(u, v, pair_ids.len() as u32);
                    circuits.push(((u, v), pair_ids));
                }
                continue;
            }

            // Keep the replay in step regardless of how this pair is built.
            for &id in ids {
                replay.install(prev_built.optical.circuit(id).expect("live circuit"));
            }

            // Re-provision this pair exactly as a fresh cached build would.
            if m_new == 0 {
                // The previous circuits vanish from the live build: their
                // channels and regenerators now differ from the replay.
                for &id in ids {
                    let c = prev_built.optical.circuit(id).expect("live circuit");
                    add_circuit_fibers(c, &mut dirty_fibers);
                    any_dirty = true;
                }
                continue;
            }
            rebuilt += 1;
            let (pair_ids, probe) =
                search.provision_pair(&mut optical, &mut cache.stats, u, v, m_new);
            pair_probes.push(u, v, probe);

            // A rebuild that reproduced the previous circuits verbatim
            // (the screen merely failed to *prove* it would) leaves live
            // and replay identical on every fiber and site it touched — no
            // dirt, so the screen stays sharp for the pairs after it.
            let identical = pair_ids.len() == ids.len()
                && pair_ids
                    .iter()
                    .zip(ids)
                    .all(|(&nid, &oid)| optical.circuit(nid) == prev_built.optical.circuit(oid));
            if !identical {
                for &id in ids {
                    let c = prev_built.optical.circuit(id).expect("live circuit");
                    add_circuit_fibers(c, &mut dirty_fibers);
                }
                for &id in &pair_ids {
                    let c = optical.circuit(id).expect("just provisioned");
                    add_circuit_fibers(c, &mut dirty_fibers);
                }
                any_dirty = true;
            }

            if !pair_ids.is_empty() {
                achieved.add_links(u, v, pair_ids.len() as u32);
                circuits.push(((u, v), pair_ids));
            }
        }
    }

    cache.stats.delta_builds += 1;
    cache.stats.delta_pairs_reused += reused;
    cache.stats.delta_pairs_rebuilt += rebuilt;

    let built = BuiltTopology {
        achieved,
        optical,
        circuits,
        pair_probes,
    };
    debug_assert_eq!(
        built,
        build_topology_observed(
            plant,
            desired,
            fiber_dist,
            config,
            &CoreTelemetry::disabled()
        ),
        "delta rebuild must equal the naive build"
    );
    Some(built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    /// Four sites on a ring, 300 km fibers; every site has a router.
    fn ring_plant(wavelengths: u32, regens: u32, reach: f64) -> FiberPlant {
        let params = OpticalParams {
            wavelengths_per_fiber: wavelengths,
            optical_reach_km: reach,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for i in 0..4 {
            p.add_site(&format!("S{i}"), 4, regens);
        }
        for i in 0..4 {
            p.add_fiber(i, (i + 1) % 4, 300.0);
        }
        p
    }

    #[test]
    fn simple_topology_fully_built() {
        let p = ring_plant(8, 2, 2_000.0);
        let mut desired = Topology::empty(4);
        desired.add_links(0, 1, 2);
        desired.add_links(2, 3, 1);
        let fd = p.fiber_distance_matrix();
        let built = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        assert_eq!(built.achieved, desired);
        assert_eq!(built.circuit_count(), 3);
        built.optical.check_invariants(&p).unwrap();
    }

    #[test]
    fn capacity_reduced_when_wavelengths_run_out() {
        // Only 1 wavelength per fiber: a 0-1 link of multiplicity 3 cannot
        // be satisfied; adjacent fibers allow alternate (longer) routes
        // around the ring, so 2 circuits are achievable (direct + the long
        // way), but not 3.
        let p = ring_plant(1, 4, 2_000.0);
        let mut desired = Topology::empty(4);
        desired.add_links(0, 1, 3);
        let fd = p.fiber_distance_matrix();
        let built = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        assert!(built.achieved.multiplicity(0, 1) < 3);
        assert!(built.achieved.multiplicity(0, 1) >= 1);
        built.optical.check_invariants(&p).unwrap();
    }

    #[test]
    fn long_links_use_regenerators() {
        // Reach 350 km: the 2-hop route 0-1-2 (600 km) needs a regenerator
        // at site 1 (or 3).
        let p = ring_plant(8, 1, 350.0);
        let mut desired = Topology::empty(4);
        desired.add_links(0, 2, 1);
        let fd = p.fiber_distance_matrix();
        let built = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        assert_eq!(built.achieved.multiplicity(0, 2), 1);
        let (_, ids) = &built.circuits[0];
        let c = built.optical.circuit(ids[0]).unwrap();
        assert_eq!(c.regen_sites.len(), 1);
    }

    #[test]
    fn no_regenerators_drops_unreachable_link() {
        let p = ring_plant(8, 0, 350.0);
        let mut desired = Topology::empty(4);
        desired.add_links(0, 2, 1); // 600 km, impossible without regen
        desired.add_links(0, 1, 1); // 300 km, fine
        let fd = p.fiber_distance_matrix();
        let built = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        assert_eq!(built.achieved.multiplicity(0, 2), 0);
        assert_eq!(built.achieved.multiplicity(0, 1), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = ring_plant(2, 1, 650.0);
        let mut desired = Topology::empty(4);
        desired.add_links(0, 1, 2);
        desired.add_links(1, 2, 2);
        desired.add_links(0, 2, 1);
        let fd = p.fiber_distance_matrix();
        let a = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        let b = build_topology(&p, &desired, &fd, &CircuitBuildConfig::default());
        assert_eq!(a.achieved, b.achieved);
        assert_eq!(a.circuit_count(), b.circuit_count());
    }
}
