//! The annealing fast path: the plant-scoped lazy relay search and
//! run-scoped energy memoization.
//!
//! Every annealing iteration evaluates `ComputeEnergy` (Algorithm 3) on a
//! candidate topology, and the naive evaluation builds a
//! [`RegenGraph`](crate::regen::RegenGraph) and runs Yen for *every*
//! circuit it provisions — even though the plant is fixed for the whole
//! slot and the Metropolis walk revisits states.
//! The fast path removes that redundancy in two layers:
//!
//! 1. **Lazy relay search** (plant-scoped). Algorithm 3 tries a link's
//!    relay candidates in weight order until one provisions, and the
//!    first candidate almost always does. [`PlantCache::first_relay_path`]
//!    returns exactly Yen's first path from one early-exit Dijkstra over
//!    the implicit regenerator graph, reading a static within-reach table
//!    instead of building the graph; `RegenGraph` + Yen run only when
//!    that path fails to provision. The [`PlantCache`] also holds each
//!    pair's relay domain — the only sites whose free counts can
//!    influence the pair's search — which the delta rebuild's screen
//!    reads.
//! 2. **Outcome/rate memos** (run-scoped). Full [`EnergyOutcome`]s keyed
//!    by the canonical topology hash (revisited states cost a lookup +
//!    clone), plus a rate memo keyed by the *achieved* topology (distinct
//!    desired topologies frequently collapse to the same achieved one).
//!
//! Invalidation: layer 1 is valid as long as the plant content is
//! unchanged; [`EnergyCache::begin_run`] fingerprints the plant (sites,
//! ports, regenerators, fibers, lengths, usable wavelengths) and drops the
//! precompute when the fingerprint moves — e.g. when a chaos fault
//! degrades an amplifier and shrinks a fiber's usable band. Layer 2 is
//! only valid for one evaluation context (one transfer set, one slot
//! length) and is cleared on every `begin_run`.

use crate::energy::EnergyOutcome;
use crate::rates::RateOutcome;
use crate::topology::Topology;
use owan_optical::{FiberPlant, SiteId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Cap on memoized full outcomes per run (an outcome holds an optical
/// state; the cap bounds memory on long runs). Inserts stop at the cap —
/// deterministically, since the insert order is the search order.
const OUTCOME_CAP: usize = 4096;

/// Cap on memoized rate outcomes per run.
const RATE_CAP: usize = 8192;

/// Cap on the capacity-miss overflow key set (topology hashes remembered
/// after the outcome memo fills, so repeats attribute to `capacity`).
const OVERFLOW_CAP: usize = 4 * OUTCOME_CAP;

/// A small fiber-id bitset: the probe unions and dirty sets of the delta
/// rebuild.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FiberSet {
    words: Vec<u64>,
}

impl FiberSet {
    /// An empty set over `n_fibers` fiber ids.
    pub fn new(n_fibers: usize) -> Self {
        FiberSet {
            words: vec![0; n_fibers.div_ceil(64)],
        }
    }

    /// Inserts fiber `f`.
    pub fn insert(&mut self, f: usize) {
        self.words[f / 64] |= 1 << (f % 64);
    }

    /// Iterates the fiber ids present in *both* sets, in increasing order.
    pub fn iter_common<'a>(&'a self, other: &'a FiberSet) -> impl Iterator<Item = usize> + 'a {
        self.words
            .iter()
            .zip(&other.words)
            .enumerate()
            .flat_map(|(w, (&a, &b))| {
                let bits = a & b;
                (0..64).filter_map(move |bit| {
                    if bits & (1 << bit) != 0 {
                        Some(w * 64 + bit)
                    } else {
                        None
                    }
                })
            })
    }
}

/// Attributed cause of an evaluation-level cache miss. The
/// `anneal.cache_miss.<reason>` counters, one per variant, partition
/// `anneal.cache_miss` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MissReason {
    /// No cache attached at all (the naive reference path).
    Uncached,
    /// First sight: the topology was never evaluated this run.
    Cold,
    /// The outcome was computed before but the memo's capacity cap
    /// refused to store it.
    Capacity,
}

impl MissReason {
    /// Stable slug used in counter names and report tables.
    pub fn name(self) -> &'static str {
        match self {
            MissReason::Uncached => "uncached",
            MissReason::Cold => "cold",
            MissReason::Capacity => "capacity",
        }
    }

    /// The reasons a *cached* evaluation can miss for, in
    /// attribution-priority order (ties in dominance resolve to the
    /// earliest).
    pub const EVAL: [MissReason; 2] = [MissReason::Cold, MissReason::Capacity];
}

/// Cache effectiveness counters, exposed for tests and the bench pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCacheStats {
    /// Full-outcome memo hits (an evaluation answered without Algorithm 3).
    pub outcome_hits: u64,
    /// Full-outcome memo misses.
    pub outcome_misses: u64,
    /// Rate-memo hits (circuits rebuilt, rates answered from the memo).
    pub rate_hits: u64,
    /// Circuit requests settled without a `RegenGraph` build + Yen run:
    /// the first relay path provisioned, or there was none, or no other
    /// candidate was allowed.
    pub relay_hits: u64,
    /// Circuit requests whose first relay path failed to provision and
    /// that needed a `RegenGraph` build + Yen run for the other
    /// candidates.
    pub relay_misses: u64,
    /// Incremental (delta) circuit rebuilds performed.
    pub delta_builds: u64,
    /// Delta rebuilds refused outright (the desired topologies differ by
    /// more than the neighbor-move bound; a full rebuild follows).
    pub delta_fallbacks: u64,
    /// Pairs whose previous circuits delta rebuilds reused verbatim,
    /// cleared by the dirty-set screen (no path search, no provisioning).
    pub delta_pairs_reused: u64,
    /// Pairs re-provisioned from scratch inside delta rebuilds (the
    /// screen found a regenerator or occupancy divergence, or the pair's
    /// multiplicity changed).
    pub delta_pairs_rebuilt: u64,
    /// Full circuit rebuilds (initial evaluations and fallbacks).
    pub full_builds: u64,
    /// Plant-fingerprint flushes of the plant-scoped precompute.
    pub flushes: u64,
    /// Outcome-memo misses by attributed cause, indexed by position in
    /// [`MissReason::EVAL`]; the entries sum to `outcome_misses`.
    pub miss_by_reason: [u64; 2],
}

impl EnergyCacheStats {
    /// Field-wise sum, for aggregating per-chain caches into one report.
    pub fn merge(&mut self, other: &EnergyCacheStats) {
        self.outcome_hits += other.outcome_hits;
        self.outcome_misses += other.outcome_misses;
        self.rate_hits += other.rate_hits;
        self.relay_hits += other.relay_hits;
        self.relay_misses += other.relay_misses;
        self.delta_builds += other.delta_builds;
        self.delta_fallbacks += other.delta_fallbacks;
        self.delta_pairs_reused += other.delta_pairs_reused;
        self.delta_pairs_rebuilt += other.delta_pairs_rebuilt;
        self.full_builds += other.full_builds;
        self.flushes += other.flushes;
        for (a, b) in self.miss_by_reason.iter_mut().zip(&other.miss_by_reason) {
            *a += b;
        }
    }

    pub(crate) fn count_eval_miss(&mut self, reason: MissReason) {
        let idx = MissReason::EVAL
            .iter()
            .position(|&r| r == reason)
            .expect("cached evaluations never miss as uncached");
        self.miss_by_reason[idx] += 1;
    }

    /// Outcome-memo misses by attributed cause as `(slug, count)` pairs.
    pub fn miss_reasons(&self) -> [(&'static str, u64); 2] {
        std::array::from_fn(|i| (MissReason::EVAL[i].name(), self.miss_by_reason[i]))
    }

    /// The largest attributed evaluation-miss cause, if any miss was
    /// recorded (ties resolve to the attribution-priority order).
    pub fn dominant_miss_cause(&self) -> Option<(&'static str, u64)> {
        self.miss_reasons()
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .reduce(|best, x| if x.1 > best.1 { x } else { best })
    }
}

/// Content fingerprint of a plant: everything circuit construction can
/// observe — parameters, per-site ports/regenerators, per-fiber endpoints,
/// lengths, and usable wavelengths (which folds in degradation caps). Site
/// names are excluded: they cannot influence any build decision. FNV-1a
/// over the canonical field order.
pub fn plant_fingerprint(plant: &FiberPlant) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    let params = plant.params();
    mix(params.wavelength_capacity_gbps.to_bits());
    mix(params.wavelengths_per_fiber as u64);
    mix(params.optical_reach_km.to_bits());
    mix(plant.site_count() as u64);
    for s in plant.sites() {
        mix(s.router_ports as u64);
        mix(s.regenerators as u64);
    }
    mix(plant.fiber_count() as u64);
    for (f, fiber) in plant.fibers().iter().enumerate() {
        mix(fiber.a as u64);
        mix(fiber.b as u64);
        mix(fiber.length_km.to_bits());
        mix(plant.usable_wavelengths(f) as u64);
    }
    h
}

/// Plant-scoped, vector-independent precompute shared by every run and
/// every parallel chain's cache (`Arc`-shared, immutable once built):
///
/// - the **within-reach table**: `fiber_dist[x][y] ≤ reach`, the edge test
///   of every regenerator graph, which lets [`Self::first_relay_path`]
///   search the graph without building it;
/// - the per-pair **relay domains**: for a pair `(u, v)`, the sites
///   `s ∉ {u, v}` with regenerators that some within-reach walk from `u`
///   to `v` through regenerator-equipped interiors visits. Only those
///   sites can appear on *some* relay path under *some* free-regenerator
///   vector (`free ≤ total`, so the static walks over-cover every dynamic
///   one). A site outside the domain is never a node the pair's
///   Dijkstra/Yen run can put on a returned path, and node indexing is
///   monotone in site id, so its free count cannot influence the output:
///   two vectors with equal domain projections yield bit-identical
///   candidate lists.
///
/// Invalidation piggybacks on the plant fingerprint: a degradation that
/// moves the fingerprint (e.g. an amp fault shrinking a fiber's usable
/// band) drops the `Arc` and the next run rebuilds.
#[derive(Debug)]
pub struct PlantCache {
    sig: u64,
    n: usize,
    /// `within[x * n + y]`: `fiber_dist[x][y] ≤ reach`.
    within: Vec<bool>,
    /// Relay domain per unordered pair, indexed `min * n + max`.
    domains: Vec<Vec<SiteId>>,
}

impl PlantCache {
    /// Builds the precompute: the within-reach table, then one boolean
    /// Floyd–Warshall (`O(V^3)`) pivoting on regenerator-equipped sites
    /// over the reach graph, from which the per-pair domains are read.
    pub fn build(plant: &FiberPlant, fiber_dist: &[Vec<f64>]) -> Self {
        let n = plant.site_count();
        let reach = plant.params().optical_reach_km;
        let within: Vec<bool> = (0..n * n)
            .map(|i| fiber_dist[i / n][i % n] <= reach)
            .collect();
        // `walk[x * n + y]`: a within-reach walk from `x` to `y` exists
        // whose interior sites all have regenerators. Hops are tested in
        // both orientations, so a last-bit asymmetry in `fiber_dist` can
        // only widen a domain, never narrow it.
        let mut walk: Vec<bool> = (0..n * n)
            .map(|i| {
                let (x, y) = (i / n, i % n);
                x == y || within[i] || within[y * n + x]
            })
            .collect();
        for k in (0..n).filter(|&k| plant.site(k).regenerators > 0) {
            for i in 0..n {
                if walk[i * n + k] {
                    for j in 0..n {
                        walk[i * n + j] |= walk[k * n + j];
                    }
                }
            }
        }
        let mut domains = vec![Vec::new(); n * n];
        for u in 0..n {
            for v in u + 1..n {
                domains[u * n + v] = (0..n)
                    .filter(|&s| {
                        s != u
                            && s != v
                            && plant.site(s).regenerators > 0
                            && walk[u * n + s]
                            && walk[s * n + v]
                    })
                    .collect();
            }
        }
        PlantCache {
            sig: plant_fingerprint(plant),
            n,
            within,
            domains,
        }
    }

    /// Fingerprint of the plant this precompute was built from.
    pub fn fingerprint(&self) -> u64 {
        self.sig
    }

    /// The relay domain of pair `(u, v)`, in increasing site order.
    pub fn domain(&self, u: SiteId, v: SiteId) -> &[SiteId] {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        &self.domains[a * self.n + b]
    }

    /// The first relay path for a circuit from `u` to `v` under
    /// `regens_free`: exactly
    /// `RegenGraph::build_with_free_regens(..).relay_candidates(k)[0]` for
    /// any `k ≥ 1`, and `None` exactly when that list is empty.
    ///
    /// The regenerator graph stays implicit. Its nodes are `[u, v, sites
    /// with free regenerators, ascending]`; two nodes are joined when the
    /// within-reach table says so, read in the orientation the graph build
    /// reads `fiber_dist` (lower node index first); each edge weighs its
    /// head node (0 for the endpoints, `1/free` otherwise). Yen's first
    /// path is the destination-targeted Dijkstra `shortest_path_filtered_to`
    /// on that graph, and this search repeats it step for step: the heap
    /// pops the least `(distance, node)`, neighbors relax in ascending node
    /// order, only a strict improvement moves a predecessor, and the search
    /// stops when `v` settles.
    pub fn first_relay_path(
        &self,
        regens_free: &[u32],
        u: SiteId,
        v: SiteId,
    ) -> Option<Vec<SiteId>> {
        let n = self.n;
        let mut sites = Vec::with_capacity(n);
        sites.extend([u, v]);
        sites.extend((0..n).filter(|&s| s != u && s != v && regens_free[s] > 0));
        let m = sites.len();
        let mut dist = vec![f64::INFINITY; m];
        let mut pred = vec![0; m];
        let mut done = vec![false; m];
        // Non-negative doubles order like their bit patterns, so the key
        // `(bits, node)` pops in the graph crate's `(distance, node)` order.
        let mut heap = BinaryHeap::new();
        dist[0] = 0.0;
        heap.push(Reverse((0.0f64.to_bits(), 0)));
        while let Some(Reverse((bits, i))) = heap.pop() {
            if done[i] {
                continue;
            }
            done[i] = true;
            if i == 1 {
                break;
            }
            let d = f64::from_bits(bits);
            for j in 0..m {
                let (a, b) = if i < j {
                    (sites[i], sites[j])
                } else {
                    (sites[j], sites[i])
                };
                if done[j] || !self.within[a * n + b] {
                    continue;
                }
                let w = if j < 2 {
                    0.0
                } else {
                    1.0 / regens_free[sites[j]] as f64
                };
                let nd = d + w;
                if nd < dist[j] {
                    dist[j] = nd;
                    pred[j] = i;
                    heap.push(Reverse((nd.to_bits(), j)));
                }
            }
        }
        if !done[1] {
            return None;
        }
        let mut path = vec![v];
        let mut cur = 1;
        while cur != 0 {
            cur = pred[cur];
            path.push(sites[cur]);
        }
        path.reverse();
        Some(path)
    }
}

/// The layered evaluation cache. See the module docs for the layer
/// structure and invalidation rules.
///
/// Not shared between threads: each parallel annealing chain owns its own
/// cache, which keeps chains bit-for-bit independent of scheduling.
#[derive(Debug, Clone, Default)]
pub struct EnergyCache {
    /// Fingerprint of the plant the current run evaluates on.
    plant_sig: Option<u64>,
    /// Plant-scoped precompute (within-reach table + relay domains),
    /// `Arc`-shared across chains when a parallel run installs one.
    plant: Option<Arc<PlantCache>>,
    /// A shared precompute offered by the enclosing parallel run via
    /// [`Self::install_plant_cache`]; adopted on first use when its
    /// fingerprint matches, so sibling chains never rebuild it.
    shared_plant: Option<Arc<PlantCache>>,
    /// Run-scoped: full outcomes keyed by desired topology. `Arc`-shared
    /// with the annealing loop's current/best snapshots, so a hit (and a
    /// store) is a pointer clone, not a deep outcome copy.
    outcomes: HashMap<Topology, Arc<EnergyOutcome>>,
    /// Run-scoped: rate outcomes keyed by achieved topology.
    rate_memo: HashMap<Topology, RateOutcome>,
    /// Run-scoped: desired topologies whose outcome the memo *refused* at
    /// [`OUTCOME_CAP`] — a re-evaluation of one of these is a capacity
    /// miss, not a cold one. Itself capped (see [`OVERFLOW_CAP`]); beyond
    /// that the attribution degrades to `cold`, never miscounts.
    overflow: HashSet<Topology>,
    /// Effectiveness counters.
    pub stats: EnergyCacheStats,
}

impl EnergyCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the cache for one evaluation run (one annealing call):
    /// clears the run-scoped memos unconditionally, and drops the
    /// plant-scoped precompute if the plant content changed since it was
    /// built. `fiber_dist` passed to the builders must always be
    /// `plant.fiber_distance_matrix()`.
    pub fn begin_run(&mut self, plant: &FiberPlant) {
        self.outcomes.clear();
        self.rate_memo.clear();
        self.overflow.clear();
        let sig = plant_fingerprint(plant);
        if self.plant_sig == Some(sig) {
            return;
        }
        if self.plant_sig.is_some() {
            self.stats.flushes += 1;
        }
        self.plant_sig = Some(sig);
        self.plant = None;
    }

    /// Offers a shared [`PlantCache`] built by the enclosing run. The
    /// cache adopts it (instead of building its own) as long as its
    /// fingerprint matches the plant of the current run.
    pub fn install_plant_cache(&mut self, pc: Arc<PlantCache>) {
        self.shared_plant = Some(pc);
    }

    /// The plant-scoped precompute currently adopted or offered, if its
    /// fingerprint is `sig` — lets a parallel run recycle one chain's
    /// precompute for its siblings across slots.
    pub fn plant_cache_for(&self, sig: u64) -> Option<Arc<PlantCache>> {
        self.plant
            .iter()
            .chain(self.shared_plant.iter())
            .find(|p| p.sig == sig)
            .cloned()
    }

    /// The plant-scoped precompute, adopting the shared one or building a
    /// fresh one on first use after a flush.
    pub(crate) fn plant_precompute(
        &mut self,
        plant: &FiberPlant,
        fiber_dist: &[Vec<f64>],
    ) -> Arc<PlantCache> {
        if let Some(pc) = &self.plant {
            return Arc::clone(pc);
        }
        let sig = self.plant_sig.unwrap_or_else(|| plant_fingerprint(plant));
        let pc = self
            .shared_plant
            .as_ref()
            .filter(|p| p.sig == sig)
            .cloned()
            .unwrap_or_else(|| Arc::new(PlantCache::build(plant, fiber_dist)));
        self.plant = Some(Arc::clone(&pc));
        pc
    }

    /// Looks up a memoized full outcome for a desired topology. Returns a
    /// shared handle: a hit costs one `Arc` clone, not a deep copy.
    pub fn lookup_outcome(&mut self, desired: &Topology) -> Option<Arc<EnergyOutcome>> {
        // Stats bookkeeping first to appease the borrow checker.
        if self.outcomes.contains_key(desired) {
            self.stats.outcome_hits += 1;
        } else {
            self.stats.outcome_misses += 1;
        }
        self.outcomes.get(desired).cloned()
    }

    /// Memoizes a full outcome. Beyond the cap the outcome is dropped and
    /// the key remembered in the overflow set, so re-evaluations attribute
    /// to `capacity` rather than `cold`.
    pub fn store_outcome(&mut self, desired: Topology, outcome: Arc<EnergyOutcome>) {
        if self.outcomes.len() < OUTCOME_CAP {
            self.outcomes.insert(desired, outcome);
        } else if self.overflow.len() < OVERFLOW_CAP {
            self.overflow.insert(desired);
        }
    }

    /// True when `desired` was evaluated this run but the outcome memo
    /// refused to store it (capacity cap).
    pub(crate) fn outcome_overflowed(&self, desired: &Topology) -> bool {
        self.overflow.contains(desired)
    }

    /// Looks up a memoized rate assignment for an achieved topology.
    pub fn lookup_rates(&mut self, achieved: &Topology) -> Option<&RateOutcome> {
        let hit = self.rate_memo.get(achieved);
        if hit.is_some() {
            self.stats.rate_hits += 1;
        }
        hit
    }

    /// Memoizes a rate assignment (no-op beyond the cap).
    pub fn store_rates(&mut self, achieved: Topology, rates: RateOutcome) {
        if self.rate_memo.len() < RATE_CAP {
            self.rate_memo.insert(achieved, rates);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    fn plant() -> FiberPlant {
        let mut p = FiberPlant::new(OpticalParams {
            optical_reach_km: 500.0,
            ..Default::default()
        });
        for i in 0..4 {
            p.add_site(&format!("S{i}"), 4, 2);
        }
        for i in 0..4 {
            p.add_fiber(i, (i + 1) % 4, 400.0);
        }
        p
    }

    #[test]
    fn fiberset_basics() {
        let mut a = FiberSet::new(130);
        let mut b = FiberSet::new(130);
        a.insert(0);
        a.insert(129);
        b.insert(64);
        assert_eq!(a.iter_common(&b).count(), 0);
        b.insert(129);
        assert_eq!(a.iter_common(&b).collect::<Vec<_>>(), vec![129]);
        assert_eq!(a.iter_common(&a).collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn fingerprint_tracks_plant_content() {
        let p = plant();
        let base = plant_fingerprint(&p);
        assert_eq!(base, plant_fingerprint(&p), "deterministic");

        let mut degraded = p.clone();
        degraded.set_fiber_wavelength_cap(0, Some(3));
        assert_ne!(base, plant_fingerprint(&degraded), "amp degradation");
        degraded.set_fiber_wavelength_cap(0, None);
        assert_eq!(base, plant_fingerprint(&degraded), "repair restores");
    }

    #[test]
    fn begin_run_flushes_on_degradation_only() {
        let mut p = plant();
        let fd = p.fiber_distance_matrix();
        let mut cache = EnergyCache::new();
        cache.begin_run(&p);
        let first = cache.plant_precompute(&p, &fd);

        cache.begin_run(&p);
        assert_eq!(cache.stats.flushes, 0, "same plant keeps the precompute");
        assert!(Arc::ptr_eq(&first, &cache.plant_precompute(&p, &fd)));

        p.set_fiber_wavelength_cap(2, Some(1));
        cache.begin_run(&p);
        assert_eq!(cache.stats.flushes, 1, "degradation flushes");
        let rebuilt = cache.plant_precompute(&p, &fd);
        assert_eq!(rebuilt.fingerprint(), plant_fingerprint(&p));
        assert_ne!(rebuilt.fingerprint(), first.fingerprint());
    }

    #[test]
    fn domain_excludes_sites_behind_unequipped_interiors() {
        // Line 0-1-2-3, 400 km hops, reach 500. Site 2 has no
        // regenerators, so site 3 cannot be reached from 0 or 2 through
        // equipped interiors: it is outside the (0, 2) relay domain.
        let mut p = FiberPlant::new(OpticalParams {
            optical_reach_km: 500.0,
            ..Default::default()
        });
        p.add_site("A", 4, 2);
        p.add_site("B", 4, 2);
        p.add_site("C", 4, 0);
        p.add_site("D", 4, 2);
        p.add_fiber(0, 1, 400.0);
        p.add_fiber(1, 2, 400.0);
        p.add_fiber(2, 3, 400.0);
        let fd = p.fiber_distance_matrix();
        let pc = PlantCache::build(&p, &fd);
        assert_eq!(pc.domain(0, 2), &[1]);
        assert_eq!(pc.domain(2, 0), &[1], "domains are symmetric");
        assert_eq!(pc.domain(1, 3), &[] as &[SiteId], "C cannot relay");
    }
}
