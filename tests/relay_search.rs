//! The lazy relay search: `PlantCache::first_relay_path` is exactly Yen's
//! first relay path, and the builders that provision from it — falling
//! back to `RegenGraph` + Yen only when that path cannot be provisioned —
//! build exactly what the naive builder builds, in release builds too.

use owan::core::{
    build_topology, build_topology_cached, try_build_topology_delta, CircuitBuildConfig,
    CoreTelemetry, EnergyCache, PlantCache, RegenGraph, Topology,
};
use owan::obs::Recorder;
use owan::optical::{FiberPlant, OpticalParams};
use proptest::prelude::*;

/// A random plant: a ring whose fibers are each present with probability
/// 4/5 (two missing fibers disconnect it), one chord, random lengths,
/// reach, wavelength counts and regenerator stocks (zero included).
fn arb_plant() -> impl Strategy<Value = FiberPlant> {
    (
        4usize..10,
        300.0f64..1400.0,
        1u32..4,
        proptest::collection::vec((0u32..4, 0u32..5, 150.0f64..700.0), 10),
    )
        .prop_map(|(n, reach, wavelengths, sites)| {
            let mut p = FiberPlant::new(OpticalParams {
                optical_reach_km: reach,
                wavelengths_per_fiber: wavelengths,
                ..Default::default()
            });
            for (i, &(regens, _, _)) in sites.iter().take(n).enumerate() {
                p.add_site(&format!("S{i}"), 4, regens);
            }
            for (i, &(_, present, len)) in sites.iter().take(n).enumerate() {
                if present > 0 {
                    p.add_fiber(i, (i + 1) % n, len);
                }
            }
            p.add_fiber(0, n / 2, sites[n - 1].2 + 200.0);
            p
        })
}

/// A topology over `plant` from `(u, v, m)` specs (self-pairs dropped).
fn topology(plant: &FiberPlant, links: &[(usize, usize, u32)]) -> Topology {
    let n = plant.site_count();
    let mut t = Topology::empty(n);
    for &(a, b, m) in links {
        let (u, v) = (a % n, b % n);
        if u != v {
            t.add_links(u, v, m);
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn first_relay_path_equals_yens_first_path(
        plant in arb_plant(),
        draws in proptest::collection::vec(0u32..5, 10),
        k in 1usize..6,
    ) {
        let fd = plant.fiber_distance_matrix();
        let pc = PlantCache::build(&plant, &fd);
        // Free counts at or below each site's stock, zero included; the
        // endpoints of most pairs keep regenerators of their own.
        let free: Vec<u32> = plant
            .sites()
            .iter()
            .zip(&draws)
            .map(|(s, &d)| d.min(s.regenerators))
            .collect();
        let n = plant.site_count();
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let yen = RegenGraph::build_with_free_regens(&plant, &free, &fd, u, v)
                    .relay_candidates_with_costs(k);
                let lazy = pc.first_relay_path(&free, u, v);
                prop_assert_eq!(lazy.is_none(), yen.is_empty(), "pair ({}, {})", u, v);
                if let Some(path) = lazy {
                    prop_assert_eq!(&path, &yen[0].0, "pair ({}, {}) under {:?}", u, v, &free);
                }
            }
        }
    }

    #[test]
    fn lazy_builds_equal_the_naive_build_on_scarce_plants(
        plant in arb_plant(),
        base in proptest::collection::vec((0usize..10, 0usize..10, 1u32..3), 1..7),
        moves in proptest::collection::vec((0usize..10, 0usize..10, 0u32..3), 1..4),
        k in 1usize..5,
    ) {
        let fd = plant.fiber_distance_matrix();
        let cfg = CircuitBuildConfig { relay_candidates: k };
        let t = CoreTelemetry::disabled();
        let mut cache = EnergyCache::new();
        cache.begin_run(&plant);

        let mut prev_desired = topology(&plant, &base);
        let mut prev = build_topology_cached(&plant, &prev_desired, &fd, &cfg, &mut cache, &t);
        prop_assert_eq!(&prev, &build_topology(&plant, &prev_desired, &fd, &cfg));
        // A chain of small moves, each rebuilt incrementally from the last
        // build, so screens read probe logs written by delta builds too.
        for &(a, b, m) in &moves {
            let n = plant.site_count();
            let (u, v) = (a % n, b % n);
            if u == v {
                continue;
            }
            let mut desired = prev_desired.clone();
            let cur = desired.multiplicity(u, v);
            desired.remove_links(u, v, cur);
            desired.add_links(u, v, m);
            let naive = build_topology(&plant, &desired, &fd, &cfg);
            let Some(built) = try_build_topology_delta(
                &plant, &desired, &prev_desired, &prev, &fd, &cfg, &mut cache, &t,
            ) else {
                continue;
            };
            prop_assert_eq!(&built, &naive);
            prop_assert_eq!(
                &build_topology_cached(&plant, &desired, &fd, &cfg, &mut cache, &t),
                &naive
            );
            prev_desired = desired;
            prev = built;
        }
    }
}

/// Sites A, B, C on a triangle of 300 km single-wavelength fibers, reach
/// 2000 km, regenerators only at C. A's and B's first relay path is the
/// direct one; once one circuit holds the A–B fiber's only wavelength, a
/// second A–B circuit's first path has no free wavelength, and only the
/// second candidate `[A, C, B]` provisions.
fn scarce_triangle() -> FiberPlant {
    let mut p = FiberPlant::new(OpticalParams {
        optical_reach_km: 2_000.0,
        wavelengths_per_fiber: 1,
        ..Default::default()
    });
    let a = p.add_site("A", 4, 0);
    let b = p.add_site("B", 4, 0);
    let c = p.add_site("C", 4, 2);
    p.add_fiber(a, b, 300.0);
    p.add_fiber(a, c, 300.0);
    p.add_fiber(c, b, 300.0);
    p
}

#[test]
fn blocked_first_path_falls_back_to_yen() {
    let plant = scarce_triangle();
    let fd = plant.fiber_distance_matrix();
    let cfg = CircuitBuildConfig::default();
    let mut two = Topology::empty(3);
    two.add_links(0, 1, 2);
    let naive = build_topology(&plant, &two, &fd, &cfg);
    assert_eq!(
        naive.achieved.multiplicity(0, 1),
        2,
        "the fallback provisions"
    );

    let recorder = Recorder::enabled();
    let t = CoreTelemetry::new(&recorder);
    let mut cache = EnergyCache::new();
    cache.begin_run(&plant);
    let cached = build_topology_cached(&plant, &two, &fd, &cfg, &mut cache, &t);
    assert_eq!(cached, naive);
    assert_eq!(
        cache.stats.relay_hits, 1,
        "the first circuit takes the first path"
    );
    assert_eq!(cache.stats.relay_misses, 1, "the second needs Yen");
    let snap = recorder.snapshot();
    assert_eq!(snap.counters["circuits.shortest_path_calls"], 1);
    assert_eq!(snap.counters["circuits.wavelength_failures"], 1);
    assert_eq!(snap.counters["circuits.built"], 2);

    // Delta from one circuit to two: the changed pair is re-provisioned
    // through the same fallback.
    let mut one = Topology::empty(3);
    one.add_links(0, 1, 1);
    let t = CoreTelemetry::disabled();
    let prev = build_topology_cached(&plant, &one, &fd, &cfg, &mut cache, &t);
    let misses = cache.stats.relay_misses;
    let delta = try_build_topology_delta(&plant, &two, &one, &prev, &fd, &cfg, &mut cache, &t)
        .expect("one unit apart");
    assert_eq!(delta, naive);
    assert_eq!(cache.stats.relay_misses, misses + 1);

    // Adding A–C next to the two A–B circuits: the unchanged A–B pair is
    // screened and reused, while A–C finds its only fiber taken by the
    // fallback circuit and reduces to zero, exactly as the naive build.
    let mut three = two.clone();
    three.add_links(0, 2, 1);
    let delta3 = try_build_topology_delta(&plant, &three, &two, &delta, &fd, &cfg, &mut cache, &t)
        .expect("one unit apart");
    assert_eq!(delta3, build_topology(&plant, &three, &fd, &cfg));
    assert!(cache.stats.delta_pairs_reused >= 1, "A–B was screened");
}
