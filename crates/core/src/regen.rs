//! Regenerator-graph construction and relay-path search (§3.2, Figure 5).
//!
//! To build an optical circuit whose endpoints are farther apart than the
//! optical reach `η`, the circuit must pass through regenerators. The paper
//! builds a *regenerator graph*: nodes are the circuit endpoints plus every
//! site with a free regenerator; an edge connects two nodes if their
//! shortest fiber distance is within `η`. To balance regenerator
//! consumption, each node is weighted by the inverse of its remaining
//! regenerators (endpoints weigh zero), and the problem of finding the
//! relay path of minimum total *node* weight is transformed into a standard
//! shortest-path problem on a directed graph whose edge weights equal the
//! weight of the head node.

use owan_graph::{dijkstra, k_shortest_paths, Graph};
use owan_optical::{FiberPlant, OpticalState, SiteId};

/// The regenerator graph for one circuit request, plus the transformation
/// to an edge-weighted directed graph.
#[derive(Debug, Clone)]
pub struct RegenGraph {
    /// Sites included as nodes, in graph-node order: `sites[0] = src`,
    /// `sites[1] = dst`, the rest are regenerator sites.
    pub sites: Vec<SiteId>,
    /// The transformed directed graph (edge weight = head-node weight).
    pub transformed: Graph,
}

impl RegenGraph {
    /// Builds the regenerator graph for a circuit from `src` to `dst`.
    ///
    /// `fiber_dist` must be the all-pairs shortest fiber distance matrix of
    /// the plant (precomputed once per slot and shared across circuit
    /// requests — building it here would be `O(V^2 log V)` per circuit).
    pub fn build(
        plant: &FiberPlant,
        state: &OpticalState,
        fiber_dist: &[Vec<f64>],
        src: SiteId,
        dst: SiteId,
    ) -> Self {
        Self::build_with_free_regens(plant, state.free_regen_vec(), fiber_dist, src, dst)
    }

    /// [`RegenGraph::build`] from an explicit free-regenerator vector
    /// instead of an [`OpticalState`]. The graph depends on the state only
    /// through this vector: equal vectors (under the same plant and
    /// distance matrix) produce identical graphs and therefore identical
    /// Yen outputs.
    pub fn build_with_free_regens(
        plant: &FiberPlant,
        regens_free: &[u32],
        fiber_dist: &[Vec<f64>],
        src: SiteId,
        dst: SiteId,
    ) -> Self {
        let reach = plant.params().optical_reach_km;

        let mut sites = vec![src, dst];
        for (s, &free) in regens_free.iter().enumerate().take(plant.site_count()) {
            if s != src && s != dst && free > 0 {
                sites.push(s);
            }
        }

        // Node weights: 1 / remaining regenerators; endpoints weigh 0.
        let weight: Vec<f64> = sites
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                if i < 2 {
                    0.0
                } else {
                    1.0 / regens_free[s] as f64
                }
            })
            .collect();

        // Transformed graph: for every pair within reach, two directed
        // edges, each weighted by its head node.
        let mut transformed = Graph::new(sites.len());
        for i in 0..sites.len() {
            for j in i + 1..sites.len() {
                if fiber_dist[sites[i]][sites[j]] <= reach {
                    transformed.add_directed_edge(i, j, weight[j]);
                    transformed.add_directed_edge(j, i, weight[i]);
                }
            }
        }

        RegenGraph { sites, transformed }
    }

    /// The minimum-regenerator-pressure relay path from `src` to `dst`, as
    /// a site sequence `[src, relays…, dst]`, or `None` if no relay path
    /// satisfies the reach constraint.
    pub fn best_relay_path(&self) -> Option<Vec<SiteId>> {
        let sp = dijkstra::shortest_paths(&self.transformed, 0);
        let nodes = sp.path_to(1)?;
        Some(nodes.into_iter().map(|n| self.sites[n]).collect())
    }

    /// Up to `k` candidate relay paths in increasing weight order (Yen's
    /// algorithm on the transformed graph). The circuit builder tries them
    /// in order until one has free wavelengths end to end — this realizes
    /// Algorithm 3 lines 7–12 ("iterate the paths … to find enough number
    /// of paths we need that can be built as optical circuits").
    pub fn relay_candidates(&self, k: usize) -> Vec<Vec<SiteId>> {
        self.relay_candidates_with_costs(k)
            .into_iter()
            .map(|(p, _)| p)
            .collect()
    }

    /// [`Self::relay_candidates`] paired with each path's total node weight
    /// (the Yen cost).
    pub fn relay_candidates_with_costs(&self, k: usize) -> Vec<(Vec<SiteId>, f64)> {
        k_shortest_paths(&self.transformed, 0, 1, k)
            .into_iter()
            .map(|p| {
                let cost = p.cost();
                (p.nodes.into_iter().map(|n| self.sites[n]).collect(), cost)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owan_optical::OpticalParams;

    /// Line A - B - C - D, 400 km hops, reach 500 km; B and C have
    /// regenerators.
    fn plant(regens: [u32; 4]) -> FiberPlant {
        let params = OpticalParams {
            optical_reach_km: 500.0,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        for (i, &r) in regens.iter().enumerate() {
            p.add_site(&format!("S{i}"), 4, r);
        }
        p.add_fiber(0, 1, 400.0);
        p.add_fiber(1, 2, 400.0);
        p.add_fiber(2, 3, 400.0);
        p
    }

    #[test]
    fn direct_edge_when_within_reach() {
        let p = plant([0, 2, 2, 0]);
        let s = OpticalState::new(&p);
        let d = p.fiber_distance_matrix();
        let rg = RegenGraph::build(&p, &s, &d, 0, 1);
        let path = rg.best_relay_path().unwrap();
        assert_eq!(path, vec![0, 1], "within reach: no relays");
    }

    #[test]
    fn relay_path_through_regenerators() {
        let p = plant([0, 2, 2, 0]);
        let s = OpticalState::new(&p);
        let d = p.fiber_distance_matrix();
        let rg = RegenGraph::build(&p, &s, &d, 0, 3);
        let path = rg.best_relay_path().unwrap();
        // 0→3 is 1200 km; must relay at both B and C (each hop 400 ≤ 500,
        // 0→2 is 800 > 500 so single relay is impossible).
        assert_eq!(path, vec![0, 1, 2, 3]);
    }

    #[test]
    fn no_path_without_regenerators() {
        let p = plant([0, 0, 0, 0]);
        let s = OpticalState::new(&p);
        let d = p.fiber_distance_matrix();
        let rg = RegenGraph::build(&p, &s, &d, 0, 3);
        assert!(rg.best_relay_path().is_none());
    }

    #[test]
    fn weight_prefers_sites_with_more_regenerators() {
        // Diamond: src 0, dst 3; relays 1 (1 regen) and 2 (4 regens), both
        // reachable; prefer the better-stocked site 2.
        let params = OpticalParams {
            optical_reach_km: 500.0,
            ..Default::default()
        };
        let mut p = FiberPlant::new(params);
        let a = p.add_site("A", 4, 0);
        let b = p.add_site("B", 4, 1);
        let c = p.add_site("C", 4, 4);
        let d = p.add_site("D", 4, 0);
        p.add_fiber(a, b, 400.0);
        p.add_fiber(b, d, 400.0);
        p.add_fiber(a, c, 400.0);
        p.add_fiber(c, d, 400.0);
        let s = OpticalState::new(&p);
        let dist = p.fiber_distance_matrix();
        let rg = RegenGraph::build(&p, &s, &dist, a, d);
        let path = rg.best_relay_path().unwrap();
        assert_eq!(path, vec![a, c, d], "1/4 weight beats 1/1");
    }

    #[test]
    fn candidates_sorted_and_start_with_best() {
        let p = plant([0, 2, 2, 0]);
        let s = OpticalState::new(&p);
        let d = p.fiber_distance_matrix();
        let rg = RegenGraph::build(&p, &s, &d, 0, 3);
        let cands = rg.relay_candidates(4);
        assert!(!cands.is_empty());
        assert_eq!(cands[0], rg.best_relay_path().unwrap());
        for c in &cands {
            assert_eq!(*c.first().unwrap(), 0);
            assert_eq!(*c.last().unwrap(), 3);
        }
    }

    #[test]
    fn consumed_regenerators_leave_the_graph() {
        let p = plant([0, 1, 1, 0]);
        let mut s = OpticalState::new(&p);
        let d = p.fiber_distance_matrix();
        // Consume B and C's only regenerators with a circuit 0→3.
        let rg = RegenGraph::build(&p, &s, &d, 0, 3);
        let path = rg.best_relay_path().unwrap();
        s.provision(&p, &path).unwrap();
        // Now no relay path remains for a second circuit.
        let rg2 = RegenGraph::build(&p, &s, &d, 0, 3);
        assert!(rg2.best_relay_path().is_none());
    }
}
