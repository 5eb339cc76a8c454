//! The Baswana–Sen `(2k−1)`-spanner construction \[5\] — the clustering-based
//! algorithm `Sampler` is "inspired by" (Section 1.3) and the natural
//! baseline for it.
//!
//! This is the unweighted specialisation: `k−1` clustering phases in which
//! surviving clusters are sampled with probability `n^{-1/k}`, non-sampled
//! nodes either join an adjacent sampled cluster (adding the connecting edge)
//! or connect to every adjacent cluster, followed by a final
//! cluster-joining phase. The expected spanner size is `O(k·n^{1+1/k})` and
//! the stretch is `2k−1`.
//!
//! The distributed cost is the point of comparison with `Sampler`: in every
//! phase each node exchanges its cluster identifier with **all** of its
//! neighbors, so the message complexity is `Θ(k·m)` — the `Ω(m)` barrier the
//! paper's algorithm removes.
//!
//! Each phase's cluster-identifier wave is metered through the
//! workspace-wide [`MessageLedger`]: every
//! still-alive edge carries one 4-byte identifier in each direction per
//! wave. Ledger round slots count these communication waves;
//! [`CostReport::rounds`] stays the authoritative round complexity of the
//! protocol (it also charges the silent coordination rounds). See
//! `docs/METRICS.md` for the contract.

use crate::error::{BaselineError, BaselineResult};
use freelunch_core::planner::{GraphStats, SpannerProfile};
use freelunch_core::spanner_api::{SpannerAlgorithm, SpannerResult};
use freelunch_core::CoreResult;
use freelunch_graph::{EdgeId, MultiGraph, NodeId};
use freelunch_runtime::{edge_slot_count, CostReport, MessageLedger};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Wire size charged per cluster-identifier message (a `u32` center ID).
const CLUSTER_ID_BYTES: u64 = 4;

/// The Baswana–Sen construction with stretch parameter `k` (stretch `2k−1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaswanaSen {
    /// Stretch parameter `k ≥ 1`; the spanner has stretch `2k−1` and
    /// expected size `O(k·n^{1+1/k})`.
    pub k: u32,
}

impl BaswanaSen {
    /// Creates the algorithm for stretch parameter `k`.
    ///
    /// # Errors
    ///
    /// Returns an error if `k` is zero or larger than 20.
    pub fn new(k: u32) -> BaselineResult<Self> {
        if k == 0 || k > 20 {
            return Err(BaselineError::invalid_parameter(format!(
                "k must be in 1..=20, got {k}"
            )));
        }
        Ok(BaswanaSen { k })
    }

    /// The stretch guarantee `2k − 1`.
    pub(crate) fn stretch(&self) -> u32 {
        2 * self.k - 1
    }

    /// Rebuild-from-scratch comparator for the dynamic-graph experiments:
    /// the rounds and messages a full re-run of the construction on the
    /// current (post-churn) graph would cost. This is the `Θ(k·m)` bill an
    /// incremental repair
    /// ([`IncrementalSpanner`](freelunch_core::maintain::IncrementalSpanner))
    /// avoids paying on every event; `exp_churn` reports the two side by
    /// side (see `docs/CHURN.md`).
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty.
    pub fn rebuild_cost(&self, graph: &MultiGraph, seed: u64) -> BaselineResult<CostReport> {
        Ok(self.run(graph, seed)?.cost)
    }

    /// Runs the construction.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty.
    pub fn run(&self, graph: &MultiGraph, seed: u64) -> BaselineResult<BaswanaSenOutcome> {
        if graph.node_count() == 0 {
            return Err(BaselineError::invalid_parameter(
                "the input graph has no nodes",
            ));
        }
        let n = graph.node_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sample_probability = (n as f64).powf(-1.0 / f64::from(self.k)).clamp(0.0, 1.0);

        // cluster_of[v] = the cluster (identified by its center node) v
        // currently belongs to, or None if v has dropped out of the
        // clustering.
        let mut cluster_of: Vec<Option<NodeId>> = graph.nodes().map(Some).collect();
        // Edges still alive (not yet discarded).
        let mut alive: BTreeSet<EdgeId> = graph.edge_ids().collect();
        let mut spanner: BTreeSet<EdgeId> = BTreeSet::new();
        // One ledger round slot per communication wave; `alive` iterates in
        // ascending edge order, so the accumulation is canonical.
        let mut ledger = MessageLedger::new(edge_slot_count(graph.edge_ids()));
        let mut rounds: u64 = 0;

        for _phase in 1..self.k {
            // Every alive edge carries the cluster identifiers of both
            // endpoints in both directions: Θ(m) messages per phase.
            ledger.start_round();
            for &edge in &alive {
                ledger.record_edge(edge, CLUSTER_ID_BYTES);
                ledger.record_edge(edge, CLUSTER_ID_BYTES);
            }
            rounds += 3; // sample + announce + join, as in the distributed version.

            // Sample clusters.
            let mut sampled: HashMap<NodeId, bool> = HashMap::new();
            for center in cluster_of.iter().flatten() {
                sampled
                    .entry(*center)
                    .or_insert_with(|| rng.gen_bool(sample_probability));
            }

            let mut next_cluster_of = cluster_of.clone();
            for v in graph.nodes() {
                let Some(current) = cluster_of[v.index()] else {
                    continue;
                };
                if *sampled.get(&current).unwrap_or(&false) {
                    continue; // Nodes of sampled clusters carry on unchanged.
                }
                // Group v's alive incident edges by the neighbor's cluster.
                let mut by_cluster: HashMap<NodeId, EdgeId> = HashMap::new();
                let mut sampled_neighbor: Option<(NodeId, EdgeId)> = None;
                for ie in graph.incident_edges(v) {
                    if !alive.contains(&ie.edge) {
                        continue;
                    }
                    let Some(neighbor_cluster) = cluster_of[ie.neighbor.index()] else {
                        continue;
                    };
                    by_cluster.entry(neighbor_cluster).or_insert(ie.edge);
                    if sampled_neighbor.is_none()
                        && *sampled.get(&neighbor_cluster).unwrap_or(&false)
                    {
                        sampled_neighbor = Some((neighbor_cluster, ie.edge));
                    }
                }
                match sampled_neighbor {
                    Some((cluster, edge)) => {
                        // Join the sampled cluster; keep other edges alive for
                        // later phases, discard the intra-cluster ones.
                        spanner.insert(edge);
                        next_cluster_of[v.index()] = Some(cluster);
                        for ie in graph.incident_edges(v) {
                            if cluster_of[ie.neighbor.index()] == Some(cluster) {
                                alive.remove(&ie.edge);
                            }
                        }
                    }
                    None => {
                        // Not adjacent to any sampled cluster: connect to every
                        // adjacent cluster once and drop out.
                        for (cluster, edge) in &by_cluster {
                            spanner.insert(*edge);
                            for ie in graph.incident_edges(v) {
                                if cluster_of[ie.neighbor.index()] == Some(*cluster) {
                                    alive.remove(&ie.edge);
                                }
                            }
                        }
                        next_cluster_of[v.index()] = None;
                    }
                }
            }
            cluster_of = next_cluster_of;
        }

        // Final phase: every node connects once to every adjacent surviving
        // cluster.
        ledger.start_round();
        for &edge in &alive {
            ledger.record_edge(edge, CLUSTER_ID_BYTES);
            ledger.record_edge(edge, CLUSTER_ID_BYTES);
        }
        rounds += 2;
        for v in graph.nodes() {
            let mut by_cluster: HashMap<NodeId, EdgeId> = HashMap::new();
            for ie in graph.incident_edges(v) {
                if !alive.contains(&ie.edge) {
                    continue;
                }
                if let Some(cluster) = cluster_of[ie.neighbor.index()] {
                    if cluster_of[v.index()] == Some(cluster) {
                        continue;
                    }
                    by_cluster.entry(cluster).or_insert(ie.edge);
                }
            }
            for edge in by_cluster.values() {
                spanner.insert(*edge);
            }
        }

        Ok(BaswanaSenOutcome {
            spanner: spanner.into_iter().collect(),
            cost: CostReport {
                rounds,
                messages: ledger.total_messages(),
            },
            stretch: self.stretch(),
            ledger,
        })
    }
}

/// Result of a Baswana–Sen run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaswanaSenOutcome {
    /// The spanner edge set.
    pub spanner: Vec<EdgeId>,
    /// Rounds and messages of the distributed execution model (`Θ(k·m)`
    /// messages).
    pub cost: CostReport,
    /// The stretch guarantee `2k−1`.
    pub stretch: u32,
    /// Per-edge / per-wave message accounting (round slots count
    /// communication waves, one per phase; see the module docs).
    pub ledger: MessageLedger,
}

impl SpannerAlgorithm for BaswanaSen {
    fn name(&self) -> String {
        format!("baswana-sen(k={})", self.k)
    }

    fn construct(&self, graph: &MultiGraph, seed: u64) -> CoreResult<SpannerResult> {
        let outcome = self
            .run(graph, seed)
            .map_err(|e| freelunch_core::CoreError::invalid_parameter(e.to_string()))?;
        Ok(SpannerResult {
            algorithm: self.name(),
            edges: outcome.spanner,
            multiplicative_stretch: outcome.stretch,
            additive_stretch: 0,
            cost: outcome.cost,
        })
    }

    /// Cost-model hook for the adaptive planner: the textbook expected size
    /// `|S| ≈ min(m, k · n^{1+1/k})` and construction messages ≈ one
    /// cluster-identifier exchange per incidence per phase, `2·m·k`.
    fn predicted_profile(&self, stats: &GraphStats) -> Option<SpannerProfile> {
        let n = stats.nodes as f64;
        let m = stats.edges as f64;
        let k = f64::from(self.k);
        Some(SpannerProfile {
            edges: m.min(k * n.powf(1.0 + 1.0 / k)),
            construction_messages: 2.0 * m * k,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{complete_graph, connected_erdos_renyi, GeneratorConfig};
    use freelunch_graph::spanner_check::verify_edge_stretch;

    #[test]
    fn parameter_validation() {
        assert!(BaswanaSen::new(0).is_err());
        assert!(BaswanaSen::new(21).is_err());
        assert_eq!(BaswanaSen::new(3).unwrap().stretch(), 5);
    }

    #[test]
    fn stretch_bound_holds_on_random_graphs() {
        for k in 1..=3u32 {
            let graph =
                connected_erdos_renyi(&GeneratorConfig::new(120, u64::from(k)), 0.15).unwrap();
            let algorithm = BaswanaSen::new(k).unwrap();
            let outcome = algorithm.run(&graph, 7).unwrap();
            let report = verify_edge_stretch(&graph, outcome.spanner.iter().copied()).unwrap();
            assert!(
                report.satisfies(algorithm.stretch()),
                "k={k}: stretch {} > {}",
                report.max_stretch,
                algorithm.stretch()
            );
        }
    }

    #[test]
    fn k1_keeps_every_adjacent_pair() {
        // k = 1 means stretch 1: the spanner must contain an edge for every
        // adjacent pair.
        let graph = connected_erdos_renyi(&GeneratorConfig::new(60, 3), 0.2).unwrap();
        let outcome = BaswanaSen::new(1).unwrap().run(&graph, 1).unwrap();
        let report = verify_edge_stretch(&graph, outcome.spanner.iter().copied()).unwrap();
        assert_eq!(report.max_stretch, 1);
    }

    #[test]
    fn dense_graphs_are_sparsified_but_messages_scale_with_m() {
        let graph = complete_graph(&GeneratorConfig::new(200, 0)).unwrap();
        let algorithm = BaswanaSen::new(3).unwrap();
        let outcome = algorithm.run(&graph, 5).unwrap();
        assert!(outcome.spanner.len() < graph.edge_count() / 3);
        // The message count is Ω(m): at least one message per edge.
        assert!(outcome.cost.messages >= graph.edge_count() as u64);
        let report = verify_edge_stretch(&graph, outcome.spanner.iter().copied()).unwrap();
        assert!(report.satisfies(algorithm.stretch()));
    }

    #[test]
    fn implements_the_spanner_algorithm_trait() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(80, 2), 0.2).unwrap();
        let algorithm = BaswanaSen::new(2).unwrap();
        let result = algorithm.construct(&graph, 3).unwrap();
        assert_eq!(result.multiplicative_stretch, 3);
        assert!(result.algorithm.contains("baswana-sen"));
        assert!(!result.edges.is_empty());
    }

    #[test]
    fn ledger_waves_match_cost_and_shrink_with_alive_edges() {
        let graph = complete_graph(&GeneratorConfig::new(60, 0)).unwrap();
        let algorithm = BaswanaSen::new(3).unwrap();
        let outcome = algorithm.run(&graph, 5).unwrap();
        let ledger = &outcome.ledger;
        assert_eq!(ledger.total_messages(), outcome.cost.messages);
        // One wave per phase: k−1 clustering phases + the final joining one.
        assert_eq!(ledger.rounds(), u64::from(algorithm.k));
        // Wave 1 touches every edge twice (all edges start alive), and later
        // waves only touch surviving edges.
        assert_eq!(
            ledger.messages_per_round()[1],
            2 * graph.edge_count() as u64
        );
        assert!(ledger.messages_per_round()[2] <= ledger.messages_per_round()[1]);
        // Each wave puts exactly 2 cluster-ID messages of 4 bytes on an edge.
        assert_eq!(ledger.max_congestion(), 2);
        assert_eq!(ledger.total_bytes(), 4 * ledger.total_messages());
    }

    #[test]
    fn deterministic_per_seed() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(90, 4), 0.2).unwrap();
        let algorithm = BaswanaSen::new(2).unwrap();
        assert_eq!(
            algorithm.run(&graph, 11).unwrap().spanner,
            algorithm.run(&graph, 11).unwrap().spanner
        );
    }

    #[test]
    fn rebuild_cost_matches_a_full_run_and_scales_with_m() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(80, 6), 0.2).unwrap();
        let algorithm = BaswanaSen::new(2).unwrap();
        let cost = algorithm.rebuild_cost(&graph, 9).unwrap();
        assert_eq!(cost, algorithm.run(&graph, 9).unwrap().cost);
        // A rebuild always pays the Ω(m) cluster-identifier waves.
        assert!(cost.messages >= graph.edge_count() as u64);
        assert!(algorithm.rebuild_cost(&MultiGraph::new(0), 0).is_err());
    }

    #[test]
    fn empty_graph_rejected() {
        assert!(BaswanaSen::new(2)
            .unwrap()
            .run(&MultiGraph::new(0), 0)
            .is_err());
    }
}
