//! A Derbel-et-al-style clustering spanner — the "off-the-shelf" second
//! stage of the paper's two-stage message-reduction scheme (Lemma 12).
//!
//! The paper plugs in the algorithm of Derbel, Gavoille, Peleg and Viennot
//! \[11\], which builds a `(3, O(3^κ))`-spanner with `Õ(3^κ·n^{1+1/O(κ)})`
//! edges in `O(3^κ)` rounds. Only three facts about it matter for the
//! scheme: (a) it is a LOCAL algorithm with a small round complexity `r`,
//! (b) it sends `Ω(m)` messages when run directly (which is why it is
//! *simulated* over the `Sampler` spanner instead), and (c) its output is a
//! sparse low-stretch spanner one can flood on.
//!
//! This module implements a radius-`ρ` clustering spanner with exactly that
//! profile (documented substitution, see DESIGN.md): centers are sampled so
//! that every node is within `ρ` hops of a center whp, every node adds its
//! BFS-tree path to the nearest center, nodes with no nearby center add all
//! their incident edges, and one edge is kept between every pair of adjacent
//! clusters. The result is a constant-stretch (`4ρ+1` for adjacent pairs) spanner built in
//! `O(ρ)` rounds with `Θ(ρ·m)` messages.
//!
//! The direct distributed execution is metered through the workspace-wide
//! [`MessageLedger`]: in each of its
//! `ρ + 2` rounds every edge carries one 4-byte cluster/BFS token in each
//! direction — the `Θ(ρ·m)` bill the two-stage scheme avoids by simulating
//! this construction over the `Sampler` spanner instead. See
//! `docs/METRICS.md` for the contract.

use crate::error::{BaselineError, BaselineResult};
use freelunch_core::planner::{GraphStats, SpannerProfile};
use freelunch_core::spanner_api::{SpannerAlgorithm, SpannerResult};
use freelunch_core::CoreResult;
use freelunch_graph::traversal::bfs;
use freelunch_graph::{EdgeId, MultiGraph, NodeId};
use freelunch_runtime::{edge_slot_count, CostReport, MessageLedger};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Wire size charged per cluster/BFS token message (a `u32` identifier).
const TOKEN_BYTES: u64 = 4;

/// Radius-`ρ` clustering spanner standing in for the Derbel et al. second
/// stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpanner {
    /// Clustering radius `ρ ≥ 1`.
    pub radius: u32,
    /// Center-sampling probability; pass `None` to use the coverage-oriented
    /// default `min(1, 4·ln n / n^{1/(ρ+1)})`… in practice the default keeps
    /// the number of centers around `n^{ρ/(ρ+1)}·log n`.
    pub center_probability: Option<f64>,
}

impl ClusterSpanner {
    /// Creates the algorithm with the default center probability.
    ///
    /// # Errors
    ///
    /// Returns an error if `radius` is zero or larger than 10.
    pub fn new(radius: u32) -> BaselineResult<Self> {
        if radius == 0 || radius > 10 {
            return Err(BaselineError::invalid_parameter(format!(
                "radius must be in 1..=10, got {radius}"
            )));
        }
        Ok(ClusterSpanner {
            radius,
            center_probability: None,
        })
    }

    /// Stretch guarantee for adjacent pairs: `4ρ + 1` (cluster trees have
    /// depth `ρ`, so crossing cluster `a` → cluster `b` costs at most
    /// `2ρ + 1 + 2ρ` hops).
    pub(crate) fn stretch(&self) -> u32 {
        4 * self.radius + 1
    }

    fn probability(&self, n: usize) -> f64 {
        match self.center_probability {
            Some(p) => p.clamp(0.0, 1.0),
            None => {
                let n = n.max(2) as f64;
                (4.0 * n.ln() / n.powf(1.0 / f64::from(self.radius + 1))).clamp(0.0, 1.0)
            }
        }
    }

    /// Runs the construction.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty.
    pub fn run(&self, graph: &MultiGraph, seed: u64) -> BaselineResult<ClusterSpannerOutcome> {
        let n = graph.node_count();
        if n == 0 {
            return Err(BaselineError::invalid_parameter(
                "the input graph has no nodes",
            ));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = self.probability(n);
        let centers: Vec<NodeId> = graph.nodes().filter(|_| rng.gen_bool(p)).collect();

        let mut spanner: BTreeSet<EdgeId> = BTreeSet::new();
        // Multi-source BFS (run as independent BFS trees, nearest center wins)
        // assigning every node within `radius` of some center to a cluster.
        let mut cluster_of: Vec<Option<NodeId>> = vec![None; n];
        let mut best_dist: Vec<u32> = vec![u32::MAX; n];
        let mut parent_edge: Vec<Option<EdgeId>> = vec![None; n];
        for &center in &centers {
            let tree = bfs(graph, center, Some(self.radius))?;
            for v in graph.nodes() {
                if let Some(d) = tree.distance(v) {
                    if d < best_dist[v.index()] {
                        best_dist[v.index()] = d;
                        cluster_of[v.index()] = Some(center);
                        parent_edge[v.index()] = tree.parent_edge[v.index()];
                    }
                }
            }
        }
        // Add every clustered node's parent edge (the union of these is a
        // forest of BFS trees of depth ≤ radius).
        for v in graph.nodes() {
            if cluster_of[v.index()].is_some() {
                if let Some(edge) = parent_edge[v.index()] {
                    spanner.insert(edge);
                }
            }
        }
        // Nodes with no nearby center keep all their incident edges (with the
        // default probability this is a low-probability event and such nodes
        // have small expected degree contribution).
        let mut uncovered = 0usize;
        for v in graph.nodes() {
            if cluster_of[v.index()].is_none() {
                uncovered += 1;
                for ie in graph.incident_edges(v) {
                    spanner.insert(ie.edge);
                }
            }
        }
        // One edge between every pair of adjacent clusters.
        let mut between: HashMap<(NodeId, NodeId), EdgeId> = HashMap::new();
        for edge in graph.edges() {
            if let (Some(a), Some(b)) = (cluster_of[edge.u.index()], cluster_of[edge.v.index()]) {
                if a != b {
                    let key = if a < b { (a, b) } else { (b, a) };
                    between.entry(key).or_insert(edge.id);
                }
            }
        }
        spanner.extend(between.values().copied());

        // Meter the direct distributed execution: in each of the ρ + 2
        // rounds every edge carries one 4-byte token in each direction
        // (edges iterate in ascending ID order — canonical accumulation).
        let mut ledger = MessageLedger::new(edge_slot_count(graph.edge_ids()));
        for _round in 0..self.radius + 2 {
            ledger.start_round();
            for edge in graph.edge_ids() {
                ledger.record_edge(edge, TOKEN_BYTES);
                ledger.record_edge(edge, TOKEN_BYTES);
            }
        }
        let cost = CostReport {
            rounds: u64::from(self.radius) + 2,
            messages: ledger.total_messages(),
        };
        Ok(ClusterSpannerOutcome {
            spanner: spanner.into_iter().collect(),
            centers: centers.len(),
            uncovered_nodes: uncovered,
            cost,
            stretch: self.stretch(),
            ledger,
        })
    }
}

/// Result of a [`ClusterSpanner`] run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterSpannerOutcome {
    /// The spanner edge set.
    pub spanner: Vec<EdgeId>,
    /// Number of sampled centers.
    pub centers: usize,
    /// Nodes not covered by any center (they kept all their edges).
    pub uncovered_nodes: usize,
    /// Rounds and messages of the direct distributed execution (`Θ(ρ·m)`
    /// messages — this is what the two-stage scheme avoids paying).
    pub cost: CostReport,
    /// Stretch guarantee `4ρ + 1`.
    pub stretch: u32,
    /// Per-edge / per-round message accounting of the direct execution —
    /// the same meter every other path reports through.
    pub ledger: MessageLedger,
}

impl SpannerAlgorithm for ClusterSpanner {
    fn name(&self) -> String {
        format!("cluster-spanner(radius={})", self.radius)
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

    /// Cost-model hook for the adaptive planner: a radius-`ρ` clustering
    /// spanner keeps the cluster trees plus surviving crossing edges,
    /// `|S| ≈ min(m, 1.27 · n^{1+1/(ρ+1)})` — the scale calibrated at
    /// ρ = 1 against the recorded `BENCH_message_ledger.json` two-stage rows
    /// (see `docs/PLANNER.md`); construction messages ≈ one token per
    /// incidence per BFS wave, `2·m·(ρ+1)`.
    fn predicted_profile(&self, stats: &GraphStats) -> Option<SpannerProfile> {
        let n = stats.nodes as f64;
        let m = stats.edges as f64;
        let rho = f64::from(self.radius);
        Some(SpannerProfile {
            edges: m.min(1.27 * n.powf(1.0 + 1.0 / (rho + 1.0))),
            construction_messages: 2.0 * m * (rho + 1.0),
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
        assert!(ClusterSpanner::new(0).is_err());
        assert!(ClusterSpanner::new(11).is_err());
        assert_eq!(ClusterSpanner::new(2).unwrap().stretch(), 9);
    }

    #[test]
    fn stretch_bound_holds() {
        for radius in 1..=3u32 {
            let graph =
                connected_erdos_renyi(&GeneratorConfig::new(120, u64::from(radius)), 0.15).unwrap();
            let algorithm = ClusterSpanner::new(radius).unwrap();
            let outcome = algorithm.run(&graph, 9).unwrap();
            let report = verify_edge_stretch(&graph, outcome.spanner.iter().copied()).unwrap();
            assert!(
                report.satisfies(algorithm.stretch()),
                "radius={radius}: stretch {}",
                report.max_stretch
            );
        }
    }

    #[test]
    fn dense_graphs_are_sparsified() {
        // On a complete graph every node is within one hop of any center, so
        // a small explicit center probability keeps the spanner tiny (the
        // conservative default probability targets worst-case coverage and is
        // intentionally higher).
        let graph = complete_graph(&GeneratorConfig::new(200, 0)).unwrap();
        let algorithm = ClusterSpanner {
            radius: 1,
            center_probability: Some(0.1),
        };
        let outcome = algorithm.run(&graph, 3).unwrap();
        assert!(outcome.spanner.len() < graph.edge_count() / 2);
        assert!(outcome.centers > 0);
        assert_eq!(outcome.uncovered_nodes, 0);
        assert!(outcome.cost.messages >= graph.edge_count() as u64);
    }

    #[test]
    fn explicit_probability_one_covers_every_node() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(50, 1), 0.2).unwrap();
        let algorithm = ClusterSpanner {
            radius: 2,
            center_probability: Some(1.0),
        };
        let outcome = algorithm.run(&graph, 1).unwrap();
        assert_eq!(outcome.uncovered_nodes, 0);
        assert_eq!(outcome.centers, graph.node_count());
    }

    #[test]
    fn ledger_charges_every_edge_every_round() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(50, 4), 0.2).unwrap();
        let algorithm = ClusterSpanner::new(2).unwrap();
        let outcome = algorithm.run(&graph, 3).unwrap();
        let ledger = &outcome.ledger;
        assert_eq!(ledger.total_messages(), outcome.cost.messages);
        assert_eq!(ledger.rounds(), outcome.cost.rounds);
        // Every edge carries 2 messages in every round: uniform per-edge
        // totals and congestion exactly 2.
        let per_edge = 2 * (u64::from(algorithm.radius) + 2);
        assert!(ledger.messages_per_edge().iter().all(|&c| c == per_edge));
        assert_eq!(ledger.max_congestion(), 2);
        assert_eq!(ledger.total_bytes(), 4 * ledger.total_messages());
    }

    #[test]
    fn trait_round_complexity_is_small() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(60, 2), 0.2).unwrap();
        let result = ClusterSpanner::new(2)
            .unwrap()
            .construct(&graph, 5)
            .unwrap();
        assert_eq!(result.cost.rounds, 4);
        assert_eq!(result.multiplicative_stretch, 9);
    }
}
