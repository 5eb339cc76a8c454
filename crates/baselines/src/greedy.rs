//! The classical greedy `α`-spanner (Althöfer et al.): a centralized quality
//! reference for the size/stretch trade-off.
//!
//! Edges are scanned once; an edge `(u, v)` joins the spanner iff the
//! current spanner does not already contain a `u`–`v` path of length at most
//! `α`. For `α = 2k−1` the result has `O(n^{1+1/k})` edges — essentially the
//! best size achievable for that stretch — so it marks the quality target
//! the distributed constructions are compared against.
//!
//! As a *distributed* procedure this algorithm is hopeless: it needs the
//! whole edge list in one place. Its cost is modelled as collecting the
//! topology at one node (`Θ(m)` messages, diameter-ish rounds), which is
//! also the honest lower bound for any such centralized approach.

use crate::error::{BaselineError, BaselineResult};
use freelunch_core::spanner_api::{SpannerAlgorithm, SpannerResult};
use freelunch_core::CoreResult;
use freelunch_graph::traversal::shortest_path_len;
use freelunch_graph::{EdgeId, MultiGraph};
use freelunch_runtime::CostReport;
use serde::{Deserialize, Serialize};

/// The greedy spanner with stretch bound `alpha`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GreedySpanner {
    /// Maximum allowed stretch for adjacent pairs.
    pub alpha: u32,
}

impl GreedySpanner {
    /// Creates the algorithm.
    ///
    /// # Errors
    ///
    /// Returns an error if `alpha` is zero.
    pub fn new(alpha: u32) -> BaselineResult<Self> {
        if alpha == 0 {
            return Err(BaselineError::invalid_parameter("alpha must be at least 1"));
        }
        Ok(GreedySpanner { alpha })
    }

    /// Runs the greedy construction, returning the spanner edges.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty.
    pub(crate) fn run(&self, graph: &MultiGraph) -> BaselineResult<Vec<EdgeId>> {
        if graph.node_count() == 0 {
            return Err(BaselineError::invalid_parameter(
                "the input graph has no nodes",
            ));
        }
        let mut spanner = MultiGraph::new(graph.node_count());
        let mut edges = Vec::new();
        for edge in graph.edges() {
            let reachable =
                shortest_path_len(&spanner, edge.u, edge.v, Some(self.alpha))?.is_some();
            if !reachable {
                spanner.add_edge_with_id(edge.id, edge.u, edge.v)?;
                edges.push(edge.id);
            }
        }
        Ok(edges)
    }
}

impl SpannerAlgorithm for GreedySpanner {
    fn name(&self) -> String {
        format!("greedy(alpha={})", self.alpha)
    }

    fn construct(&self, graph: &MultiGraph, _seed: u64) -> CoreResult<SpannerResult> {
        let edges = self
            .run(graph)
            .map_err(|e| freelunch_core::CoreError::invalid_parameter(e.to_string()))?;
        // Cost model: collect the topology at one node (one message per edge
        // forwarded along a BFS tree of depth ≤ n) and broadcast the result.
        let cost = CostReport {
            rounds: graph.node_count() as u64,
            messages: 2 * graph.edge_count() as u64,
        };
        Ok(SpannerResult {
            algorithm: self.name(),
            edges,
            multiplicative_stretch: self.alpha,
            additive_stretch: 0,
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{complete_graph, connected_erdos_renyi, GeneratorConfig};
    use freelunch_graph::spanner_check::verify_edge_stretch;

    #[test]
    fn stretch_bound_holds() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(80, 1), 0.3).unwrap();
        for alpha in [1u32, 3, 5] {
            let edges = GreedySpanner::new(alpha).unwrap().run(&graph).unwrap();
            let report = verify_edge_stretch(&graph, edges.iter().copied()).unwrap();
            assert!(
                report.satisfies(alpha),
                "alpha={alpha}: {}",
                report.max_stretch
            );
        }
    }

    #[test]
    fn alpha_one_keeps_one_edge_per_adjacent_pair() {
        let mut graph = MultiGraph::new(2);
        graph
            .add_edge(
                freelunch_graph::NodeId::new(0),
                freelunch_graph::NodeId::new(1),
            )
            .unwrap();
        graph
            .add_edge(
                freelunch_graph::NodeId::new(0),
                freelunch_graph::NodeId::new(1),
            )
            .unwrap();
        let edges = GreedySpanner::new(1).unwrap().run(&graph).unwrap();
        assert_eq!(edges.len(), 1);
    }

    #[test]
    fn higher_alpha_gives_smaller_spanners() {
        let graph = complete_graph(&GeneratorConfig::new(60, 0)).unwrap();
        let dense = GreedySpanner::new(1).unwrap().run(&graph).unwrap();
        let sparse = GreedySpanner::new(3).unwrap().run(&graph).unwrap();
        let sparser = GreedySpanner::new(5).unwrap().run(&graph).unwrap();
        assert!(sparse.len() < dense.len());
        assert!(sparser.len() <= sparse.len());
        // For alpha = 3 on K_60 the greedy spanner is triangle-free, hence has
        // at most n²/4 edges (Mantel), far below the full n(n−1)/2.
        assert!(sparse.len() <= 60 * 60 / 4);
    }

    #[test]
    fn parameter_validation_and_trait() {
        assert!(GreedySpanner::new(0).is_err());
        let graph = connected_erdos_renyi(&GeneratorConfig::new(40, 2), 0.2).unwrap();
        let result = GreedySpanner::new(3).unwrap().construct(&graph, 0).unwrap();
        assert_eq!(result.multiplicative_stretch, 3);
        assert!(result.cost.messages >= graph.edge_count() as u64);
        assert!(GreedySpanner::new(2)
            .unwrap()
            .run(&MultiGraph::new(0))
            .is_err());
    }
}
