//! Spanner verification: measuring the stretch actually achieved by an edge
//! set `S ⊆ E`.
//!
//! The paper uses the classic equivalent definition of an `α`-spanner
//! (footnote 1): `H = (V, S)` is an `α`-spanner of `G = (V, E)` iff for every
//! edge `(u, v) ∈ E` the subgraph `H` admits a `u`–`v` path of length at most
//! `α`. [`verify_edge_stretch`] measures exactly this quantity.

use crate::error::{GraphError, GraphResult};
use crate::multigraph::MultiGraph;
use crate::traversal::bfs_distances;
use crate::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};

/// Per-edge stretch statistics of a candidate spanner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StretchReport {
    /// Largest stretch observed over all edges of `G` (`u,v` adjacent in `G`;
    /// stretch is `dist_H(u, v)`).
    pub max_stretch: u32,
    /// Average stretch over all edges of `G`.
    pub mean_stretch: f64,
    /// Number of edges of `G` whose endpoints are disconnected in `H`
    /// (infinite stretch). A valid spanner of a connected graph has none.
    pub disconnected_pairs: usize,
    /// Number of edges examined.
    pub edges_checked: usize,
    /// Number of spanner edges (counting multiplicities).
    pub spanner_edges: usize,
}

impl StretchReport {
    /// Returns `true` if every adjacent pair of `G` is connected in `H` and
    /// the stretch never exceeds `bound`.
    pub fn satisfies(&self, bound: u32) -> bool {
        self.disconnected_pairs == 0 && self.max_stretch <= bound
    }
}

/// Measures the per-edge stretch of the subgraph spanned by `spanner_edges`
/// against the original graph.
///
/// Runs one BFS in `H` per node of `G` that has at least one incident edge,
/// i.e. `O(n·|S|)` time.
///
/// # Errors
///
/// Returns an error if any edge ID in `spanner_edges` does not exist in
/// `graph`.
pub fn verify_edge_stretch(
    graph: &MultiGraph,
    spanner_edges: impl IntoIterator<Item = EdgeId>,
) -> GraphResult<StretchReport> {
    let spanner = graph.edge_subgraph(spanner_edges)?;
    verify_edge_stretch_subgraph(graph, &spanner)
}

/// Same as [`verify_edge_stretch`] but takes the spanner as an already-built
/// subgraph over the same node set.
///
/// # Errors
///
/// Returns an error if the node counts of the two graphs differ.
pub(crate) fn verify_edge_stretch_subgraph(
    graph: &MultiGraph,
    spanner: &MultiGraph,
) -> GraphResult<StretchReport> {
    if graph.node_count() != spanner.node_count() {
        return Err(GraphError::invalid_parameter(format!(
            "spanner has {} nodes but the graph has {}",
            spanner.node_count(),
            graph.node_count()
        )));
    }

    let mut max_stretch = 0u32;
    let mut total_stretch = 0f64;
    let mut disconnected = 0usize;
    let mut checked = 0usize;

    for u in graph.nodes() {
        // Only BFS from nodes that are the smaller endpoint of some edge, so
        // each undirected edge is checked exactly once.
        let mut targets: Vec<NodeId> = graph
            .incident_edges(u)
            .iter()
            .filter(|ie| ie.neighbor > u)
            .map(|ie| ie.neighbor)
            .collect();
        if targets.is_empty() {
            continue;
        }
        targets.sort_unstable();
        targets.dedup();
        let dist = bfs_distances(spanner, u)?;
        // Count parallel edges once per distinct adjacent pair: the stretch
        // definition is about adjacency, and multiplicities would only skew
        // the mean.
        for v in targets {
            checked += 1;
            match dist[v.index()] {
                Some(d) => {
                    max_stretch = max_stretch.max(d);
                    total_stretch += f64::from(d);
                }
                None => disconnected += 1,
            }
        }
    }

    let mean_stretch = if checked > disconnected {
        total_stretch / (checked - disconnected) as f64
    } else {
        0.0
    };

    Ok(StretchReport {
        max_stretch,
        mean_stretch,
        disconnected_pairs: disconnected,
        edges_checked: checked,
        spanner_edges: spanner.edge_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Cycle on 6 nodes: 0-1-2-3-4-5-0.
    fn cycle6() -> MultiGraph {
        MultiGraph::from_edges(
            6,
            [
                (n(0), n(1)),
                (n(1), n(2)),
                (n(2), n(3)),
                (n(3), n(4)),
                (n(4), n(5)),
                (n(5), n(0)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn full_graph_is_a_one_spanner() {
        let g = cycle6();
        let report = verify_edge_stretch(&g, g.edge_ids()).unwrap();
        assert_eq!(report.max_stretch, 1);
        assert_eq!(report.mean_stretch, 1.0);
        assert_eq!(report.disconnected_pairs, 0);
        assert_eq!(report.edges_checked, 6);
        assert!(report.satisfies(1));
    }

    #[test]
    fn removing_one_cycle_edge_gives_stretch_n_minus_1() {
        let g = cycle6();
        // Drop edge (5,0): its endpoints are now 5 hops apart in H.
        let spanner: Vec<EdgeId> = g.edge_ids().filter(|id| id.raw() != 5).collect();
        let report = verify_edge_stretch(&g, spanner).unwrap();
        assert_eq!(report.max_stretch, 5);
        assert_eq!(report.disconnected_pairs, 0);
        assert!(report.satisfies(5));
        assert!(!report.satisfies(4));
    }

    #[test]
    fn empty_spanner_of_connected_graph_is_disconnected() {
        let g = cycle6();
        let report = verify_edge_stretch(&g, std::iter::empty()).unwrap();
        assert_eq!(report.disconnected_pairs, 6);
        assert_eq!(report.spanner_edges, 0);
        assert!(!report.satisfies(100));
    }

    #[test]
    fn unknown_spanner_edge_is_an_error() {
        let g = cycle6();
        assert!(verify_edge_stretch(&g, [EdgeId::new(99)]).is_err());
    }

    #[test]
    fn node_count_mismatch_is_an_error() {
        let g = cycle6();
        let h = MultiGraph::new(3);
        assert!(verify_edge_stretch_subgraph(&g, &h).is_err());
    }

    #[test]
    fn parallel_edges_checked_once_per_pair() {
        let mut g = MultiGraph::new(2);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(1)).unwrap();
        let report = verify_edge_stretch(&g, [EdgeId::new(0)]).unwrap();
        assert_eq!(report.edges_checked, 1);
        assert_eq!(report.max_stretch, 1);
    }
}
