//! Cluster collections and cluster-graph contraction (Section 2 of the paper).
//!
//! A *cluster collection* `C = {C_1, …, C_l}` is a family of non-empty,
//! pairwise-disjoint node subsets (the union need not cover all nodes). The
//! *cluster graph* `G(C)` has one node per cluster and one edge per edge of
//! `G` crossing between two distinct clusters — so it typically contains
//! parallel edges even when `G` is simple. Crucially, every edge of `G(C)`
//! keeps the unique ID of the underlying crossing edge of `G`, which is what
//! allows the distributed implementation (Section 5) to "peel off" all edges
//! parallel to a query edge by exchanging edge IDs.

use crate::error::{GraphError, GraphResult};
use crate::multigraph::MultiGraph;
use crate::{ClusterId, EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Assignment of (some) nodes of a graph to pairwise-disjoint clusters.
///
/// Nodes assigned `None` are *unclustered*: they do not appear in the cluster
/// graph. Cluster indices must form the contiguous range `0..cluster_count`.
///
/// # Examples
///
/// ```
/// use freelunch_graph::cluster::ClusterAssignment;
/// use freelunch_graph::{ClusterId, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut assignment = ClusterAssignment::unclustered(4);
/// assignment.assign(NodeId::new(0), ClusterId::new(0))?;
/// assignment.assign(NodeId::new(1), ClusterId::new(0))?;
/// assignment.assign(NodeId::new(2), ClusterId::new(1))?;
/// assert_eq!(assignment.cluster_count(), 2);
/// assert_eq!(assignment.members(ClusterId::new(0)), vec![NodeId::new(0), NodeId::new(1)]);
/// assert!(assignment.cluster_of(NodeId::new(3)).is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterAssignment {
    cluster_of: Vec<Option<ClusterId>>,
    cluster_count: usize,
}

impl ClusterAssignment {
    /// Creates an assignment over `node_count` nodes with every node
    /// unclustered and no clusters declared.
    pub fn unclustered(node_count: usize) -> Self {
        ClusterAssignment {
            cluster_of: vec![None; node_count],
            cluster_count: 0,
        }
    }

    /// Number of nodes covered by this assignment (clustered or not).
    pub(crate) fn node_count(&self) -> usize {
        self.cluster_of.len()
    }

    /// Number of declared clusters.
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Cluster of `node`, or `None` if the node is unclustered.
    pub fn cluster_of(&self, node: NodeId) -> Option<ClusterId> {
        self.cluster_of.get(node.index()).copied().flatten()
    }

    /// Assigns `node` to `cluster`, growing the declared cluster count if
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns an error if `node` is out of range.
    pub fn assign(&mut self, node: NodeId, cluster: ClusterId) -> GraphResult<()> {
        if node.index() >= self.cluster_of.len() {
            return Err(GraphError::NodeOutOfRange {
                node,
                node_count: self.cluster_of.len(),
            });
        }
        self.cluster_of[node.index()] = Some(cluster);
        self.cluster_count = self.cluster_count.max(cluster.index() + 1);
        Ok(())
    }

    /// Members of `cluster`, sorted by node index.
    pub fn members(&self, cluster: ClusterId) -> Vec<NodeId> {
        self.cluster_of
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == Some(cluster))
            .map(|(i, _)| NodeId::from_usize(i))
            .collect()
    }

    /// Sizes of all clusters, indexed by cluster id.
    pub(crate) fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.cluster_count];
        for cluster in self.cluster_of.iter().flatten() {
            sizes[cluster.index()] += 1;
        }
        sizes
    }

    /// Returns an error if any declared cluster is empty (the paper requires
    /// clusters to be non-empty).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] naming the first empty cluster.
    pub(crate) fn require_nonempty_clusters(&self) -> GraphResult<()> {
        for (i, size) in self.cluster_sizes().iter().enumerate() {
            if *size == 0 {
                return Err(GraphError::invalid_parameter(format!(
                    "cluster C{i} is empty"
                )));
            }
        }
        Ok(())
    }
}

/// The result of contracting a graph by a cluster assignment.
#[derive(Debug, Clone)]
pub struct Contraction {
    /// The cluster graph `G(C)`: node `i` is cluster `C_i`; every edge keeps
    /// the ID of the underlying crossing edge of the parent graph.
    pub graph: MultiGraph,
    /// For every surviving edge ID, the endpoints it had in the parent graph.
    pub parent_endpoints: HashMap<EdgeId, (NodeId, NodeId)>,
    /// Number of parent-graph edges dropped because they were internal to a
    /// cluster or incident to an unclustered node.
    pub dropped_edges: usize,
}

/// Contracts `graph` according to `assignment`, producing the cluster graph
/// `G(C)` of Section 2.
///
/// Edges with both endpoints in the same cluster and edges incident to an
/// unclustered node are dropped; edges crossing between two distinct clusters
/// survive (with multiplicity) and keep their IDs.
///
/// # Errors
///
/// Returns an error if the assignment covers a different number of nodes than
/// the graph has, or if it declares an empty cluster.
pub fn contract(graph: &MultiGraph, assignment: &ClusterAssignment) -> GraphResult<Contraction> {
    if assignment.node_count() != graph.node_count() {
        return Err(GraphError::invalid_parameter(format!(
            "assignment covers {} nodes but the graph has {}",
            assignment.node_count(),
            graph.node_count()
        )));
    }
    assignment.require_nonempty_clusters()?;

    let mut cluster_graph = MultiGraph::new(assignment.cluster_count());
    let mut parent_endpoints = HashMap::new();
    let mut dropped = 0usize;

    for edge in graph.edges() {
        let cu = assignment.cluster_of(edge.u);
        let cv = assignment.cluster_of(edge.v);
        match (cu, cv) {
            (Some(a), Some(b)) if a != b => {
                cluster_graph.add_edge_with_id(edge.id, a.as_node(), b.as_node())?;
                parent_endpoints.insert(edge.id, (edge.u, edge.v));
            }
            _ => dropped += 1,
        }
    }

    Ok(Contraction {
        graph: cluster_graph,
        parent_endpoints,
        dropped_edges: dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }
    fn c(i: u32) -> ClusterId {
        ClusterId::new(i)
    }

    /// Two triangles {0,1,2} and {3,4,5} joined by edges (2,3) and (1,4),
    /// plus a pendant node 6 attached to 5.
    fn two_triangles() -> MultiGraph {
        MultiGraph::from_edges(
            7,
            [
                (n(0), n(1)),
                (n(1), n(2)),
                (n(2), n(0)),
                (n(3), n(4)),
                (n(4), n(5)),
                (n(5), n(3)),
                (n(2), n(3)),
                (n(1), n(4)),
                (n(5), n(6)),
            ],
        )
        .unwrap()
    }

    fn triangle_assignment() -> ClusterAssignment {
        let mut a = ClusterAssignment::unclustered(7);
        for i in 0..3 {
            a.assign(n(i), c(0)).unwrap();
        }
        for i in 3..6 {
            a.assign(n(i), c(1)).unwrap();
        }
        // node 6 stays unclustered
        a
    }

    #[test]
    fn assignment_basics() {
        let a = triangle_assignment();
        assert_eq!(a.node_count(), 7);
        assert_eq!(a.cluster_count(), 2);
        assert_eq!(a.cluster_of(n(0)), Some(c(0)));
        assert_eq!(a.cluster_of(n(6)), None);
        assert_eq!(a.members(c(1)), vec![n(3), n(4), n(5)]);
        assert_eq!(a.cluster_sizes(), vec![3, 3]);
        assert!(a.require_nonempty_clusters().is_ok());
    }

    #[test]
    fn assignment_rejects_out_of_range_node() {
        let mut a = ClusterAssignment::unclustered(2);
        assert!(a.assign(n(5), c(0)).is_err());
    }

    #[test]
    fn empty_cluster_detected() {
        let mut a = ClusterAssignment::unclustered(3);
        a.assign(n(0), c(1)).unwrap(); // cluster 0 declared implicitly but empty
        assert!(a.require_nonempty_clusters().is_err());
    }

    #[test]
    fn contraction_keeps_crossing_edges_with_ids() {
        let g = two_triangles();
        let a = triangle_assignment();
        let contraction = contract(&g, &a).unwrap();
        let cg = &contraction.graph;

        assert_eq!(cg.node_count(), 2);
        // The two crossing edges (2,3) and (1,4) survive as parallel edges.
        assert_eq!(cg.edge_count(), 2);
        assert!(!cg.is_simple());
        let surviving: Vec<u64> = cg.edge_ids().map(EdgeId::raw).collect();
        assert_eq!(surviving, vec![6, 7]);
        // Intra-cluster edges (6 of them) and the pendant edge (5,6) are dropped.
        assert_eq!(contraction.dropped_edges, 7);
        // Parent endpoints recorded for surviving edges.
        assert_eq!(contraction.parent_endpoints[&EdgeId::new(6)], (n(2), n(3)));
        assert_eq!(contraction.parent_endpoints[&EdgeId::new(7)], (n(1), n(4)));
    }

    #[test]
    fn contraction_node_count_mismatch() {
        let g = two_triangles();
        let a = ClusterAssignment::unclustered(3);
        assert!(contract(&g, &a).is_err());
    }

    #[test]
    fn contraction_of_fully_unclustered_graph_is_empty() {
        let g = two_triangles();
        let a = ClusterAssignment::unclustered(7);
        let contraction = contract(&g, &a).unwrap();
        assert_eq!(contraction.graph.node_count(), 0);
        assert_eq!(contraction.graph.edge_count(), 0);
        assert_eq!(contraction.dropped_edges, g.edge_count());
    }

    #[test]
    fn repeated_contraction_preserves_edge_id_uniqueness() {
        // Contract twice: cluster graph of a cluster graph. Edge IDs must stay
        // unique and traceable to G_0.
        let g = two_triangles();
        let a = triangle_assignment();
        let first = contract(&g, &a).unwrap();

        let mut second_assignment = ClusterAssignment::unclustered(first.graph.node_count());
        second_assignment.assign(n(0), c(0)).unwrap();
        second_assignment.assign(n(1), c(0)).unwrap();
        let second = contract(&first.graph, &second_assignment).unwrap();
        // Both surviving edges of the first contraction are now internal.
        assert_eq!(second.graph.edge_count(), 0);
        assert_eq!(second.dropped_edges, 2);
        assert_eq!(second.graph.node_count(), 1);
    }
}
