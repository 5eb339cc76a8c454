//! A mutable overlay over a frozen [`CsrGraph`], for dynamic-graph (churn)
//! executions.
//!
//! The runtime freezes its communication graph once ([`MultiGraph::freeze`])
//! and keeps the packed [`CsrGraph`] as its only copy — the right trade for
//! static executions, but a churn stream needs edge inserts/deletes and node
//! joins/leaves *between* rounds without paying a full re-freeze per event.
//! [`OverlayGraph`] is that middle ground: it clones the frozen incidence
//! lists into per-node `Vec`s once at construction and then applies events
//! in place, while keeping the deterministic iteration orders every
//! bit-identity test depends on:
//!
//! * adjacency lists preserve CSR (= insertion) order; inserted edges append,
//!   deleted edges are filtered out in place;
//! * the live-edge set iterates in ascending [`EdgeId`] order (a `BTreeMap`),
//!   so rebuild comparators and ledger sizing see a canonical edge sequence;
//! * node activity is a plain `Vec<bool>` — leaves deactivate, joins
//!   reactivate, and the node ID space never changes (the LOCAL model's
//!   `0..n` range stays the address space, as in the runtime's crash plane).
//!
//! The overlay implements [`Topology`], so traversal routines and spanner
//! verifiers run on it unchanged, and [`OverlayGraph::to_multigraph`]
//! materializes the current live graph for from-scratch rebuild baselines.
//!
//! # Examples
//!
//! ```
//! use freelunch_graph::overlay::OverlayGraph;
//! use freelunch_graph::{MultiGraph, NodeId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = MultiGraph::new(3);
//! let e01 = g.add_edge(NodeId::new(0), NodeId::new(1))?;
//! g.add_edge(NodeId::new(1), NodeId::new(2))?;
//! let frozen = g.freeze();
//!
//! let mut overlay = OverlayGraph::new(&frozen);
//! overlay.remove_edge(e01)?;
//! let e02 = overlay.insert_edge(NodeId::new(0), NodeId::new(2))?;
//! assert_eq!(overlay.live_edge_count(), 2);
//! assert_eq!(overlay.edge_endpoints(e02), Some((NodeId::new(0), NodeId::new(2))));
//! # Ok(())
//! # }
//! ```

use crate::csr::{CsrGraph, Topology};
use crate::error::{GraphError, GraphResult};
use crate::multigraph::{IncidentEdge, MultiGraph};
use crate::{EdgeId, NodeId};
use std::collections::BTreeMap;

/// A mutable edge/node-activity overlay over a frozen [`CsrGraph`].
///
/// See the [module docs](self) for the ordering guarantees.
#[derive(Debug, Clone)]
pub struct OverlayGraph {
    /// Per-node incidence lists, initially cloned from the CSR slices.
    adjacency: Vec<Vec<IncidentEdge>>,
    /// Node activity: `false` for nodes that have left the network.
    active: Vec<bool>,
    /// Live edges in ascending-ID order.
    live: BTreeMap<EdgeId, (NodeId, NodeId)>,
    /// Next automatically assigned edge ID (never reuses a seen ID).
    next_edge_id: u64,
}

impl OverlayGraph {
    /// Builds the overlay mirroring `base` exactly: every edge live, every
    /// node active.
    pub fn new(base: &CsrGraph) -> Self {
        let n = base.node_count();
        let adjacency = (0..n as u32)
            .map(|v| base.incident_edges(NodeId::new(v)).to_vec())
            .collect();
        let mut live = BTreeMap::new();
        let mut next_edge_id = 0u64;
        for edge in base.edges() {
            live.insert(edge.id, (edge.u, edge.v));
            next_edge_id = next_edge_id.max(edge.id.raw() + 1);
        }
        OverlayGraph {
            adjacency,
            active: vec![true; n],
            live,
            next_edge_id,
        }
    }

    /// Number of nodes (the fixed `0..n` address space, active or not).
    #[inline]
    pub(crate) fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of live edges.
    #[inline]
    pub fn live_edge_count(&self) -> usize {
        self.live.len()
    }

    /// Whether `node` is currently active (has not left the network).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn is_active(&self, node: NodeId) -> bool {
        self.active[node.index()]
    }

    /// The incidence list of `node` over the live edge set, in CSR-then-
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn incident_edges(&self, node: NodeId) -> &[IncidentEdge] {
        &self.adjacency[node.index()]
    }

    /// The endpoints of a live edge, or `None` if the edge is not live.
    #[inline]
    pub fn edge_endpoints(&self, edge: EdgeId) -> Option<(NodeId, NodeId)> {
        self.live.get(&edge).copied()
    }

    /// Iterator over the live edges in ascending [`EdgeId`] order.
    pub fn live_edges(&self) -> impl Iterator<Item = (EdgeId, (NodeId, NodeId))> + '_ {
        self.live.iter().map(|(&id, &endpoints)| (id, endpoints))
    }

    /// Inserts an edge with the next free identifier and returns it.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range or `u == v`.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> GraphResult<EdgeId> {
        let id = EdgeId::new(self.next_edge_id);
        self.insert_edge_with_id(id, u, v)?;
        Ok(id)
    }

    /// Inserts an edge with an explicitly chosen identifier, as a scheduled
    /// churn event does.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range, `u == v`, or the
    /// identifier is already live.
    pub(crate) fn insert_edge_with_id(
        &mut self,
        id: EdgeId,
        u: NodeId,
        v: NodeId,
    ) -> GraphResult<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.live.contains_key(&id) {
            return Err(GraphError::DuplicateEdgeId { edge: id });
        }
        self.live.insert(id, (u, v));
        self.adjacency[u.index()].push(IncidentEdge {
            edge: id,
            neighbor: v,
        });
        self.adjacency[v.index()].push(IncidentEdge {
            edge: id,
            neighbor: u,
        });
        self.next_edge_id = self.next_edge_id.max(id.raw() + 1);
        Ok(())
    }

    /// Removes a live edge and returns its endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if the edge is not live.
    pub fn remove_edge(&mut self, edge: EdgeId) -> GraphResult<(NodeId, NodeId)> {
        let (u, v) = self
            .live
            .remove(&edge)
            .ok_or(GraphError::UnknownEdge { edge })?;
        self.adjacency[u.index()].retain(|ie| ie.edge != edge);
        self.adjacency[v.index()].retain(|ie| ie.edge != edge);
        Ok((u, v))
    }

    /// Marks `node` as having left the network. Its incident live edges are
    /// untouched — a churn driver deletes them explicitly (in canonical
    /// order) so the accounting sees every removal.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if `node` is out of range.
    pub fn deactivate_node(&mut self, node: NodeId) -> GraphResult<()> {
        self.check_node(node)?;
        self.active[node.index()] = false;
        Ok(())
    }

    /// Marks `node` as active again (a join of a previously departed node).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if `node` is out of range.
    pub fn activate_node(&mut self, node: NodeId) -> GraphResult<()> {
        self.check_node(node)?;
        self.active[node.index()] = true;
        Ok(())
    }

    /// Materializes the current live graph (all nodes, live edges in
    /// ascending-ID order) — the input a from-scratch rebuild baseline runs
    /// on.
    pub fn to_multigraph(&self) -> MultiGraph {
        let mut graph = MultiGraph::with_capacity(self.node_count(), self.live.len());
        for (&id, &(u, v)) in &self.live {
            graph
                .add_edge_with_id(id, u, v)
                .expect("live overlay edges are valid by construction");
        }
        graph
    }
}

impl Topology for OverlayGraph {
    fn node_count(&self) -> usize {
        OverlayGraph::node_count(self)
    }

    fn incident_edges(&self, node: NodeId) -> &[IncidentEdge] {
        OverlayGraph::incident_edges(self, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn base() -> CsrGraph {
        let mut g = MultiGraph::new(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g.freeze()
    }

    #[test]
    fn fresh_overlay_mirrors_the_base() {
        let frozen = base();
        let overlay = OverlayGraph::new(&frozen);
        assert_eq!(overlay.node_count(), 4);
        assert_eq!(overlay.live_edge_count(), 3);
        assert_eq!(overlay.active.iter().filter(|&&a| a).count(), 4);
        assert_eq!(overlay.next_edge_id, 3);
        for v in frozen.nodes() {
            assert_eq!(overlay.incident_edges(v), frozen.incident_edges(v));
            assert!(overlay.is_active(v));
        }
        let ids: Vec<EdgeId> = overlay.live_edges().map(|(id, _)| id).collect();
        assert_eq!(ids, frozen.edge_ids().collect::<Vec<_>>());
    }

    #[test]
    fn insert_and_remove_update_both_endpoints() {
        let mut overlay = OverlayGraph::new(&base());
        let id = overlay.insert_edge(n(0), n(3)).unwrap();
        assert_eq!(id, EdgeId::new(3));
        assert_eq!(overlay.edge_endpoints(id), Some((n(0), n(3))));
        assert_eq!(overlay.incident_edges(n(0)).len(), 2);
        assert_eq!(overlay.incident_edges(n(3)).len(), 2);

        overlay.remove_edge(EdgeId::new(1)).unwrap();
        assert_eq!(overlay.edge_endpoints(EdgeId::new(1)), None);
        assert_eq!(overlay.incident_edges(n(1)).len(), 1);
        assert_eq!(overlay.incident_edges(n(2)).len(), 1);
        assert!(overlay.remove_edge(EdgeId::new(1)).is_err());
        // The slot space still covers the deleted edge.
        assert_eq!(overlay.next_edge_id, 4);
    }

    #[test]
    fn invalid_mutations_are_rejected() {
        let mut overlay = OverlayGraph::new(&base());
        assert!(matches!(
            overlay.insert_edge(n(0), n(0)),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            overlay.insert_edge(n(0), n(9)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            overlay.insert_edge_with_id(EdgeId::new(0), n(0), n(2)),
            Err(GraphError::DuplicateEdgeId { .. })
        ));
        assert!(overlay.deactivate_node(n(9)).is_err());
    }

    #[test]
    fn node_activity_toggles_without_touching_edges() {
        let mut overlay = OverlayGraph::new(&base());
        overlay.deactivate_node(n(1)).unwrap();
        assert!(!overlay.is_active(n(1)));
        assert_eq!(overlay.active.iter().filter(|&&a| a).count(), 3);
        // Edge deletion is the driver's job; deactivation alone keeps them.
        assert_eq!(overlay.incident_edges(n(1)).len(), 2);
        overlay.activate_node(n(1)).unwrap();
        assert!(overlay.is_active(n(1)));
    }

    #[test]
    fn to_multigraph_materializes_the_live_graph() {
        let mut overlay = OverlayGraph::new(&base());
        overlay.remove_edge(EdgeId::new(0)).unwrap();
        let id = overlay.insert_edge(n(0), n(2)).unwrap();
        let graph = overlay.to_multigraph();
        assert_eq!(graph.node_count(), 4);
        assert_eq!(graph.edge_count(), 3);
        assert!(!graph.contains_edge(EdgeId::new(0)));
        assert_eq!(graph.endpoints(id).unwrap(), (n(0), n(2)));
        // Ascending-ID insertion order.
        let ids: Vec<u64> = graph.edge_ids().map(EdgeId::raw).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn explicit_ids_advance_the_auto_counter() {
        let mut overlay = OverlayGraph::new(&base());
        overlay
            .insert_edge_with_id(EdgeId::new(10), n(0), n(2))
            .unwrap();
        let next = overlay.insert_edge(n(1), n(3)).unwrap();
        assert_eq!(next, EdgeId::new(11));
        assert_eq!(overlay.next_edge_id, 12);
    }

    #[test]
    fn topology_trait_runs_traversals_on_the_overlay() {
        let mut overlay = OverlayGraph::new(&base());
        overlay.remove_edge(EdgeId::new(2)).unwrap();
        let distances = crate::traversal::bfs_distances(&overlay, n(0)).unwrap();
        assert_eq!(distances[2], Some(2));
        assert_eq!(distances[3], None);
    }
}
