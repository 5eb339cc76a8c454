//! The [`MultiGraph`] substrate: an undirected graph with unique edge IDs and
//! support for parallel edges.
//!
//! The paper's `Sampler` algorithm operates on a sequence `G_0, G_1, …, G_k`
//! of graphs where `G_{j+1}` is the *cluster graph* induced by contracting
//! clusters of `G_j`. Even when the communication graph `G_0` is simple, the
//! cluster graphs typically contain edge multiplicities (Section 2), so the
//! substrate must represent parallel edges natively and preserve unique edge
//! IDs across contraction.

use crate::error::{GraphError, GraphResult};
use crate::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An undirected edge with its unique identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Unique identifier of the edge (known to both endpoints in the model).
    pub id: EdgeId,
    /// First endpoint.
    pub u: NodeId,
    /// Second endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Returns the endpoint different from `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of this edge.
    pub fn other(&self, node: NodeId) -> NodeId {
        if node == self.u {
            self.v
        } else if node == self.v {
            self.u
        } else {
            panic!("{node} is not an endpoint of edge {}", self.id)
        }
    }
}

/// An entry of a node's adjacency list: an incident edge together with the
/// opposite endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IncidentEdge {
    /// The incident edge.
    pub edge: EdgeId,
    /// The other endpoint of the edge.
    pub neighbor: NodeId,
}

/// An undirected multigraph with unique edge identifiers.
///
/// Nodes are the contiguous range `0..node_count`. Parallel edges are
/// allowed; self-loops are rejected (a node never needs to send itself a
/// message in the LOCAL model). Edge identifiers may either be assigned
/// automatically ([`MultiGraph::add_edge`]) or supplied explicitly
/// ([`MultiGraph::add_edge_with_id`]) — the latter is what cluster
/// contraction uses to preserve IDs across levels.
///
/// # Examples
///
/// ```
/// use freelunch_graph::{MultiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = MultiGraph::new(3);
/// let e01 = g.add_edge(NodeId::new(0), NodeId::new(1))?;
/// let e12 = g.add_edge(NodeId::new(1), NodeId::new(2))?;
/// // a parallel edge between the same endpoints:
/// let e01b = g.add_edge(NodeId::new(0), NodeId::new(1))?;
///
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.degree(NodeId::new(1)), 3);
/// assert_eq!(g.distinct_neighbors(NodeId::new(1)).len(), 2);
/// assert_eq!(g.edges_between(NodeId::new(0), NodeId::new(1)), vec![e01, e01b]);
/// assert_eq!(g.other_endpoint(e12, NodeId::new(2))?, NodeId::new(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MultiGraph {
    node_count: usize,
    edges: Vec<Edge>,
    /// Storage index of every edge whose raw ID differs from its index in
    /// `edges`. An edge stored at the index equal to its raw ID (every edge
    /// [`MultiGraph::add_edge`] creates, until a removal moves it) is found
    /// by position and has no entry.
    edge_index: HashMap<EdgeId, usize>,
    adjacency: Vec<Vec<IncidentEdge>>,
    next_edge_id: u64,
}

impl MultiGraph {
    /// Creates an empty graph with `node_count` isolated nodes.
    pub fn new(node_count: usize) -> Self {
        MultiGraph {
            node_count,
            edges: Vec::new(),
            edge_index: HashMap::new(),
            adjacency: vec![Vec::new(); node_count],
            next_edge_id: 0,
        }
    }

    /// Creates an empty graph with room for `edge_capacity` edges.
    pub fn with_capacity(node_count: usize, edge_capacity: usize) -> Self {
        MultiGraph {
            node_count,
            edges: Vec::with_capacity(edge_capacity),
            edge_index: HashMap::new(),
            adjacency: vec![Vec::new(); node_count],
            next_edge_id: 0,
        }
    }

    /// Builds a graph from an edge list, assigning sequential edge IDs in the
    /// order given.
    ///
    /// The degrees are counted first, so every adjacency list is allocated
    /// once at its final size.
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range or an edge is a
    /// self-loop.
    pub fn from_edges(
        node_count: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> GraphResult<Self> {
        let edges: Vec<(NodeId, NodeId)> = edges.into_iter().collect();
        let mut degrees = vec![0usize; node_count];
        for &(u, v) in &edges {
            // Out-of-range endpoints are reported by `add_edge` below.
            for node in [u, v] {
                if let Some(degree) = degrees.get_mut(node.index()) {
                    *degree += 1;
                }
            }
        }
        let mut graph = MultiGraph {
            node_count,
            edges: Vec::with_capacity(edges.len()),
            edge_index: HashMap::new(),
            adjacency: degrees.into_iter().map(Vec::with_capacity).collect(),
            next_edge_id: 0,
        };
        for (u, v) in edges {
            graph.add_edge(u, v)?;
        }
        Ok(graph)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges, counting multiplicities.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node identifiers `0..node_count`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count as u32).map(NodeId::new)
    }

    /// Iterator over all edges in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Iterator over all edge identifiers in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.iter().map(|e| e.id)
    }

    /// Checks that `node` is a valid node of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] otherwise.
    pub fn check_node(&self, node: NodeId) -> GraphResult<()> {
        if node.index() < self.node_count {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node,
                node_count: self.node_count,
            })
        }
    }

    /// Adds an edge between `u` and `v`, assigning the next free edge ID:
    /// one more than the largest ID below `u64::MAX` ever inserted.
    ///
    /// Parallel edges are permitted.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range or `u == v`, or
    /// [`GraphError::DuplicateEdgeId`] if the ID it would assign is in use,
    /// which can only happen once the counter has reached `u64::MAX`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> GraphResult<EdgeId> {
        let id = EdgeId::new(self.next_edge_id);
        self.add_edge_with_id(id, u, v)?;
        Ok(id)
    }

    /// Adds an edge with an explicitly chosen identifier.
    ///
    /// Cluster contraction uses this to let edges of `G_{j+1}` keep the IDs of
    /// the crossing edges of `G_j` they correspond to.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint is out of range, `u == v`, or the
    /// identifier is already present.
    pub fn add_edge_with_id(&mut self, id: EdgeId, u: NodeId, v: NodeId) -> GraphResult<()> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if self.contains_edge(id) {
            return Err(GraphError::DuplicateEdgeId { edge: id });
        }
        self.index_edge(id, self.edges.len());
        self.edges.push(Edge { id, u, v });
        self.adjacency[u.index()].push(IncidentEdge {
            edge: id,
            neighbor: v,
        });
        self.adjacency[v.index()].push(IncidentEdge {
            edge: id,
            neighbor: u,
        });
        // `u64::MAX` has no successor: the counter passes over it rather
        // than wrap.
        if let Some(next) = id.raw().checked_add(1) {
            self.next_edge_id = self.next_edge_id.max(next);
        }
        Ok(())
    }

    /// Storage index of the edge with identifier `id`: by position when the
    /// edge sits at the index equal to its raw ID, otherwise through
    /// `edge_index`.
    #[inline]
    fn slot_of(&self, id: EdgeId) -> Option<usize> {
        match self.edges.get(id.index()) {
            Some(edge) if edge.id == id => Some(id.index()),
            _ => self.edge_index.get(&id).copied(),
        }
    }

    /// Records that edge `id` is stored at `slot`.
    fn index_edge(&mut self, id: EdgeId, slot: usize) {
        if id.raw() != slot as u64 {
            self.edge_index.insert(id, slot);
        }
    }

    /// Forgets that edge `id` is stored at `slot`.
    fn unindex_edge(&mut self, id: EdgeId, slot: usize) {
        if id.raw() != slot as u64 {
            self.edge_index.remove(&id);
        }
    }

    /// Removes the edge with identifier `id` and returns it.
    ///
    /// Removal is `O(deg(u) + deg(v))`. The relative storage order of the
    /// remaining edges is **unspecified** afterwards (removal swaps the last
    /// edge into the vacated slot), so code that relies on
    /// [`MultiGraph::edges`] iterating in insertion order must not observe a
    /// graph after removals. Adjacency lists keep their relative order. The
    /// removed identifier may be reused by a later
    /// [`MultiGraph::add_edge_with_id`], but [`MultiGraph::add_edge`] never
    /// hands it out again (except `u64::MAX`, where its counter stops).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if no such edge exists.
    pub fn remove_edge(&mut self, id: EdgeId) -> GraphResult<Edge> {
        let idx = self
            .slot_of(id)
            .ok_or(GraphError::UnknownEdge { edge: id })?;
        self.unindex_edge(id, idx);
        let removed = self.edges.swap_remove(idx);
        if let Some(&moved) = self.edges.get(idx) {
            // `moved` came from the last slot, which is now past the end.
            self.unindex_edge(moved.id, self.edges.len());
            self.index_edge(moved.id, idx);
        }
        self.adjacency[removed.u.index()].retain(|ie| ie.edge != id);
        self.adjacency[removed.v.index()].retain(|ie| ie.edge != id);
        Ok(removed)
    }

    /// Returns `true` if the graph contains an edge with identifier `id`.
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Returns the edge with identifier `id`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if no such edge exists.
    pub(crate) fn edge(&self, id: EdgeId) -> GraphResult<&Edge> {
        self.slot_of(id)
            .map(|idx| &self.edges[idx])
            .ok_or(GraphError::UnknownEdge { edge: id })
    }

    /// Returns the endpoints of an edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if no such edge exists.
    pub fn endpoints(&self, id: EdgeId) -> GraphResult<(NodeId, NodeId)> {
        self.edge(id).map(|e| (e.u, e.v))
    }

    /// Returns the endpoint of edge `id` that is not `node`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if the edge does not exist, or
    /// [`GraphError::NodeOutOfRange`] if `node` is not an endpoint.
    pub fn other_endpoint(&self, id: EdgeId, node: NodeId) -> GraphResult<NodeId> {
        let edge = self.edge(id)?;
        if edge.u == node {
            Ok(edge.v)
        } else if edge.v == node {
            Ok(edge.u)
        } else {
            Err(GraphError::NodeOutOfRange {
                node,
                node_count: self.node_count,
            })
        }
    }

    /// Degree of `node`, counting parallel edges with multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// The adjacency list of `node`: every incident edge with its opposite
    /// endpoint, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn incident_edges(&self, node: NodeId) -> &[IncidentEdge] {
        &self.adjacency[node.index()]
    }

    /// The set of distinct neighbors of `node`, sorted by node index.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn distinct_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut neighbors: Vec<NodeId> = self.adjacency[node.index()]
            .iter()
            .map(|ie| ie.neighbor)
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        neighbors
    }

    /// Number of distinct neighbors of `node` (`|N_j(v)|` in the paper).
    pub fn distinct_neighbor_count(&self, node: NodeId) -> usize {
        self.distinct_neighbors(node).len()
    }

    /// All edges connecting `u` and `v` (`E_j(u, v)` in the paper), in
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn edges_between(&self, u: NodeId, v: NodeId) -> Vec<EdgeId> {
        self.adjacency[u.index()]
            .iter()
            .filter(|ie| ie.neighbor == v)
            .map(|ie| ie.edge)
            .collect()
    }

    /// Returns `true` if the graph has neither parallel edges nor (by
    /// construction) self-loops.
    pub fn is_simple(&self) -> bool {
        for node in self.nodes() {
            let mut neighbors: Vec<NodeId> = self.adjacency[node.index()]
                .iter()
                .map(|ie| ie.neighbor)
                .collect();
            neighbors.sort_unstable();
            let before = neighbors.len();
            neighbors.dedup();
            if neighbors.len() != before {
                return false;
            }
        }
        true
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The degree sequence, sorted descending.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut degrees: Vec<usize> = self.adjacency.iter().map(Vec::len).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        degrees
    }

    /// Returns the subgraph containing exactly the edges in `edge_ids`
    /// (node set unchanged). Unknown edge IDs are reported as errors.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownEdge`] if any requested edge is absent.
    pub fn edge_subgraph(
        &self,
        edge_ids: impl IntoIterator<Item = EdgeId>,
    ) -> GraphResult<MultiGraph> {
        let mut sub = MultiGraph::new(self.node_count);
        let mut ids: Vec<EdgeId> = edge_ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let edge = self.edge(id)?;
            sub.add_edge_with_id(edge.id, edge.u, edge.v)?;
        }
        Ok(sub)
    }

    /// Total number of (node, incident edge) pairs, i.e. `2m`. Useful for
    /// message accounting sanity checks.
    pub fn incidence_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn triangle() -> MultiGraph {
        MultiGraph::from_edges(3, [(n(0), n(1)), (n(1), n(2)), (n(2), n(0))]).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = MultiGraph::new(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_simple());
        assert_eq!(g.nodes().count(), 5);
    }

    #[test]
    fn zero_node_graph() {
        let g = MultiGraph::new(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn add_edge_assigns_sequential_ids() {
        let g = triangle();
        let ids: Vec<u64> = g.edge_ids().map(EdgeId::raw).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        for node in g.nodes() {
            assert_eq!(g.degree(node), 2);
            assert_eq!(g.distinct_neighbor_count(node), 2);
        }
        assert_eq!(g.distinct_neighbors(n(0)), vec![n(1), n(2)]);
        assert_eq!(g.incidence_count(), 6);
    }

    #[test]
    fn parallel_edges_are_supported() {
        let mut g = MultiGraph::new(2);
        let a = g.add_edge(n(0), n(1)).unwrap();
        let b = g.add_edge(n(0), n(1)).unwrap();
        let c = g.add_edge(n(1), n(0)).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(n(0)), 3);
        assert_eq!(g.distinct_neighbor_count(n(0)), 1);
        assert_eq!(g.edges_between(n(0), n(1)), vec![a, b, c]);
        assert!(!g.is_simple());
        assert_eq!(g.edges_between(n(1), n(0)), vec![a, b, c]);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = MultiGraph::new(2);
        assert_eq!(
            g.add_edge(n(0), n(0)),
            Err(GraphError::SelfLoop { node: n(0) })
        );
    }

    #[test]
    fn out_of_range_endpoint_rejected() {
        let mut g = MultiGraph::new(2);
        let err = g.add_edge(n(0), n(5)).unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: n(5),
                node_count: 2
            }
        );
    }

    #[test]
    fn duplicate_edge_id_rejected() {
        let mut g = MultiGraph::new(3);
        g.add_edge_with_id(EdgeId::new(7), n(0), n(1)).unwrap();
        let err = g.add_edge_with_id(EdgeId::new(7), n(1), n(2)).unwrap_err();
        assert_eq!(
            err,
            GraphError::DuplicateEdgeId {
                edge: EdgeId::new(7)
            }
        );
    }

    #[test]
    fn explicit_ids_advance_auto_counter() {
        let mut g = MultiGraph::new(3);
        g.add_edge_with_id(EdgeId::new(10), n(0), n(1)).unwrap();
        let next = g.add_edge(n(1), n(2)).unwrap();
        assert_eq!(next, EdgeId::new(11));
    }

    #[test]
    fn endpoints_and_other_endpoint() {
        let g = triangle();
        let (u, v) = g.endpoints(EdgeId::new(0)).unwrap();
        assert_eq!((u, v), (n(0), n(1)));
        assert_eq!(g.other_endpoint(EdgeId::new(0), n(0)).unwrap(), n(1));
        assert_eq!(g.other_endpoint(EdgeId::new(0), n(1)).unwrap(), n(0));
        assert!(g.other_endpoint(EdgeId::new(0), n(2)).is_err());
        assert!(g.endpoints(EdgeId::new(99)).is_err());
    }

    #[test]
    fn edge_lookup() {
        let g = triangle();
        assert!(g.contains_edge(EdgeId::new(2)));
        assert!(!g.contains_edge(EdgeId::new(3)));
        let edge = g.edge(EdgeId::new(1)).unwrap();
        assert_eq!((edge.u, edge.v), (n(1), n(2)));
        assert_eq!(edge.other(n(1)), n(2));
    }

    #[test]
    #[should_panic(expected = "is not an endpoint")]
    fn edge_other_panics_for_non_endpoint() {
        let g = triangle();
        let edge = *g.edge(EdgeId::new(0)).unwrap();
        let _ = edge.other(n(2));
    }

    #[test]
    fn edge_subgraph_selects_edges() {
        let g = triangle();
        let sub = g
            .edge_subgraph([EdgeId::new(0), EdgeId::new(2), EdgeId::new(0)])
            .unwrap();
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edges_between(n(0), n(1)), vec![EdgeId::new(0)]);
        assert_eq!(sub.edges_between(n(0), n(2)), vec![EdgeId::new(2)]);
        assert!(sub.edges_between(n(1), n(2)).is_empty());
        assert!(g.edge_subgraph([EdgeId::new(42)]).is_err());
    }

    #[test]
    fn degree_sequence_sorted_descending() {
        let mut g = MultiGraph::new(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        g.add_edge(n(0), n(3)).unwrap();
        assert_eq!(g.degree_sequence(), vec![3, 1, 1, 1]);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn from_edges_propagates_errors() {
        assert!(MultiGraph::from_edges(2, [(n(0), n(0))]).is_err());
        assert!(MultiGraph::from_edges(2, [(n(0), n(3))]).is_err());
    }

    #[test]
    fn remove_edge_detaches_both_endpoints() {
        let mut g = triangle();
        let removed = g.remove_edge(EdgeId::new(1)).unwrap();
        assert_eq!((removed.u, removed.v), (n(1), n(2)));
        assert_eq!(g.edge_count(), 2);
        assert!(!g.contains_edge(EdgeId::new(1)));
        assert!(g.edges_between(n(1), n(2)).is_empty());
        assert_eq!(g.degree(n(1)), 1);
        assert_eq!(g.degree(n(2)), 1);
        // The surviving edges are still addressable after the swap-remove.
        assert_eq!(g.endpoints(EdgeId::new(0)).unwrap(), (n(0), n(1)));
        assert_eq!(g.endpoints(EdgeId::new(2)).unwrap(), (n(2), n(0)));
        assert!(g.remove_edge(EdgeId::new(1)).is_err());
    }

    #[test]
    fn remove_edge_keeps_parallel_siblings() {
        let mut g = MultiGraph::new(2);
        let a = g.add_edge(n(0), n(1)).unwrap();
        let b = g.add_edge(n(0), n(1)).unwrap();
        g.remove_edge(a).unwrap();
        assert_eq!(g.edges_between(n(0), n(1)), vec![b]);
        assert_eq!(g.degree(n(0)), 1);
        // The auto-ID counter does not reuse the removed identifier.
        let c = g.add_edge(n(0), n(1)).unwrap();
        assert_eq!(c, EdgeId::new(2));
        // ... but explicit re-insertion of a removed ID is allowed.
        g.add_edge_with_id(a, n(0), n(1)).unwrap();
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn remove_then_add_round_trips_the_adjacency() {
        let mut g = triangle();
        for id in [0u64, 1, 2] {
            let e = g.remove_edge(EdgeId::new(id)).unwrap();
            g.add_edge_with_id(e.id, e.u, e.v).unwrap();
        }
        assert_eq!(g.edge_count(), 3);
        for node in g.nodes() {
            assert_eq!(g.degree(node), 2);
        }
        assert_eq!(g.incidence_count(), 6);
    }

    #[test]
    fn largest_edge_id_does_not_overflow_the_counter() {
        let mut g = MultiGraph::new(3);
        let max = EdgeId::new(u64::MAX);
        g.add_edge_with_id(max, n(0), n(1)).unwrap();
        // `u64::MAX` has no successor, so the counter passes over it.
        assert_eq!(g.add_edge(n(1), n(2)), Ok(EdgeId::new(0)));
        assert_eq!(g.add_edge(n(1), n(2)), Ok(EdgeId::new(1)));
        assert_eq!(g.endpoints(max), Ok((n(0), n(1))));

        // Pushed up to `u64::MAX` by an explicit ID, the counter offers the
        // ID in use and is refused, instead of wrapping to a smaller one.
        g.add_edge_with_id(EdgeId::new(u64::MAX - 1), n(0), n(2))
            .unwrap();
        assert_eq!(
            g.add_edge(n(0), n(2)),
            Err(GraphError::DuplicateEdgeId { edge: max })
        );
        assert_eq!(g.edge_count(), 4);
        g.remove_edge(max).unwrap();
        assert_eq!(g.add_edge(n(0), n(2)), Ok(max));
        assert_eq!(
            g.add_edge(n(0), n(2)),
            Err(GraphError::DuplicateEdgeId { edge: max })
        );
        let mut ids: Vec<u64> = g.edge_ids().map(EdgeId::raw).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, u64::MAX - 1, u64::MAX]);
    }

    /// Reference model of a multigraph: edges by ID plus insertion-ordered
    /// adjacency, with the auto-ID rule stated independently.
    struct Model {
        edges: std::collections::BTreeMap<u64, (NodeId, NodeId)>,
        adjacency: Vec<Vec<IncidentEdge>>,
        /// Largest ID below `u64::MAX` ever inserted.
        largest: Option<u64>,
    }

    impl Model {
        fn add(&mut self, id: u64, u: NodeId, v: NodeId) -> GraphResult<()> {
            if self.edges.contains_key(&id) {
                return Err(GraphError::DuplicateEdgeId {
                    edge: EdgeId::new(id),
                });
            }
            self.edges.insert(id, (u, v));
            let edge = EdgeId::new(id);
            self.adjacency[u.index()].push(IncidentEdge { edge, neighbor: v });
            self.adjacency[v.index()].push(IncidentEdge { edge, neighbor: u });
            if id != u64::MAX {
                self.largest = self.largest.max(Some(id));
            }
            Ok(())
        }

        fn remove(&mut self, id: u64) -> GraphResult<Edge> {
            let edge = EdgeId::new(id);
            let (u, v) = self
                .edges
                .remove(&id)
                .ok_or(GraphError::UnknownEdge { edge })?;
            for node in [u, v] {
                self.adjacency[node.index()].retain(|ie| ie.edge != edge);
            }
            Ok(Edge { id: edge, u, v })
        }

        fn next_auto(&self) -> u64 {
            self.largest.map_or(0, |id| id + 1)
        }
    }

    fn assert_matches_model(g: &MultiGraph, model: &Model, probes: &[u64], step: usize) {
        assert_eq!(g.edge_count(), model.edges.len(), "step {step}");
        let mut ids: Vec<u64> = g.edge_ids().map(EdgeId::raw).collect();
        ids.sort_unstable();
        assert!(
            ids.iter().copied().eq(model.edges.keys().copied()),
            "step {step}"
        );
        let frozen = g.freeze();
        for &raw in model.edges.keys().chain(probes) {
            let id = EdgeId::new(raw);
            let expected = model.edges.get(&raw).map(|&(u, v)| Edge { id, u, v });
            let unknown = GraphError::UnknownEdge { edge: id };
            assert_eq!(
                g.edge(id).copied(),
                expected.ok_or(unknown.clone()),
                "step {step} {id}"
            );
            assert_eq!(
                frozen.edge(id).copied(),
                expected.ok_or(unknown.clone()),
                "step {step} {id}"
            );
            assert_eq!(g.contains_edge(id), expected.is_some(), "step {step} {id}");
            assert_eq!(
                frozen.contains_edge(id),
                expected.is_some(),
                "step {step} {id}"
            );
            assert_eq!(
                g.endpoints(id),
                expected.map(|e| (e.u, e.v)).ok_or(unknown),
                "step {step} {id}"
            );
        }
        for node in g.nodes() {
            let list = &model.adjacency[node.index()];
            assert_eq!(g.degree(node), list.len(), "step {step} {node}");
            assert_eq!(
                g.incident_edges(node),
                list.as_slice(),
                "step {step} {node}"
            );
            assert_eq!(
                frozen.incident_edges(node),
                list.as_slice(),
                "step {step} {node}"
            );
        }
    }

    /// Seeded random interleavings of `add_edge`, `add_edge_with_id` and
    /// `remove_edge` against the reference model. The explicit IDs cover
    /// the next storage slot, a slot below and above it, an ID in use and
    /// `u64::MAX`, so edges land both at and away from the index equal to
    /// their ID, and removals move edges between the two.
    #[test]
    fn edge_lookup_matches_a_reference_model() {
        use rand::{Rng, SeedableRng};
        const NODES: u32 = 5;
        for seed in 0..40 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut g = MultiGraph::new(NODES as usize);
            let mut model = Model {
                edges: std::collections::BTreeMap::new(),
                adjacency: vec![Vec::new(); NODES as usize],
                largest: None,
            };
            let mut removed: Vec<u64> = Vec::new();
            for step in 0..160 {
                let u = n(rng.gen_range(0..NODES));
                let v = n((u.raw() + rng.gen_range(1..NODES)) % NODES);
                let present: Vec<u64> = model.edges.keys().copied().collect();
                let slot = g.edge_count() as u64;
                match rng.gen_range(0..8) {
                    0 | 1 => {
                        let expected = model.next_auto();
                        let result = g.add_edge(u, v);
                        assert_eq!(
                            result,
                            model.add(expected, u, v).map(|()| EdgeId::new(expected)),
                            "seed {seed} step {step}"
                        );
                    }
                    2 | 3 => {
                        let id = match rng.gen_range(0..5) {
                            0 => slot,
                            1 => rng.gen_range(0..slot.max(1)),
                            2 => slot + rng.gen_range(1..4u64),
                            3 => present
                                .get(rng.gen_range(0..present.len().max(1)))
                                .copied()
                                .unwrap_or(slot),
                            _ => u64::MAX,
                        };
                        let result = g.add_edge_with_id(EdgeId::new(id), u, v);
                        assert_eq!(result, model.add(id, u, v), "seed {seed} step {step}");
                    }
                    _ => {
                        let id = match rng.gen_range(0..4) {
                            0 if !removed.is_empty() => removed[rng.gen_range(0..removed.len())],
                            1 => slot + 1,
                            _ => present
                                .get(rng.gen_range(0..present.len().max(1)))
                                .copied()
                                .unwrap_or(slot),
                        };
                        let result = g.remove_edge(EdgeId::new(id));
                        assert_eq!(result, model.remove(id), "seed {seed} step {step}");
                        if result.is_ok() {
                            removed.push(id);
                        }
                    }
                }
                let probes = [slot, slot + 1, model.next_auto(), u64::MAX];
                let probes: Vec<u64> = probes.into_iter().chain(removed.iter().copied()).collect();
                assert_matches_model(&g, &model, &probes, step);
            }
        }
    }
}
