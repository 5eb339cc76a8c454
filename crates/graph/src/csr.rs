//! Frozen, cache-friendly graph views in compressed-sparse-row (CSR) form.
//!
//! [`MultiGraph`] is the *mutable* substrate: adjacency lives in one `Vec`
//! per node, and an edge is looked up at the storage slot equal to its raw
//! ID, with a `HashMap` holding only the edges stored elsewhere (explicit
//! IDs, removals). That is convenient while a graph (or a cluster graph of
//! the `Sampler` hierarchy) is being built, but wasteful in the hot loops
//! of the runtime and the traversal routines — every neighbor scan chases a
//! separate heap allocation, and a lookup in a cluster graph, whose edges
//! keep the IDs of the graph below, hashes.
//!
//! [`CsrGraph`] is the *frozen* counterpart produced by
//! [`MultiGraph::freeze`]: all incidence lists are packed back-to-back into
//! a single offset/incidence array pair, beside the edge list. That is all
//! a freeze builds. The distinct-neighbor sets (`N_j(v)` in the paper) are
//! memoized in a second CSR pair by the first query that needs them
//! ([`CsrGraph::distinct_neighbors`], [`CsrGraph::has_edge_between`]; the
//! planner's clustering probe is the reader), so a view that never asks
//! carries none. The repeated single-source ball queries of the simulation
//! verifier, the `t`-local broadcast coverage check and the gossip baseline
//! all freeze once and query the packed view; the execution engine keeps
//! the frozen view as its only graph copy and resolves edges through its
//! dense [`endpoint_table`](CsrGraph::endpoint_table).
//!
//! The [`Topology`] trait abstracts over the two representations so that
//! the traversal routines ([`bfs`](crate::traversal::bfs),
//! [`ball`](crate::traversal::ball), …) accept either one unchanged.
//!
//! # Examples
//!
//! ```
//! use freelunch_graph::{MultiGraph, NodeId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = MultiGraph::new(3);
//! g.add_edge(NodeId::new(0), NodeId::new(1))?;
//! g.add_edge(NodeId::new(0), NodeId::new(1))?; // parallel edge
//! g.add_edge(NodeId::new(1), NodeId::new(2))?;
//!
//! let frozen = g.freeze();
//! assert_eq!(frozen.degree(NodeId::new(1)), 3);
//! // Distinct neighbors are deduplicated once, on the first query; this is
//! // a slice borrow, not a fresh allocation per call.
//! assert_eq!(frozen.distinct_neighbors(NodeId::new(1)), &[NodeId::new(0), NodeId::new(2)]);
//! # Ok(())
//! # }
//! ```

use crate::error::{GraphError, GraphResult};
use crate::multigraph::{Edge, IncidentEdge, MultiGraph};
use crate::{EdgeId, NodeId};
use std::sync::OnceLock;

/// Iterator over the node identifiers `0..n` of a graph view.
pub type NodeIdRange = std::iter::Map<std::ops::Range<u32>, fn(u32) -> NodeId>;

/// Read-only view of an undirected multigraph's topology.
///
/// Implemented by both the mutable [`MultiGraph`] and the frozen
/// [`CsrGraph`], so traversal code and node-program drivers can be written
/// once and run on either representation.
pub trait Topology {
    /// Number of nodes (`0..node_count` are the valid node IDs).
    fn node_count(&self) -> usize;

    /// The incidence list of `node`: every incident edge with its opposite
    /// endpoint, in insertion order (parallel edges appear once each).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn incident_edges(&self, node: NodeId) -> &[IncidentEdge];

    /// Degree of `node`, counting parallel edges with multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn degree(&self, node: NodeId) -> usize {
        self.incident_edges(node).len()
    }

    /// Iterator over all node identifiers `0..node_count`.
    fn nodes(&self) -> NodeIdRange {
        (0..self.node_count() as u32).map(NodeId::new as fn(u32) -> NodeId)
    }

    /// Checks that `node` is a valid node of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] otherwise.
    fn check_node(&self, node: NodeId) -> GraphResult<()> {
        if node.index() < self.node_count() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node,
                node_count: self.node_count(),
            })
        }
    }
}

impl Topology for MultiGraph {
    fn node_count(&self) -> usize {
        MultiGraph::node_count(self)
    }

    fn incident_edges(&self, node: NodeId) -> &[IncidentEdge] {
        MultiGraph::incident_edges(self, node)
    }

    fn degree(&self, node: NodeId) -> usize {
        MultiGraph::degree(self, node)
    }
}

impl Topology for CsrGraph {
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    fn incident_edges(&self, node: NodeId) -> &[IncidentEdge] {
        CsrGraph::incident_edges(self, node)
    }

    fn degree(&self, node: NodeId) -> usize {
        CsrGraph::degree(self, node)
    }
}

/// The memoized distinct-neighbor sets: `neighbors[offsets[v]..offsets[v + 1]]`
/// is the sorted, deduplicated neighbor set of `v` (`N_j(v)` of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
struct NeighborSets {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
}

/// A frozen multigraph in compressed-sparse-row form.
///
/// Produced by [`MultiGraph::freeze`]; see the [module docs](self) for the
/// rationale. The view is immutable: to change the graph, mutate the
/// originating [`MultiGraph`] and freeze again.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    node_count: usize,
    /// `incidents[offsets[v]..offsets[v + 1]]` is the incidence list of `v`.
    offsets: Vec<usize>,
    incidents: Vec<IncidentEdge>,
    /// All edges in the insertion order of the originating graph.
    edges: Vec<Edge>,
    /// The distinct-neighbor sets, built by the first
    /// [`CsrGraph::distinct_neighbors`] or [`CsrGraph::has_edge_between`]
    /// call; a view that never asks for them (the engine's) never holds
    /// them.
    neighbor_sets: OnceLock<NeighborSets>,
}

impl CsrGraph {
    /// Builds the frozen view of `graph`: the packed incidence lists and
    /// the edge list, `O(n + m)` time. The distinct-neighbor sets are built
    /// on first use.
    pub fn from_graph(graph: &MultiGraph) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut incidents = Vec::with_capacity(graph.incidence_count());
        for node in graph.nodes() {
            incidents.extend_from_slice(graph.incident_edges(node));
            offsets.push(incidents.len());
        }
        CsrGraph {
            node_count: n,
            offsets,
            incidents,
            edges: graph.edges().copied().collect(),
            neighbor_sets: OnceLock::new(),
        }
    }

    /// The distinct-neighbor sets, built on the first call: each incidence
    /// list's neighbors sorted and deduplicated once, `O(m log Δ)` time.
    fn neighbor_sets(&self) -> &NeighborSets {
        self.neighbor_sets.get_or_init(|| {
            let mut offsets = Vec::with_capacity(self.node_count + 1);
            offsets.push(0);
            let mut neighbors = Vec::new();
            let mut scratch: Vec<NodeId> = Vec::new();
            for node in self.nodes() {
                scratch.clear();
                scratch.extend(self.incident_edges(node).iter().map(|ie| ie.neighbor));
                scratch.sort_unstable();
                scratch.dedup();
                neighbors.extend_from_slice(&scratch);
                offsets.push(neighbors.len());
            }
            NeighborSets { offsets, neighbors }
        })
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
    pub fn nodes(&self) -> NodeIdRange {
        (0..self.node_count as u32).map(NodeId::new as fn(u32) -> NodeId)
    }

    /// Iterator over all edges in insertion order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Iterator over all edge identifiers in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges.iter().map(|e| e.id)
    }

    /// Degree of `node`, counting parallel edges with multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.offsets[node.index() + 1] - self.offsets[node.index()]
    }

    /// The incidence list of `node`, packed contiguously with every other
    /// node's list.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn incident_edges(&self, node: NodeId) -> &[IncidentEdge] {
        &self.incidents[self.offsets[node.index()]..self.offsets[node.index() + 1]]
    }

    /// The distinct neighbors of `node`, sorted by node index — the
    /// memoized `N_j(v)` of the paper. Unlike
    /// [`MultiGraph::distinct_neighbors`], this is a slice borrow: the sets
    /// of every node are built once, by the view's first call, not sorted
    /// and deduplicated afresh per call.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn distinct_neighbors(&self, node: NodeId) -> &[NodeId] {
        let sets = self.neighbor_sets();
        &sets.neighbors[sets.offsets[node.index()]..sets.offsets[node.index() + 1]]
    }

    /// Returns `true` if at least one edge connects `u` and `v` (binary
    /// search over the memoized neighbor set).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge_between(&self, u: NodeId, v: NodeId) -> bool {
        self.distinct_neighbors(u).binary_search(&v).is_ok()
    }

    /// Builds a dense raw-edge-ID → endpoint-pair table: entry `i` holds
    /// the raw node IDs of the endpoints of the edge with raw ID `i`, or
    /// `[CsrGraph::NO_ENDPOINT; 2]` if no such edge exists. Sized like the
    /// per-edge metric tables (largest raw ID + 1), so sparse ID spaces —
    /// e.g. crossing edges surviving cluster contraction — stay addressable.
    ///
    /// This is the one-array-read edge validation used by the runtime's
    /// send path: `table[edge]` answers existence, incidence, and "who is
    /// the receiver" in a single dense access.
    ///
    /// # Panics
    ///
    /// Panics if an edge has raw ID `u64::MAX`, whose table would need one
    /// slot more than `usize` can count. `Network` rejects graphs with edge
    /// IDs that large before it builds the table.
    pub fn endpoint_table(&self) -> Vec<[u32; 2]> {
        let slots = self
            .edges
            .iter()
            .map(|e| e.id.index())
            .max()
            .map_or(0, |top| {
                top.checked_add(1)
                    .expect("edge ID u64::MAX cannot index a dense table")
            });
        let mut table = vec![[Self::NO_ENDPOINT; 2]; slots];
        for edge in &self.edges {
            table[edge.id.index()] = [edge.u.raw(), edge.v.raw()];
        }
        table
    }
}

impl CsrGraph {
    /// Sentinel of [`CsrGraph::endpoint_table`] marking an unallocated edge
    /// slot (no node can carry this raw ID: `NodeId::from_usize` rejects
    /// it).
    pub const NO_ENDPOINT: u32 = u32::MAX;
}

impl MultiGraph {
    /// Freezes this graph into its [`CsrGraph`] view: packed incidence
    /// arrays and the edge list (the distinct-neighbor sets follow on first
    /// use). The graph itself is unchanged.
    pub fn freeze(&self) -> CsrGraph {
        CsrGraph::from_graph(self)
    }
}

impl From<&MultiGraph> for CsrGraph {
    fn from(graph: &MultiGraph) -> Self {
        CsrGraph::from_graph(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sample() -> MultiGraph {
        let mut g = MultiGraph::new(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(1), n(2)).unwrap(); // parallel
        g.add_edge(n(2), n(3)).unwrap();
        g
    }

    #[test]
    fn freeze_preserves_counts_and_lists() {
        let g = sample();
        let frozen = g.freeze();
        assert_eq!(frozen.node_count(), g.node_count());
        assert_eq!(frozen.edge_count(), g.edge_count());
        for node in g.nodes() {
            assert_eq!(frozen.degree(node), g.degree(node));
            assert_eq!(frozen.incident_edges(node), g.incident_edges(node));
        }
        let ids: Vec<EdgeId> = frozen.edge_ids().collect();
        assert_eq!(ids, g.edge_ids().collect::<Vec<_>>());
    }

    #[test]
    fn memoized_distinct_neighbors_dedupe_parallel_edges() {
        let g = sample();
        let frozen = g.freeze();
        // Node 1 has degree 3 (one parallel pair to node 2) but exactly two
        // distinct neighbors; the memoized slice must be deduplicated and
        // sorted, matching the allocating MultiGraph implementation.
        assert_eq!(frozen.degree(n(1)), 3);
        assert_eq!(frozen.distinct_neighbors(n(1)), &[n(0), n(2)]);
        for node in g.nodes() {
            assert_eq!(
                frozen.distinct_neighbors(node),
                g.distinct_neighbors(node).as_slice(),
                "{node}"
            );
        }
    }

    #[test]
    fn distinct_neighbor_sets_are_built_on_first_use() {
        let g = sample();
        let frozen = g.freeze();
        // A freeze packs the incidence lists and the edges only.
        assert!(frozen.neighbor_sets.get().is_none());
        // Node 2 sits at both ends of the parallel pair and has a second
        // neighbor, so its set is a proper dedup of its incidence list.
        assert_eq!(frozen.distinct_neighbors(n(2)), &[n(1), n(3)]);
        // The first use built every node's set: each incidence list's
        // neighbors sorted and deduplicated, packed in node order.
        let mut offsets = vec![0];
        let mut neighbors = Vec::new();
        for node in g.nodes() {
            neighbors.extend(g.distinct_neighbors(node));
            offsets.push(neighbors.len());
        }
        assert_eq!(
            frozen.neighbor_sets.get(),
            Some(&NeighborSets { offsets, neighbors })
        );
        // A clone of a fresh view stays fresh.
        assert!(g.freeze().clone().neighbor_sets.get().is_none());
    }

    #[test]
    fn has_edge_between_uses_memoized_sets() {
        let frozen = sample().freeze();
        assert!(frozen.has_edge_between(n(1), n(2)));
        assert!(frozen.has_edge_between(n(2), n(1)));
        assert!(!frozen.has_edge_between(n(0), n(3)));
    }

    #[test]
    fn empty_and_isolated_graphs_freeze() {
        let empty = MultiGraph::new(0).freeze();
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.edge_count(), 0);

        let isolated = MultiGraph::new(3).freeze();
        assert_eq!(isolated.degree(n(1)), 0);
        assert!(isolated.incident_edges(n(2)).is_empty());
        assert!(isolated.distinct_neighbors(n(0)).is_empty());
    }

    #[test]
    fn endpoint_table_is_dense_and_sentinel_padded() {
        let frozen = sample().freeze();
        let table = frozen.endpoint_table();
        assert_eq!(table.len(), 4);
        assert_eq!(table[0], [0, 1]);
        assert_eq!(table[2], [1, 2]); // the parallel edge keeps its own slot
                                      // Sparse IDs pad the gaps with the sentinel.
        let mut g = MultiGraph::new(3);
        g.add_edge_with_id(EdgeId::new(5), n(0), n(1)).unwrap();
        let table = g.freeze().endpoint_table();
        assert_eq!(table.len(), 6);
        assert_eq!(table[5], [0, 1]);
        assert_eq!(table[0], [CsrGraph::NO_ENDPOINT; 2]);
        assert!(MultiGraph::new(2).freeze().endpoint_table().is_empty());
    }

    #[test]
    fn topology_trait_agrees_across_backends() {
        let g = sample();
        let frozen = g.freeze();
        fn census<T: Topology>(view: &T) -> (usize, Vec<usize>) {
            (
                view.node_count(),
                view.nodes().map(|v| view.degree(v)).collect(),
            )
        }
        assert_eq!(census(&g), census(&frozen));
        assert!(Topology::check_node(&frozen, n(3)).is_ok());
        assert!(Topology::check_node(&frozen, n(4)).is_err());
    }
}
