//! Initial-knowledge models of the LOCAL framework (Section 1.2 of the paper).
//!
//! The paper assumes every edge carries a unique ID known to both endpoints —
//! an assumption lying strictly between the classical `KT0` ("a node knows
//! only its own degree") and `KT1` ("a node knows the IDs of its neighbors")
//! variants. The runtime supports all three so that baselines stated for
//! other variants (e.g. gossip schemes, KT1 leader election) can be compared
//! under their own assumptions.
//!
//! Fault injection ([`crate::fault`]) deliberately does **not** extend
//! initial knowledge: a node is never told which neighbors will crash or
//! which links will be cut. Crash state is observable only the way the
//! fault-tolerance literature allows — through silence, surfaced per port by
//! [`Context::port_silence`](crate::node::Context::port_silence) — and
//! post-hoc through the [`Network`](crate::engine::Network) node APIs
//! (`is_crashed`, `crashed_nodes`), which exist for harnesses and invariant
//! checkers rather than for the programs themselves.

use freelunch_graph::{CsrGraph, EdgeId, IncidentEdge, NodeId};
use serde::{Deserialize, Serialize};

/// Which information a node holds about its incident edges before the first
/// round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KnowledgeModel {
    /// `KT0`: a node knows its own degree and can address incident edges only
    /// by local port numbers.
    Kt0,
    /// Unique edge IDs: a node knows the globally unique ID of each incident
    /// edge (the paper's assumption (ii)); it does not know who is at the
    /// other end.
    UniqueEdgeIds,
    /// `KT1`: a node knows, for each incident edge, the ID of the node at the
    /// other end (which subsumes unique edge IDs on simple graphs).
    Kt1,
}

impl KnowledgeModel {
    /// Returns `true` if nodes see globally unique edge identifiers.
    pub fn exposes_edge_ids(self) -> bool {
        matches!(self, KnowledgeModel::UniqueEdgeIds | KnowledgeModel::Kt1)
    }

    /// Returns `true` if nodes see the IDs of their neighbors.
    pub fn exposes_neighbor_ids(self) -> bool {
        matches!(self, KnowledgeModel::Kt1)
    }
}

/// A single port of a node: the local view of one incident edge, filtered
/// through the knowledge model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Port {
    /// Local port number, `0..degree`, always known.
    pub port: usize,
    /// Globally unique edge ID, exposed under [`KnowledgeModel::UniqueEdgeIds`]
    /// and [`KnowledgeModel::Kt1`].
    pub edge_id: Option<EdgeId>,
    /// ID of the node at the other end, exposed under [`KnowledgeModel::Kt1`].
    pub neighbor: Option<NodeId>,
}

/// Everything a node knows when the execution starts: a view of the node's
/// incidence list in the network's frozen [`CsrGraph`], filtered through the
/// knowledge model on every read. The view borrows the one copy of the graph
/// the network keeps, so it is `Copy` and building it allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InitialKnowledge<'a> {
    /// The node's own ID (nodes always have unique IDs in our executions).
    pub node: NodeId,
    /// The knowledge model in force.
    pub model: KnowledgeModel,
    /// An upper bound on `log2 n`, correct up to a constant factor — model
    /// assumption (i) of Section 1.1.
    pub log_n_upper_bound: u32,
    /// The node's incidence slice of the frozen graph, one entry per port.
    incident: &'a [IncidentEdge],
}

impl<'a> InitialKnowledge<'a> {
    /// The view of `node`'s incidence list in `graph` under `model`.
    pub(crate) fn new(
        graph: &'a CsrGraph,
        node: NodeId,
        model: KnowledgeModel,
        log_n_upper_bound: u32,
    ) -> Self {
        InitialKnowledge {
            node,
            model,
            log_n_upper_bound,
            incident: graph.incident_edges(node),
        }
    }

    /// The node's degree (number of incident edges, with multiplicity).
    pub fn degree(&self) -> usize {
        self.incident.len()
    }

    /// One [`Port`] per incident edge, in port order, each built on read
    /// with the fields the knowledge model exposes.
    pub fn ports(&self) -> impl ExactSizeIterator<Item = Port> + 'a {
        let model = self.model;
        self.incident
            .iter()
            .enumerate()
            .map(move |(port, incident)| Port {
                port,
                edge_id: model.exposes_edge_ids().then_some(incident.edge),
                neighbor: model.exposes_neighbor_ids().then_some(incident.neighbor),
            })
    }

    /// The IDs of all incident edges, if the knowledge model exposes them.
    pub fn incident_edge_ids(&self) -> Option<Vec<EdgeId>> {
        self.ports().map(|p| p.edge_id).collect()
    }

    /// The IDs of all neighbors (with multiplicity), if the knowledge model
    /// exposes them.
    pub fn neighbor_ids(&self) -> Option<Vec<NodeId>> {
        self.ports().map(|p| p.neighbor).collect()
    }
}

/// The `log n` upper bound handed to the nodes of an `n`-node graph:
/// `ceil(log2 n) + slack`, modelling the paper's "O(1)-approximate upper
/// bound on log n". `None` if the sum does not fit a `u32`.
pub(crate) fn log_n_upper_bound(node_count: usize, slack: u32) -> Option<u32> {
    let n = node_count.max(2) as f64;
    (n.log2().ceil() as u32).checked_add(slack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::MultiGraph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn small_graph() -> CsrGraph {
        // 0-1, 0-1 (parallel), 1-2
        let mut g = MultiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.freeze()
    }

    /// Every node's view, as the engine hands it to the factory.
    fn initial_knowledge(
        graph: &CsrGraph,
        model: KnowledgeModel,
        slack: u32,
    ) -> Vec<InitialKnowledge<'_>> {
        let bound = log_n_upper_bound(graph.node_count(), slack).unwrap();
        graph
            .nodes()
            .map(|node| InitialKnowledge::new(graph, node, model, bound))
            .collect()
    }

    #[test]
    fn model_capability_flags() {
        assert!(!KnowledgeModel::Kt0.exposes_edge_ids());
        assert!(!KnowledgeModel::Kt0.exposes_neighbor_ids());
        assert!(KnowledgeModel::UniqueEdgeIds.exposes_edge_ids());
        assert!(!KnowledgeModel::UniqueEdgeIds.exposes_neighbor_ids());
        assert!(KnowledgeModel::Kt1.exposes_edge_ids());
        assert!(KnowledgeModel::Kt1.exposes_neighbor_ids());
    }

    #[test]
    fn kt0_reveals_only_degrees() {
        let g = small_graph();
        let knowledge = initial_knowledge(&g, KnowledgeModel::Kt0, 0);
        assert_eq!(knowledge.len(), 3);
        assert_eq!(knowledge[1].degree(), 3);
        assert!(knowledge[1].incident_edge_ids().is_none());
        assert!(knowledge[1].neighbor_ids().is_none());
        assert_eq!(knowledge[1].ports().next().map(|p| p.port), Some(0));
    }

    #[test]
    fn unique_edge_ids_reveal_edges_but_not_neighbors() {
        let g = small_graph();
        let knowledge = initial_knowledge(&g, KnowledgeModel::UniqueEdgeIds, 0);
        let ids = knowledge[0].incident_edge_ids().unwrap();
        assert_eq!(ids, vec![EdgeId::new(0), EdgeId::new(1)]);
        assert!(knowledge[0].neighbor_ids().is_none());
    }

    #[test]
    fn kt1_reveals_neighbors_with_multiplicity() {
        let g = small_graph();
        let knowledge = initial_knowledge(&g, KnowledgeModel::Kt1, 0);
        assert_eq!(knowledge[0].neighbor_ids().unwrap(), vec![n(1), n(1)]);
        assert_eq!(knowledge[2].neighbor_ids().unwrap(), vec![n(1)]);
    }

    #[test]
    fn log_n_bound_is_an_upper_bound_with_slack() {
        let g = small_graph();
        let knowledge = initial_knowledge(&g, KnowledgeModel::Kt0, 2);
        // ceil(log2 3) = 2, slack 2 ⇒ 4.
        assert_eq!(knowledge[0].log_n_upper_bound, 4);
        assert!((1u64 << knowledge[0].log_n_upper_bound) as usize >= g.node_count());
    }

    #[test]
    fn single_node_graph_has_sane_bound() {
        let g = MultiGraph::new(1).freeze();
        let knowledge = initial_knowledge(&g, KnowledgeModel::Kt0, 0);
        assert_eq!(knowledge.len(), 1);
        assert_eq!(knowledge[0].degree(), 0);
        assert!(knowledge[0].log_n_upper_bound >= 1);
    }
}
