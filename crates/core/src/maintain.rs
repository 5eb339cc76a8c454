//! Incremental maintenance of a stretch-3 cluster spanner under edge churn.
//!
//! The message-reduction schemes amortise an expensive spanner construction
//! over many cheap broadcast rounds — a bargain that only survives on a
//! *dynamic* communication graph if the spanner can be **repaired** after a
//! churn event instead of rebuilt from scratch (a rebuild pays the full
//! `Ω(m)` construction bill again, exactly the cost the paper's free lunch
//! eliminates). [`IncrementalSpanner`] maintains the first-stage clustering
//! structure shared by `Sampler` and Baswana–Sen — *star clusters*: every
//! node is either a cluster center or attached to an adjacent center by a
//! tree edge — together with one inter-cluster edge per (node, adjacent
//! foreign cluster) pair. Two invariants make the edge set a 3-spanner:
//!
//! * **I1 (tree edges)** — every non-center node has a spanner edge to its
//!   cluster center;
//! * **I2 (coverage)** — every node has at least one spanner edge into every
//!   foreign cluster it is graph-adjacent to.
//!
//! For any graph edge `(u, v)`: same cluster → `u – center – v` (length
//! ≤ 2); different clusters → `u – w – center(v) – v` through `u`'s coverage
//! edge into `v`'s cluster (length ≤ 3). Hence
//! [`IncrementalSpanner::stretch_bound`] is 3.
//!
//! Repairs are purely local (the audited region is the churned edge's
//! endpoints and, for a tree-edge loss, their graph neighborhood) and their
//! message price is metered per operation in a [`RepairReport`] and
//! cumulatively in [`IncrementalSpanner::maintenance_cost`] — the number
//! experiments charge to [`CostPhase::Maintenance`](crate::ledger::CostPhase).
//! The exact per-operation message model is specified in `docs/CHURN.md` and
//! pinned by hand-computed tests in `tests/message_ledger.rs`; the stretch
//! bound after every repair is pinned against a from-scratch rebuild in
//! `crates/graph/tests/incremental_spanner_equiv.rs`.

use crate::error::{CoreError, CoreResult};
use freelunch_graph::{EdgeId, MultiGraph, NodeId};
use freelunch_runtime::CostReport;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

/// What one repair operation did and what it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Rounds and messages charged for this operation (see `docs/CHURN.md`
    /// for the per-operation model).
    pub cost: CostReport,
    /// Edges the repair added to the spanner, in the order they were added.
    pub added_to_spanner: Vec<EdgeId>,
    /// Whether the operation removed an edge from the spanner (only
    /// deletions of spanner edges do).
    pub removed_from_spanner: bool,
    /// The new cluster center of the re-homed node, when the operation
    /// deleted a tree edge (the node itself when it fell back to a
    /// singleton cluster).
    pub rehomed: Option<NodeId>,
}

/// A stretch-3 star-cluster spanner that is repaired — not rebuilt — after
/// every edge insertion and deletion.
///
/// # Examples
///
/// ```
/// use freelunch_core::maintain::IncrementalSpanner;
/// use freelunch_graph::{EdgeId, MultiGraph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A star with center 0: the spanner is exactly the three tree edges.
/// let graph = MultiGraph::from_edges(
///     4,
///     [(NodeId::new(0), NodeId::new(1)), (NodeId::new(0), NodeId::new(2)),
///      (NodeId::new(0), NodeId::new(3))],
/// )?;
/// let mut spanner = IncrementalSpanner::with_centers(&graph, &[NodeId::new(0)])?;
/// assert_eq!(spanner.spanner_edges().len(), 3);
///
/// // Inserting a leaf-to-leaf edge stays intra-cluster: 2 messages, no
/// // spanner growth.
/// let report = spanner.insert_edge(EdgeId::new(3), NodeId::new(1), NodeId::new(2))?;
/// assert_eq!(report.cost.messages, 2);
/// assert!(report.added_to_spanner.is_empty());
/// spanner.check_invariants()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSpanner {
    graph: MultiGraph,
    /// `center_of[v]` = the center of the cluster `v` belongs to; centers
    /// point at themselves.
    center_of: Vec<NodeId>,
    /// The I1 edge of each non-center member (centers hold `None`).
    tree_edge: Vec<Option<EdgeId>>,
    spanner: BTreeSet<EdgeId>,
    build_cost: CostReport,
    maintenance_cost: CostReport,
    repairs: u64,
}

impl IncrementalSpanner {
    /// Builds the initial structure with centers sampled independently with
    /// probability `n^{-1/2}` from the seeded stream — the first-stage
    /// sampling rate of a stretch-3 (`k = 2`) clustering.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph has no nodes.
    pub fn new(graph: &MultiGraph, seed: u64) -> CoreResult<Self> {
        if graph.node_count() == 0 {
            return Err(CoreError::invalid_parameter("the input graph has no nodes"));
        }
        let n = graph.node_count();
        let probability = (n as f64).powf(-0.5).clamp(0.0, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let centers: Vec<NodeId> = graph
            .nodes()
            .filter(|_| rng.gen_bool(probability))
            .collect();
        IncrementalSpanner::with_centers(graph, &centers)
    }

    /// Builds the initial structure from an explicit center set — the
    /// deterministic entry point the hand-computed ledger tests use.
    ///
    /// Every non-center node adjacent to at least one center joins the
    /// center with the smallest ID (ties broken by smallest edge ID); nodes
    /// adjacent to no center become singleton centers themselves. The build
    /// is metered as 3 rounds: centers announce themselves to their
    /// neighbors, every node announces its final cluster on every incident
    /// edge, and every spanner edge is marked with one message.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph has no nodes or a center is out of
    /// range.
    pub fn with_centers(graph: &MultiGraph, centers: &[NodeId]) -> CoreResult<Self> {
        if graph.node_count() == 0 {
            return Err(CoreError::invalid_parameter("the input graph has no nodes"));
        }
        let n = graph.node_count();
        let mut is_center = vec![false; n];
        for &center in centers {
            graph.check_node(center)?;
            is_center[center.index()] = true;
        }

        let mut center_of: Vec<NodeId> = graph.nodes().collect();
        let mut tree_edge: Vec<Option<EdgeId>> = vec![None; n];
        let mut messages: u64 = (0..n)
            .filter(|&i| is_center[i])
            .map(|i| graph.degree(NodeId::from_usize(i)) as u64)
            .sum();
        for v in graph.nodes() {
            if is_center[v.index()] {
                continue;
            }
            let mut best: Option<(NodeId, EdgeId)> = None;
            for ie in graph.incident_edges(v) {
                if !is_center[ie.neighbor.index()] {
                    continue;
                }
                let candidate = (ie.neighbor, ie.edge);
                best = Some(match best {
                    Some(current) if current <= candidate => current,
                    _ => candidate,
                });
            }
            if let Some((center, edge)) = best {
                center_of[v.index()] = center;
                tree_edge[v.index()] = Some(edge);
            }
            // Otherwise v stays its own singleton center.
        }
        messages += graph.incidence_count() as u64;

        let mut spanner: BTreeSet<EdgeId> = tree_edge.iter().flatten().copied().collect();
        for v in graph.nodes() {
            for edge in missing_coverage(graph, &center_of, &spanner, v) {
                spanner.insert(edge);
            }
        }
        messages += spanner.len() as u64;

        Ok(IncrementalSpanner {
            graph: graph.clone(),
            center_of,
            tree_edge,
            spanner,
            build_cost: CostReport::new(3, messages),
            maintenance_cost: CostReport::zero(),
            repairs: 0,
        })
    }

    /// Inserts an edge and repairs the coverage invariant.
    ///
    /// The endpoints exchange cluster identifiers (2 messages, 1 round); if
    /// they sit in different clusters and either side lacks a spanner edge
    /// into the other's cluster, the new edge joins the spanner (1 more
    /// message to mark it).
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is out of range, the edge is a
    /// self-loop, or the identifier is already in use.
    pub fn insert_edge(&mut self, id: EdgeId, u: NodeId, v: NodeId) -> CoreResult<RepairReport> {
        self.graph.add_edge_with_id(id, u, v)?;
        let mut messages = 2u64;
        let mut added = Vec::new();
        let cluster_u = self.center_of[u.index()];
        let cluster_v = self.center_of[v.index()];
        if cluster_u != cluster_v && (!self.covers(u, cluster_v) || !self.covers(v, cluster_u)) {
            self.spanner.insert(id);
            added.push(id);
            messages += 1;
        }
        Ok(self.finish_repair(CostReport::new(1, messages), added, false, None))
    }

    /// Deletes an edge and repairs whatever invariant it carried.
    ///
    /// * Non-spanner edge: nothing to repair — 0 rounds, 0 messages.
    /// * Spanner edge that is no tree edge: each endpoint re-checks its
    ///   coverage toward the other's cluster and, if broken, promotes the
    ///   smallest-ID surviving edge into that cluster (2 messages per
    ///   promoted edge; 1 round if anything was promoted).
    /// * Tree edge of a member `v`: 2 rounds. Round 1 — `v` polls every
    ///   surviving neighbor for its cluster (2 messages per incident edge)
    ///   and re-homes to the adjacent center with the smallest ID (smallest
    ///   edge ID on ties; 1 message to announce), or falls back to a
    ///   singleton cluster (no announcement). Round 2 — `v` and its graph
    ///   neighbors audit their coverage and promote the smallest-ID edge
    ///   into every uncovered adjacent foreign cluster (2 messages each).
    ///
    /// # Errors
    ///
    /// Returns an error if no such edge exists.
    pub fn delete_edge(&mut self, id: EdgeId) -> CoreResult<RepairReport> {
        let edge = self.graph.remove_edge(id)?;
        let was_spanner = self.spanner.remove(&id);
        let tree_owner = [edge.u, edge.v]
            .into_iter()
            .find(|&x| self.tree_edge[x.index()] == Some(id));

        let mut messages = 0u64;
        let mut rounds = 0u64;
        let mut added = Vec::new();
        let mut rehomed = None;

        if let Some(v) = tree_owner {
            rounds = 2;
            self.tree_edge[v.index()] = None;
            // Round 1: poll the surviving neighborhood (request + reply per
            // incident edge) and re-home.
            messages += 2 * self.graph.degree(v) as u64;
            let mut best: Option<(NodeId, EdgeId)> = None;
            for ie in self.graph.incident_edges(v) {
                if self.center_of[ie.neighbor.index()] != ie.neighbor {
                    continue; // Not a center: members attach to centers only.
                }
                let candidate = (ie.neighbor, ie.edge);
                best = Some(match best {
                    Some(current) if current <= candidate => current,
                    _ => candidate,
                });
            }
            match best {
                Some((center, tree)) => {
                    self.center_of[v.index()] = center;
                    self.tree_edge[v.index()] = Some(tree);
                    if self.spanner.insert(tree) {
                        added.push(tree);
                    }
                    messages += 1;
                    rehomed = Some(center);
                }
                None => {
                    self.center_of[v.index()] = v;
                    rehomed = Some(v);
                }
            }
            // Round 2: coverage audit over {v} ∪ N(v), ascending node order.
            let mut audit: Vec<NodeId> = self
                .graph
                .incident_edges(v)
                .iter()
                .map(|ie| ie.neighbor)
                .collect();
            audit.push(v);
            audit.sort_unstable();
            audit.dedup();
            for node in audit {
                for promoted in missing_coverage(&self.graph, &self.center_of, &self.spanner, node)
                {
                    self.spanner.insert(promoted);
                    added.push(promoted);
                    messages += 2;
                }
            }
        } else if was_spanner {
            for (endpoint, cluster) in [
                (edge.u, self.center_of[edge.v.index()]),
                (edge.v, self.center_of[edge.u.index()]),
            ] {
                if self.center_of[endpoint.index()] == cluster || self.covers(endpoint, cluster) {
                    continue;
                }
                let replacement = self
                    .graph
                    .incident_edges(endpoint)
                    .iter()
                    .filter(|ie| self.center_of[ie.neighbor.index()] == cluster)
                    .map(|ie| ie.edge)
                    .min();
                if let Some(promoted) = replacement {
                    self.spanner.insert(promoted);
                    added.push(promoted);
                    messages += 2;
                }
            }
            rounds = if added.is_empty() { 0 } else { 1 };
        }

        Ok(self.finish_repair(
            CostReport::new(rounds, messages),
            added,
            was_spanner,
            rehomed,
        ))
    }

    /// The maintained graph (reflects every applied insert/delete).
    pub fn graph(&self) -> &MultiGraph {
        &self.graph
    }

    /// The current spanner edge set, ascending.
    pub fn spanner_edges(&self) -> Vec<EdgeId> {
        self.spanner.iter().copied().collect()
    }

    /// Number of edges currently in the spanner.
    pub fn spanner_size(&self) -> usize {
        self.spanner.len()
    }

    /// Rounds and messages of the initial construction.
    pub fn build_cost(&self) -> CostReport {
        self.build_cost
    }

    /// Cumulative rounds and messages of every repair so far — the bill an
    /// experiment charges to
    /// [`CostPhase::Maintenance`](crate::ledger::CostPhase).
    pub fn maintenance_cost(&self) -> CostReport {
        self.maintenance_cost
    }

    /// Number of insert/delete operations applied so far.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// The stretch guarantee the invariants imply: 3.
    pub fn stretch_bound(&self) -> u32 {
        3
    }

    /// Verifies invariants I1 and I2 and that the spanner is a subset of the
    /// current edge set — the oracle the property tests run after every
    /// churn event.
    ///
    /// # Errors
    ///
    /// Returns an error describing the first violated invariant.
    pub fn check_invariants(&self) -> CoreResult<()> {
        for v in self.graph.nodes() {
            let center = self.center_of[v.index()];
            if self.center_of[center.index()] != center {
                return Err(CoreError::invalid_parameter(format!(
                    "{v} points at {center}, which is not a center"
                )));
            }
            if center == v {
                if self.tree_edge[v.index()].is_some() {
                    return Err(CoreError::invalid_parameter(format!(
                        "center {v} holds a tree edge"
                    )));
                }
            } else {
                let Some(tree) = self.tree_edge[v.index()] else {
                    return Err(CoreError::invalid_parameter(format!(
                        "member {v} has no tree edge (I1)"
                    )));
                };
                if !self.spanner.contains(&tree) {
                    return Err(CoreError::invalid_parameter(format!(
                        "tree edge {tree} of {v} is not in the spanner (I1)"
                    )));
                }
                let (a, b) = self.graph.endpoints(tree)?;
                if !(a == v && b == center || a == center && b == v) {
                    return Err(CoreError::invalid_parameter(format!(
                        "tree edge {tree} does not connect {v} to its center {center} (I1)"
                    )));
                }
            }
            for ie in self.graph.incident_edges(v) {
                let foreign = self.center_of[ie.neighbor.index()];
                if foreign != center && !self.covers(v, foreign) {
                    return Err(CoreError::invalid_parameter(format!(
                        "{v} has no spanner edge into the adjacent cluster of {foreign} (I2)"
                    )));
                }
            }
        }
        for &edge in &self.spanner {
            if !self.graph.contains_edge(edge) {
                return Err(CoreError::invalid_parameter(format!(
                    "spanner edge {edge} is not in the graph"
                )));
            }
        }
        Ok(())
    }

    /// Whether `node` has a spanner edge into the cluster centered at
    /// `cluster`.
    fn covers(&self, node: NodeId, cluster: NodeId) -> bool {
        self.graph.incident_edges(node).iter().any(|ie| {
            self.spanner.contains(&ie.edge) && self.center_of[ie.neighbor.index()] == cluster
        })
    }

    fn finish_repair(
        &mut self,
        cost: CostReport,
        added_to_spanner: Vec<EdgeId>,
        removed_from_spanner: bool,
        rehomed: Option<NodeId>,
    ) -> RepairReport {
        self.maintenance_cost += cost;
        self.repairs += 1;
        RepairReport {
            cost,
            added_to_spanner,
            removed_from_spanner,
            rehomed,
        }
    }
}

/// The smallest-ID edge from `v` into every graph-adjacent foreign cluster
/// the spanner does not yet cover, keyed — and therefore returned — in
/// ascending center order.
fn missing_coverage(
    graph: &MultiGraph,
    center_of: &[NodeId],
    spanner: &BTreeSet<EdgeId>,
    v: NodeId,
) -> Vec<EdgeId> {
    let own = center_of[v.index()];
    let mut best: BTreeMap<NodeId, EdgeId> = BTreeMap::new();
    let mut covered: BTreeSet<NodeId> = BTreeSet::new();
    for ie in graph.incident_edges(v) {
        let cluster = center_of[ie.neighbor.index()];
        if cluster == own {
            continue;
        }
        if spanner.contains(&ie.edge) {
            covered.insert(cluster);
            continue;
        }
        best.entry(cluster)
            .and_modify(|edge| {
                if ie.edge < *edge {
                    *edge = ie.edge;
                }
            })
            .or_insert(ie.edge);
    }
    best.into_iter()
        .filter(|(cluster, _)| !covered.contains(cluster))
        .map(|(_, edge)| edge)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{connected_erdos_renyi, GeneratorConfig};
    use freelunch_graph::spanner_check::verify_edge_stretch;
    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn e(i: u64) -> EdgeId {
        EdgeId::new(i)
    }

    /// Star with center 0 and leaves 1..=3; edges e0=(0,1), e1=(0,2),
    /// e2=(0,3).
    fn star4() -> MultiGraph {
        MultiGraph::from_edges(4, [(n(0), n(1)), (n(0), n(2)), (n(0), n(3))]).unwrap()
    }

    /// K4; edges e0=(0,1), e1=(0,2), e2=(0,3), e3=(1,2), e4=(1,3), e5=(2,3).
    fn k4() -> MultiGraph {
        MultiGraph::from_edges(
            4,
            [
                (n(0), n(1)),
                (n(0), n(2)),
                (n(0), n(3)),
                (n(1), n(2)),
                (n(1), n(3)),
                (n(2), n(3)),
            ],
        )
        .unwrap()
    }

    /// Path 0–1–2–3; edges e0=(0,1), e1=(1,2), e2=(2,3).
    fn path4() -> MultiGraph {
        MultiGraph::from_edges(4, [(n(0), n(1)), (n(1), n(2)), (n(2), n(3))]).unwrap()
    }

    #[test]
    fn star_build_keeps_exactly_the_tree_edges() {
        let spanner = IncrementalSpanner::with_centers(&star4(), &[n(0)]).unwrap();
        assert_eq!(spanner.spanner_edges(), vec![e(0), e(1), e(2)]);
        assert!(spanner.center_of[n(0).index()] == n(0));
        for leaf in [n(1), n(2), n(3)] {
            assert_eq!(spanner.center_of[leaf.index()], n(0));
        }
        // 3 center announcements + 2m = 6 cluster announcements + 3 marks.
        assert_eq!(spanner.build_cost(), CostReport::new(3, 12));
        spanner.check_invariants().unwrap();
    }

    #[test]
    fn path_build_covers_cluster_boundaries() {
        // Center 0 captures node 1; nodes 2 and 3 fall back to singleton
        // clusters, so the boundary edges e1 and e2 must be covered.
        let spanner = IncrementalSpanner::with_centers(&path4(), &[n(0)]).unwrap();
        assert_eq!(spanner.spanner_edges(), vec![e(0), e(1), e(2)]);
        assert!(spanner.center_of[n(2).index()] == n(2));
        assert!(spanner.center_of[n(3).index()] == n(3));
        spanner.check_invariants().unwrap();
    }

    #[test]
    fn intra_cluster_insert_costs_two_messages() {
        let mut spanner = IncrementalSpanner::with_centers(&star4(), &[n(0)]).unwrap();
        let report = spanner.insert_edge(e(3), n(1), n(2)).unwrap();
        assert_eq!(report.cost, CostReport::new(1, 2));
        assert!(report.added_to_spanner.is_empty());
        assert_eq!(spanner.spanner_size(), 3);
        spanner.check_invariants().unwrap();
    }

    #[test]
    fn cross_cluster_insert_joins_the_spanner() {
        let mut spanner = IncrementalSpanner::with_centers(&path4(), &[n(0)]).unwrap();
        let report = spanner.insert_edge(e(3), n(0), n(3)).unwrap();
        assert_eq!(report.cost, CostReport::new(1, 3));
        assert_eq!(report.added_to_spanner, vec![e(3)]);
        spanner.check_invariants().unwrap();
    }

    #[test]
    fn non_spanner_delete_is_free() {
        let mut spanner = IncrementalSpanner::with_centers(&k4(), &[n(0)]).unwrap();
        assert_eq!(spanner.spanner_edges(), vec![e(0), e(1), e(2)]);
        let report = spanner.delete_edge(e(3)).unwrap();
        assert_eq!(report.cost, CostReport::zero());
        assert!(!report.removed_from_spanner);
        spanner.check_invariants().unwrap();
    }

    #[test]
    fn isolated_tree_edge_delete_falls_back_to_a_free_singleton() {
        let mut spanner = IncrementalSpanner::with_centers(&star4(), &[n(0)]).unwrap();
        let report = spanner.delete_edge(e(0)).unwrap();
        // Node 1 is isolated afterwards: the poll, the re-home and the
        // audit all touch nothing.
        assert_eq!(report.cost, CostReport::new(2, 0));
        assert!(report.removed_from_spanner);
        assert_eq!(report.rehomed, Some(n(1)));
        assert!(spanner.center_of[n(1).index()] == n(1));
        spanner.check_invariants().unwrap();
    }

    #[test]
    fn k4_tree_edge_delete_polls_rehomes_and_audits() {
        let mut spanner = IncrementalSpanner::with_centers(&k4(), &[n(0)]).unwrap();
        let report = spanner.delete_edge(e(0)).unwrap();
        // Poll 2 surviving neighbors (4 messages), fall back to a singleton
        // (no announcement), then the audit promotes e3 (for node 1) and e4
        // (for node 3): 4 + 2 + 2 = 8.
        assert_eq!(report.cost, CostReport::new(2, 8));
        assert_eq!(report.added_to_spanner, vec![e(3), e(4)]);
        assert_eq!(report.rehomed, Some(n(1)));
        assert_eq!(spanner.spanner_edges(), vec![e(1), e(2), e(3), e(4)]);
        spanner.check_invariants().unwrap();
    }

    #[test]
    fn tree_edge_delete_rehomes_to_the_smallest_adjacent_center() {
        // On the path, node 1 stays adjacent to center 2 after losing its
        // tree edge to center 0.
        let mut spanner = IncrementalSpanner::with_centers(&path4(), &[n(0), n(2)]).unwrap();
        let report = spanner.delete_edge(e(0)).unwrap();
        // Poll the one surviving neighbor (2 messages) + re-home
        // announcement.
        assert_eq!(report.cost, CostReport::new(2, 3));
        assert_eq!(report.rehomed, Some(n(2)));
        assert_eq!(spanner.center_of[n(1).index()], n(2));
        spanner.check_invariants().unwrap();
    }

    #[test]
    fn spanner_non_tree_delete_promotes_replacements() {
        // Two clusters {0,1} and {2,3} joined by a parallel pair of
        // boundary edges; dropping the covering one promotes the other.
        let graph =
            MultiGraph::from_edges(4, [(n(0), n(1)), (n(2), n(3)), (n(1), n(2)), (n(1), n(2))])
                .unwrap();
        let mut spanner = IncrementalSpanner::with_centers(&graph, &[n(0), n(2)]).unwrap();
        assert_eq!(spanner.spanner_edges(), vec![e(0), e(1), e(2)]);
        let report = spanner.delete_edge(e(2)).unwrap();
        // One promotion: once e3 re-covers node 1 toward cluster 2, it also
        // covers node 2 toward cluster 0, so the second endpoint finds its
        // invariant already repaired.
        assert_eq!(report.cost, CostReport::new(1, 2));
        assert_eq!(report.added_to_spanner, vec![e(3)]);
        spanner.check_invariants().unwrap();
    }

    #[test]
    fn maintenance_cost_accumulates_across_repairs() {
        let mut spanner = IncrementalSpanner::with_centers(&k4(), &[n(0)]).unwrap();
        spanner.delete_edge(e(3)).unwrap();
        spanner.delete_edge(e(0)).unwrap();
        spanner.insert_edge(e(6), n(0), n(1)).unwrap();
        assert_eq!(spanner.repairs(), 3);
        // Free non-spanner delete + tree-edge delete (poll 1 neighbor = 2,
        // audit promotes e4 = 2) + cross-cluster insert (2 + 1 mark).
        assert_eq!(spanner.maintenance_cost(), CostReport::new(3, 7));
        spanner.check_invariants().unwrap();
    }

    #[test]
    fn seeded_construction_is_deterministic_and_stretch_3() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(48, 9), 0.2).unwrap();
        let a = IncrementalSpanner::new(&graph, 11).unwrap();
        let b = IncrementalSpanner::new(&graph, 11).unwrap();
        assert_eq!(a.spanner_edges(), b.spanner_edges());
        a.check_invariants().unwrap();
        let report = verify_edge_stretch(&graph, a.spanner_edges()).unwrap();
        assert!(
            report.satisfies(a.stretch_bound()),
            "stretch {} > 3",
            report.max_stretch
        );
    }

    #[test]
    fn random_churn_preserves_invariants_and_stretch() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(32, 4), 0.25).unwrap();
        let mut spanner = IncrementalSpanner::new(&graph, 5).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut next_id = graph.edge_count() as u64;
        for step in 0..120 {
            if step % 3 == 0 {
                let u = n(rng.gen_range(0u32..32));
                let v = n(rng.gen_range(0u32..32));
                if u != v {
                    spanner.insert_edge(e(next_id), u, v).unwrap();
                    next_id += 1;
                }
            } else {
                let ids: Vec<EdgeId> = spanner.graph().edge_ids().collect();
                if !ids.is_empty() {
                    let id = ids[rng.gen_range(0..ids.len())];
                    spanner.delete_edge(id).unwrap();
                }
            }
            spanner.check_invariants().unwrap();
            let report = verify_edge_stretch(spanner.graph(), spanner.spanner_edges()).unwrap();
            assert!(
                report.satisfies(spanner.stretch_bound()),
                "step {step}: stretch {} > 3",
                report.max_stretch
            );
        }
    }

    #[test]
    fn input_validation() {
        assert!(IncrementalSpanner::new(&MultiGraph::new(0), 0).is_err());
        assert!(IncrementalSpanner::with_centers(&star4(), &[n(9)]).is_err());
        let mut spanner = IncrementalSpanner::with_centers(&star4(), &[n(0)]).unwrap();
        assert!(spanner.delete_edge(e(42)).is_err());
        assert!(spanner.insert_edge(e(0), n(1), n(2)).is_err()); // duplicate ID
        assert!(spanner.insert_edge(e(9), n(1), n(1)).is_err()); // self-loop
    }
}
