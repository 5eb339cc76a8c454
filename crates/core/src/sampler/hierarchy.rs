//! The cluster hierarchy maintained across the levels of `Sampler`.
//!
//! A node of the level-`j` graph `G_j` corresponds to a cluster `C_j(v)` of
//! original (`G_0`) nodes. The proof of Lemma 8 shows that the spanner edges
//! added so far contain, for every such cluster, a spanning tree `T_j(v)` of
//! diameter at most `3^j − 1`; the distributed implementation of Section 5
//! runs its broadcast–convergecast sessions over exactly these trees. The
//! [`ClusterInfo`] structure records the members, the tree edges and the
//! root of each cluster so that (a) the stretch/diameter invariants can be
//! tested directly and (b) the distributed cost accounting can charge the
//! tree traffic exactly.

use freelunch_graph::{EdgeId, MultiGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// One cluster of the hierarchy: a node of some level graph `G_j`, described
/// in terms of the original communication graph `G_0`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterInfo {
    /// Original (`G_0`) nodes contained in the cluster.
    pub members: Vec<NodeId>,
    /// Edges of `G_0` forming the spanning tree `T_j(v)` of the cluster (all
    /// of them are spanner edges).
    pub tree_edges: Vec<EdgeId>,
    /// The original node acting as the root of the tree (the level-0 ancestor
    /// of the chain of centers that formed this cluster).
    pub root: NodeId,
    /// Eccentricity of the root inside the tree (`0` for singleton clusters).
    pub depth: u32,
}

impl ClusterInfo {
    /// A singleton cluster containing only `node` (the level-0 state).
    pub(crate) fn singleton(node: NodeId) -> Self {
        ClusterInfo {
            members: vec![node],
            tree_edges: Vec::new(),
            root: node,
            depth: 0,
        }
    }

    /// Number of original nodes in the cluster.
    pub(crate) fn size(&self) -> usize {
        self.members.len()
    }

    /// Merges a center's cluster with the clusters of the nodes that joined
    /// it. `joined` lists, for every joining cluster, the original edge used
    /// to connect it to the center's cluster.
    ///
    /// The resulting tree is the union of the constituent trees plus the
    /// connecting edges; the root stays the center's root. The root
    /// eccentricity is recomputed exactly by a BFS over the tree edges.
    pub(crate) fn merge(
        center: &ClusterInfo,
        joined: &[(&ClusterInfo, EdgeId)],
        graph: &MultiGraph,
    ) -> Self {
        let mut members = center.members.clone();
        let mut tree_edges = center.tree_edges.clone();
        for (cluster, connector) in joined {
            members.extend_from_slice(&cluster.members);
            tree_edges.extend_from_slice(&cluster.tree_edges);
            tree_edges.push(*connector);
        }
        members.sort_unstable();
        members.dedup();
        tree_edges.sort_unstable();
        tree_edges.dedup();
        let depth = root_eccentricity(&members, &tree_edges, center.root, graph);
        ClusterInfo {
            members,
            tree_edges,
            root: center.root,
            depth,
        }
    }
}

/// Computes the eccentricity of `root` in the forest spanned by `tree_edges`
/// restricted to `members`. Unreachable members are ignored (they cannot
/// occur for well-formed clusters; the function stays total regardless).
pub(crate) fn root_eccentricity(
    members: &[NodeId],
    tree_edges: &[EdgeId],
    root: NodeId,
    graph: &MultiGraph,
) -> u32 {
    let mut adjacency: HashMap<NodeId, Vec<NodeId>> = HashMap::with_capacity(members.len());
    for member in members {
        adjacency.entry(*member).or_default();
    }
    for edge in tree_edges {
        if let Ok((u, v)) = graph.endpoints(*edge) {
            adjacency.entry(u).or_default().push(v);
            adjacency.entry(v).or_default().push(u);
        }
    }
    let mut dist: HashMap<NodeId, u32> = HashMap::with_capacity(members.len());
    dist.insert(root, 0);
    let mut queue = VecDeque::from([root]);
    let mut eccentricity = 0;
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        eccentricity = eccentricity.max(du);
        if let Some(neighbors) = adjacency.get(&u) {
            for &v in neighbors {
                if let std::collections::hash_map::Entry::Vacant(entry) = dist.entry(v) {
                    entry.insert(du + 1);
                    queue.push_back(v);
                }
            }
        }
    }
    eccentricity
}

/// Aggregate statistics of one level of the hierarchy, used by the
/// distributed cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelTreeStats {
    /// Total number of tree edges over all clusters of the level (`T_j`).
    pub tree_edges_total: u64,
    /// Maximum root eccentricity over all clusters of the level (`D_j`).
    pub max_root_depth: u32,
    /// Number of clusters (= nodes of `G_j`).
    pub clusters: usize,
    /// Total number of original nodes covered by the clusters.
    pub covered_nodes: usize,
}

/// Computes the tree statistics of a level from its cluster list.
pub(crate) fn level_tree_stats(clusters: &[ClusterInfo]) -> LevelTreeStats {
    LevelTreeStats {
        tree_edges_total: clusters.iter().map(|c| c.tree_edges.len() as u64).sum(),
        max_root_depth: clusters.iter().map(|c| c.depth).max().unwrap_or(0),
        clusters: clusters.len(),
        covered_nodes: clusters.iter().map(ClusterInfo::size).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Path 0-1-2-3-4 plus an extra edge 0-5.
    fn graph() -> MultiGraph {
        MultiGraph::from_edges(
            6,
            [
                (n(0), n(1)),
                (n(1), n(2)),
                (n(2), n(3)),
                (n(3), n(4)),
                (n(0), n(5)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn singleton_cluster() {
        let c = ClusterInfo::singleton(n(3));
        assert_eq!(c.size(), 1);
        assert_eq!(c.depth, 0);
        assert_eq!(c.root, n(3));
        assert!(c.tree_edges.is_empty());
    }

    #[test]
    fn merge_builds_star_of_singletons() {
        let g = graph();
        let center = ClusterInfo::singleton(n(1));
        let a = ClusterInfo::singleton(n(0));
        let b = ClusterInfo::singleton(n(2));
        // Connect 0 via edge 0 (0-1) and 2 via edge 1 (1-2).
        let merged = ClusterInfo::merge(&center, &[(&a, EdgeId::new(0)), (&b, EdgeId::new(1))], &g);
        assert_eq!(merged.size(), 3);
        assert_eq!(merged.root, n(1));
        assert_eq!(merged.depth, 1);
        assert_eq!(merged.tree_edges.len(), 2);
    }

    #[test]
    fn merge_of_merged_clusters_grows_depth() {
        let g = graph();
        // First-level cluster {1, 2} rooted at 1.
        let c12 = ClusterInfo::merge(
            &ClusterInfo::singleton(n(1)),
            &[(&ClusterInfo::singleton(n(2)), EdgeId::new(1))],
            &g,
        );
        // Second-level merge: {3,4} (rooted at 3) joins via edge 2 (2-3).
        let c34 = ClusterInfo::merge(
            &ClusterInfo::singleton(n(3)),
            &[(&ClusterInfo::singleton(n(4)), EdgeId::new(3))],
            &g,
        );
        let merged = ClusterInfo::merge(&c12, &[(&c34, EdgeId::new(2))], &g);
        assert_eq!(merged.size(), 4);
        assert_eq!(merged.root, n(1));
        // Path 1-2-3-4 rooted at 1 ⇒ eccentricity 3.
        assert_eq!(merged.depth, 3);
    }

    #[test]
    fn merge_deduplicates_shared_members_and_edges() {
        let g = graph();
        let center = ClusterInfo {
            members: vec![n(0), n(1)],
            tree_edges: vec![EdgeId::new(0)],
            root: n(0),
            depth: 1,
        };
        let other = ClusterInfo {
            members: vec![n(1), n(2)],
            tree_edges: vec![EdgeId::new(1)],
            root: n(1),
            depth: 1,
        };
        let merged = ClusterInfo::merge(&center, &[(&other, EdgeId::new(1))], &g);
        assert_eq!(merged.members, vec![n(0), n(1), n(2)]);
        assert_eq!(merged.tree_edges.len(), 2);
    }

    #[test]
    fn root_eccentricity_ignores_unreachable_members() {
        let g = graph();
        // Member 5 has no tree edge: it must not make the BFS panic.
        let ecc = root_eccentricity(&[n(0), n(1), n(5)], &[EdgeId::new(0)], n(0), &g);
        assert_eq!(ecc, 1);
    }

    #[test]
    fn level_stats_aggregate() {
        let g = graph();
        let c1 = ClusterInfo::merge(
            &ClusterInfo::singleton(n(1)),
            &[(&ClusterInfo::singleton(n(0)), EdgeId::new(0))],
            &g,
        );
        let c2 = ClusterInfo::singleton(n(3));
        let stats = level_tree_stats(&[c1, c2]);
        assert_eq!(stats.clusters, 2);
        assert_eq!(stats.tree_edges_total, 1);
        assert_eq!(stats.max_root_depth, 1);
        assert_eq!(stats.covered_nodes, 3);
        assert_eq!(level_tree_stats(&[]), LevelTreeStats::default());
    }
}
