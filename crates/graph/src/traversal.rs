//! Breadth-first traversal utilities: distances, balls, components, diameter.
//!
//! These routines back the verification side of the reproduction: the stretch
//! guarantee of Theorem 9 is checked by comparing BFS distances in the
//! spanner against adjacency in the original graph, and the `t`-local
//! broadcast task of Section 6 is defined in terms of the ball
//! `B_{G,t}(v) = {u : dist_G(v, u) ≤ t}`.
//!
//! Every routine is generic over [`Topology`], so it runs both on the
//! mutable [`MultiGraph`](crate::MultiGraph) and on the packed
//! [`CsrGraph`](crate::CsrGraph) view produced by
//! [`MultiGraph::freeze`](crate::MultiGraph::freeze) — freeze first when a
//! graph is scanned repeatedly (e.g. the per-node ball queries of the
//! simulation verifier).

use crate::csr::Topology;
use crate::error::{GraphError, GraphResult};
use crate::{EdgeId, NodeId};
use std::collections::VecDeque;

/// Result of a single-source BFS: hop distances and the BFS tree.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `dist[v]` is the hop distance from the source, or `None` if `v` is
    /// unreachable.
    pub dist: Vec<Option<u32>>,
    /// `parent_edge[v]` is the tree edge through which `v` was discovered
    /// (`None` for the source and unreachable nodes).
    pub parent_edge: Vec<Option<EdgeId>>,
    /// `parent[v]` is the BFS-tree parent of `v`.
    pub parent: Vec<Option<NodeId>>,
    /// Nodes in the order they were discovered (starting with the source).
    pub order: Vec<NodeId>,
}

impl BfsResult {
    /// Hop distance to `node`, if reachable.
    pub fn distance(&self, node: NodeId) -> Option<u32> {
        self.dist.get(node.index()).copied().flatten()
    }
}

/// Runs a breadth-first search from `source`, optionally bounded to
/// `max_depth` hops.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfRange`] if `source` is not a node of `graph`.
pub fn bfs<G: Topology>(
    graph: &G,
    source: NodeId,
    max_depth: Option<u32>,
) -> GraphResult<BfsResult> {
    graph.check_node(source)?;
    let n = graph.node_count();
    let mut dist = vec![None; n];
    let mut parent_edge = vec![None; n];
    let mut parent = vec![None; n];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();

    dist[source.index()] = Some(0);
    order.push(source);
    queue.push_back(source);

    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have a distance");
        if let Some(limit) = max_depth {
            if du >= limit {
                continue;
            }
        }
        for incident in graph.incident_edges(u) {
            let v = incident.neighbor;
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                parent_edge[v.index()] = Some(incident.edge);
                parent[v.index()] = Some(u);
                order.push(v);
                queue.push_back(v);
            }
        }
    }

    Ok(BfsResult {
        dist,
        parent_edge,
        parent,
        order,
    })
}

/// Hop distances from `source` to every node (`None` if unreachable).
///
/// # Errors
///
/// Returns an error if `source` is out of range.
pub fn bfs_distances<G: Topology>(graph: &G, source: NodeId) -> GraphResult<Vec<Option<u32>>> {
    Ok(bfs(graph, source, None)?.dist)
}

/// The ball `B_{G,t}(v)`: all nodes within hop distance `t` of `source`,
/// including `source` itself, sorted by node index.
///
/// # Errors
///
/// Returns an error if `source` is out of range.
pub fn ball<G: Topology>(graph: &G, source: NodeId, radius: u32) -> GraphResult<Vec<NodeId>> {
    let result = bfs(graph, source, Some(radius))?;
    let mut nodes: Vec<NodeId> = result
        .dist
        .iter()
        .enumerate()
        .filter_map(|(i, d)| match d {
            Some(d) if *d <= radius => Some(NodeId::from_usize(i)),
            _ => None,
        })
        .collect();
    nodes.sort_unstable();
    Ok(nodes)
}

/// Length of a shortest `u`–`v` path, or `None` if `v` is unreachable from
/// `u`. Stops early once `v` is found; `max_depth` (if given) caps the
/// search radius.
///
/// # Errors
///
/// Returns an error if either node is out of range.
pub fn shortest_path_len<G: Topology>(
    graph: &G,
    u: NodeId,
    v: NodeId,
    max_depth: Option<u32>,
) -> GraphResult<Option<u32>> {
    graph.check_node(u)?;
    graph.check_node(v)?;
    if u == v {
        return Ok(Some(0));
    }
    let n = graph.node_count();
    let mut dist = vec![None; n];
    let mut queue = VecDeque::new();
    dist[u.index()] = Some(0u32);
    queue.push_back(u);
    while let Some(x) = queue.pop_front() {
        let dx = dist[x.index()].expect("queued nodes have a distance");
        if let Some(limit) = max_depth {
            if dx >= limit {
                continue;
            }
        }
        for incident in graph.incident_edges(x) {
            let y = incident.neighbor;
            if dist[y.index()].is_none() {
                if y == v {
                    return Ok(Some(dx + 1));
                }
                dist[y.index()] = Some(dx + 1);
                queue.push_back(y);
            }
        }
    }
    Ok(None)
}

/// Assignment of each node to a connected component, components numbered
/// `0..count` in order of their smallest node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `component[v]` is the component index of node `v`.
    pub component: Vec<usize>,
    /// Number of connected components.
    pub count: usize,
}

impl Components {
    /// Sizes of the components, indexed by component id.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &c in &self.component {
            sizes[c] += 1;
        }
        sizes
    }
}

/// Computes the connected components of `graph`.
pub fn connected_components<G: Topology>(graph: &G) -> Components {
    let n = graph.node_count();
    let mut component = vec![usize::MAX; n];
    let mut count = 0;
    for start in graph.nodes() {
        if component[start.index()] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        component[start.index()] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for incident in graph.incident_edges(u) {
                let v = incident.neighbor;
                if component[v.index()] == usize::MAX {
                    component[v.index()] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Components { component, count }
}

/// Returns `true` if the graph is connected (the empty graph and the
/// single-node graph are considered connected).
pub fn is_connected<G: Topology>(graph: &G) -> bool {
    graph.node_count() <= 1 || connected_components(graph).count == 1
}

/// Checks connectivity, returning an error naming the number of components if
/// the graph is disconnected.
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] when the graph has more than one
/// connected component.
pub(crate) fn require_connected<G: Topology>(graph: &G) -> GraphResult<()> {
    let components = connected_components(graph);
    if graph.node_count() <= 1 || components.count == 1 {
        Ok(())
    } else {
        Err(GraphError::Disconnected {
            components: components.count,
        })
    }
}

/// Eccentricity of `node`: the largest hop distance to any reachable node.
///
/// # Errors
///
/// Returns an error if `node` is out of range.
pub(crate) fn eccentricity<G: Topology>(graph: &G, node: NodeId) -> GraphResult<u32> {
    let result = bfs(graph, node, None)?;
    Ok(result.dist.iter().flatten().copied().max().unwrap_or(0))
}

/// Exact diameter of a connected graph, computed by all-sources BFS
/// (`O(n·m)`).
///
/// # Errors
///
/// Returns [`GraphError::Disconnected`] if the graph is not connected.
pub fn diameter_exact<G: Topology>(graph: &G) -> GraphResult<u32> {
    require_connected(graph)?;
    let mut best = 0;
    for node in graph.nodes() {
        best = best.max(eccentricity(graph, node)?);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::MultiGraph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 0 - 1 - 2 - 3 path plus isolated node 4.
    fn path_plus_isolated() -> MultiGraph {
        let mut g = MultiGraph::new(5);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        g
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_plus_isolated();
        let dist = bfs_distances(&g, n(0)).unwrap();
        assert_eq!(dist, vec![Some(0), Some(1), Some(2), Some(3), None]);
    }

    #[test]
    fn bfs_depth_bound_truncates() {
        let g = path_plus_isolated();
        let result = bfs(&g, n(0), Some(2)).unwrap();
        assert_eq!(result.distance(n(2)), Some(2));
        assert_eq!(result.distance(n(3)), None);
        assert_eq!(result.order.len(), 3);
    }

    #[test]
    fn bfs_path_reconstruction() {
        let g = path_plus_isolated();
        let result = bfs(&g, n(0), None).unwrap();
        // Walking the BFS tree up from node 3 reaches the source in three
        // tree edges; the source has no parent edge, the isolated node none.
        let mut path = Vec::new();
        let mut node = n(3);
        while let Some(edge) = result.parent_edge[node.index()] {
            path.push(edge);
            node = result.parent[node.index()].unwrap();
        }
        assert_eq!(path.len(), 3);
        assert_eq!(node, n(0));
        assert!(result.parent_edge[n(4).index()].is_none());
        assert!(result.distance(n(4)).is_none());
    }

    #[test]
    fn bfs_source_out_of_range() {
        let g = path_plus_isolated();
        assert!(bfs(&g, n(9), None).is_err());
    }

    #[test]
    fn ball_contains_exactly_radius_neighborhood() {
        let g = path_plus_isolated();
        assert_eq!(ball(&g, n(1), 0).unwrap(), vec![n(1)]);
        assert_eq!(ball(&g, n(1), 1).unwrap(), vec![n(0), n(1), n(2)]);
        assert_eq!(ball(&g, n(1), 2).unwrap(), vec![n(0), n(1), n(2), n(3)]);
        assert_eq!(ball(&g, n(1), 10).unwrap(), vec![n(0), n(1), n(2), n(3)]);
    }

    #[test]
    fn shortest_path_len_cases() {
        let g = path_plus_isolated();
        assert_eq!(shortest_path_len(&g, n(0), n(3), None).unwrap(), Some(3));
        assert_eq!(shortest_path_len(&g, n(0), n(0), None).unwrap(), Some(0));
        assert_eq!(shortest_path_len(&g, n(0), n(4), None).unwrap(), None);
        assert_eq!(shortest_path_len(&g, n(0), n(3), Some(2)).unwrap(), None);
        assert_eq!(shortest_path_len(&g, n(0), n(3), Some(3)).unwrap(), Some(3));
    }

    #[test]
    fn components_and_connectivity() {
        let g = path_plus_isolated();
        let comps = connected_components(&g);
        assert_eq!(comps.count, 2);
        assert_eq!(comps.component[0], comps.component[3]);
        assert_ne!(comps.component[0], comps.component[4]);
        assert_eq!(comps.sizes(), vec![4, 1]);
        assert!(!is_connected(&g));
        assert_eq!(
            require_connected(&g),
            Err(GraphError::Disconnected { components: 2 })
        );
    }

    #[test]
    fn single_node_and_empty_graphs_are_connected() {
        assert!(is_connected(&MultiGraph::new(0)));
        assert!(is_connected(&MultiGraph::new(1)));
        assert!(require_connected(&MultiGraph::new(1)).is_ok());
    }

    #[test]
    fn eccentricity_and_diameter() {
        let mut g = MultiGraph::new(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(2), n(3)).unwrap();
        assert_eq!(eccentricity(&g, n(0)).unwrap(), 3);
        assert_eq!(eccentricity(&g, n(1)).unwrap(), 2);
        assert_eq!(diameter_exact(&g).unwrap(), 3);
    }

    #[test]
    fn diameter_requires_connected() {
        let g = path_plus_isolated();
        assert!(diameter_exact(&g).is_err());
    }

    #[test]
    fn parallel_edges_do_not_change_distances() {
        let mut g = MultiGraph::new(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        assert_eq!(
            bfs_distances(&g, n(0)).unwrap(),
            vec![Some(0), Some(1), Some(2)]
        );
        assert_eq!(diameter_exact(&g).unwrap(), 2);
    }
}
