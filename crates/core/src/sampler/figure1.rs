//! Step-by-step traces of the `Cluster_j` procedure, mirroring Figure 1 of
//! the paper: (a) the level graph `G_j`, (b) the query edges, (c) the edge
//! set `F`, (d) the selected centers, (e) the clustering, (f) the contracted
//! graph `G_{j+1}`.

use freelunch_graph::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Trace of a single level of the hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelTrace {
    /// Level index `j`.
    pub level: u32,
    /// Number of nodes of `G_j`.
    pub nodes: usize,
    /// Number of edges of `G_j` (with multiplicities).
    pub edges: usize,
    /// Every edge queried during the sampling trials (panel (b) of Figure 1).
    pub query_edges: Vec<EdgeId>,
    /// The edges added to `F` (one per queried neighbor; panel (c)).
    pub f_edges: Vec<EdgeId>,
    /// The roots (original `G_0` nodes) of the clusters marked as centers
    /// (panel (d)).
    pub centers: Vec<NodeId>,
    /// The clusters formed at this level: each entry lists the original
    /// nodes merged into one new cluster (panel (e)).
    pub clusters: Vec<Vec<NodeId>>,
    /// Roots of the clusters left unclustered at this level (panel (e),
    /// dashed nodes).
    pub unclustered: Vec<NodeId>,
    /// Number of nodes of the contracted graph `G_{j+1}` (panel (f));
    /// `None` for the final level, which performs no contraction.
    pub next_level_nodes: Option<usize>,
}

/// Full trace of a `Sampler` run, one entry per level.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Figure1Trace {
    /// Per-level traces, in level order.
    pub levels: Vec<LevelTrace>,
}

impl Figure1Trace {
    /// Creates an empty trace.
    pub(crate) fn new() -> Self {
        Figure1Trace::default()
    }

    /// The trace of level `j`, if recorded.
    pub fn level(&self, j: u32) -> Option<&LevelTrace> {
        self.levels.iter().find(|l| l.level == j)
    }
}

impl fmt::Display for Figure1Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for level in &self.levels {
            writeln!(
                f,
                "level {}: |V_j|={} |E_j|={} query edges={} F edges={} centers={} clusters={} unclustered={} next |V_(j+1)|={}",
                level.level,
                level.nodes,
                level.edges,
                level.query_edges.len(),
                level.f_edges.len(),
                level.centers.len(),
                level.clusters.len(),
                level.unclustered.len(),
                level.next_level_nodes.map_or_else(|| "-".to_string(), |n| n.to_string()),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_level() {
        let trace = Figure1Trace {
            levels: vec![
                LevelTrace {
                    level: 0,
                    nodes: 10,
                    ..LevelTrace::default()
                },
                LevelTrace {
                    level: 1,
                    nodes: 4,
                    ..LevelTrace::default()
                },
            ],
        };
        assert_eq!(trace.level(1).unwrap().nodes, 4);
        assert!(trace.level(2).is_none());
    }

    #[test]
    fn display_is_one_line_per_level() {
        let trace = Figure1Trace {
            levels: vec![
                LevelTrace {
                    level: 0,
                    nodes: 6,
                    edges: 9,
                    next_level_nodes: Some(2),
                    ..LevelTrace::default()
                },
                LevelTrace {
                    level: 1,
                    nodes: 2,
                    edges: 1,
                    ..LevelTrace::default()
                },
            ],
        };
        let text = trace.to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("level 0"));
        assert!(text.contains("next |V_(j+1)|=2"));
        assert!(text.contains("next |V_(j+1)|=-"));
    }
}
