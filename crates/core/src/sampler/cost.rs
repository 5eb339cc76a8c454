//! Distributed cost accounting for `Sampler` (Section 5 of the paper).
//!
//! The centralized run of `Cluster_j` (Section 3) is replayed with the exact
//! message and round charges its distributed implementation would incur:
//!
//! * every action on an edge of the *virtual* graph `G_j` (sending a query
//!   over a sampled edge, answering it, reporting the IDs of parallel edges,
//!   joining a center) costs a constant number of messages over the
//!   corresponding edge of `G` — we charge **2 messages per query edge**
//!   (query + response) and **2 messages per joining node** (join + ack);
//! * every *virtual round* of `G_j` is simulated by a broadcast–convergecast
//!   session over the cluster trees `T_j(v)`, which costs `O(1)` messages
//!   per tree edge and `O(3^j)` rounds (Lemma 8). We charge
//!   **2 messages per tree edge per session** (one down, one up) and
//!   **`2·D_j + 2` rounds per session**, where `D_j` is the maximum root
//!   eccentricity at level `j` (`D_j ≤ 3^j − 1`);
//! * each sampling trial is one session; the clustering step (step 2) is one
//!   more session.
//!
//! These constants are an explicit instantiation of the `O(1)`s of Section 5;
//! changing them rescales every curve by the same factor and therefore does
//! not affect the shapes the experiments compare.

use super::hierarchy::LevelTreeStats;
use freelunch_runtime::CostReport;
use serde::{Deserialize, Serialize};

/// Inputs of the cost model for one level, produced by the centralized
/// replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelActivity {
    /// Number of synchronous trial slots the level executed (the maximum
    /// number of trials used by any node, since trials are run in lockstep).
    pub trial_slots: u32,
    /// Messages exchanged over `G_j` edges by the sampling process: two per
    /// distinct query edge (query + response), plus two per edge queried by a
    /// fallback.
    pub query_messages: u64,
    /// Messages exchanged over `G_j` edges by the clustering step: two per
    /// node that joins a center.
    pub join_messages: u64,
    /// Whether the level ran a clustering step (all levels except the last).
    pub has_clustering_step: bool,
}

/// The explicit constants used to instantiate Section 5's `O(1)`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributedCostModel {
    /// Messages charged per tree edge per broadcast–convergecast session.
    pub messages_per_tree_edge_per_session: u64,
    /// Extra rounds charged per session on top of the down+up tree depth
    /// (the round in which the actual `G_j`-edge messages fly).
    pub rounds_per_session_overhead: u64,
}

impl Default for DistributedCostModel {
    fn default() -> Self {
        DistributedCostModel {
            messages_per_tree_edge_per_session: 2,
            rounds_per_session_overhead: 2,
        }
    }
}

impl DistributedCostModel {
    /// Rounds of one broadcast–convergecast session at a level whose deepest
    /// cluster tree has root eccentricity `max_root_depth`.
    pub(crate) fn rounds_per_session(&self, max_root_depth: u32) -> u64 {
        2 * u64::from(max_root_depth) + self.rounds_per_session_overhead
    }

    /// Cost of one level given its tree statistics and the activity recorded
    /// by the centralized replay.
    pub(crate) fn level_cost(
        &self,
        trees: &LevelTreeStats,
        activity: &LevelActivity,
    ) -> CostReport {
        let sessions = u64::from(activity.trial_slots) + u64::from(activity.has_clustering_step);
        let tree_messages =
            sessions * self.messages_per_tree_edge_per_session * trees.tree_edges_total;
        let rounds = sessions * self.rounds_per_session(trees.max_root_depth);
        CostReport {
            rounds,
            messages: activity.query_messages + activity.join_messages + tree_messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trees(tree_edges_total: u64, max_root_depth: u32) -> LevelTreeStats {
        LevelTreeStats {
            tree_edges_total,
            max_root_depth,
            clusters: 10,
            covered_nodes: 20,
        }
    }

    #[test]
    fn level_zero_has_no_tree_overhead() {
        // At level 0 every cluster is a singleton: no tree edges, depth 0.
        let model = DistributedCostModel::default();
        let activity = LevelActivity {
            trial_slots: 4,
            query_messages: 100,
            join_messages: 10,
            has_clustering_step: true,
        };
        let cost = model.level_cost(&trees(0, 0), &activity);
        assert_eq!(cost.messages, 110);
        // 5 sessions × 2 rounds each.
        assert_eq!(cost.rounds, 10);
    }

    #[test]
    fn deeper_trees_cost_more_rounds_and_messages() {
        let model = DistributedCostModel::default();
        let activity = LevelActivity {
            trial_slots: 3,
            query_messages: 50,
            join_messages: 0,
            has_clustering_step: false,
        };
        let shallow = model.level_cost(&trees(40, 1), &activity);
        let deep = model.level_cost(&trees(40, 8), &activity);
        assert!(deep.rounds > shallow.rounds);
        assert_eq!(deep.messages, shallow.messages);
        // 3 sessions × (2·8 + 2) rounds.
        assert_eq!(deep.rounds, 3 * 18);
        // 50 + 3 sessions × 2 × 40 tree edges.
        assert_eq!(deep.messages, 50 + 240);
    }

    #[test]
    fn rounds_per_session_respects_lemma8_bound() {
        let model = DistributedCostModel::default();
        for j in 0..5u32 {
            let depth_bound = 3u32.pow(j) - 1;
            // One session over trees of the maximum allowed depth takes
            // O(3^j) rounds.
            assert!(model.rounds_per_session(depth_bound) <= 2 * 3u64.pow(j) + 2);
        }
    }

    #[test]
    fn zero_activity_costs_only_the_clustering_session() {
        let model = DistributedCostModel::default();
        let activity = LevelActivity {
            trial_slots: 0,
            query_messages: 0,
            join_messages: 0,
            has_clustering_step: true,
        };
        let cost = model.level_cost(&trees(5, 2), &activity);
        assert_eq!(cost.rounds, model.rounds_per_session(2));
        assert_eq!(cost.messages, 10);
    }
}
