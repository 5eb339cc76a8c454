//! The status-quo baseline: direct flooding on the communication graph.
//!
//! Running a `t`-round LOCAL algorithm directly — or solving the `t`-local
//! broadcast by flooding on `G` itself — costs `Θ(t·m)` messages in the
//! worst case. This is the `Ω(|E|)` term the paper's schemes eliminate; the
//! baseline here measures it exactly (it only forwards *new* tokens, so the
//! measured count is a lower bound on what any naive per-round flooding
//! would send).
//!
//! The run is metered through the workspace-wide
//! [`MessageLedger`] (via the shared
//! flooding engine of `freelunch-core`), so its per-edge, per-round and
//! byte-level numbers are directly comparable with the schemes' — see
//! `docs/METRICS.md` for the contract.

use crate::error::{BaselineError, BaselineResult};
use freelunch_core::reduction::tlocal::{flood_on_subgraph, BroadcastOutcome};
use freelunch_graph::MultiGraph;
use freelunch_runtime::MessageLedger;
use serde::{Deserialize, Serialize};

/// Summary of a direct-flooding run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FloodingOutcome {
    /// The underlying flooding result (cost, coverage, token counts).
    pub broadcast: BroadcastOutcome,
    /// The worst-case message bound of naive flooding: `2·t·|E|`.
    pub naive_bound: u64,
}

impl FloodingOutcome {
    /// The per-edge / per-round message ledger of the flood — the same meter
    /// the schemes report through.
    pub fn ledger(&self) -> &MessageLedger {
        &self.broadcast.ledger
    }
}

/// Solves the `t`-local broadcast by flooding directly on `G` for `t`
/// rounds, using every edge of the graph.
///
/// # Errors
///
/// Returns an error if the graph is empty.
pub fn direct_flooding(graph: &MultiGraph, t: u32) -> BaselineResult<FloodingOutcome> {
    if graph.node_count() == 0 {
        return Err(BaselineError::invalid_parameter(
            "the input graph has no nodes",
        ));
    }
    let broadcast = flood_on_subgraph(graph, graph.edge_ids(), t)?;
    Ok(FloodingOutcome {
        naive_bound: 2 * u64::from(t) * graph.edge_count() as u64,
        broadcast,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{complete_graph, connected_erdos_renyi, GeneratorConfig};

    #[test]
    fn direct_flooding_covers_balls_and_costs_theta_tm() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(70, 4), 0.3).unwrap();
        let t = 2;
        let outcome = direct_flooding(&graph, t).unwrap();
        assert_eq!(outcome.broadcast.coverage_violations(&graph, t).unwrap(), 0);
        assert_eq!(outcome.broadcast.cost.rounds, u64::from(t));
        // In the first round every node forwards its own token over every
        // edge, so at least 2m messages are sent.
        assert!(outcome.broadcast.cost.messages >= 2 * graph.edge_count() as u64);
        assert!(outcome.broadcast.cost.messages <= outcome.naive_bound);
    }

    #[test]
    fn dense_graphs_pay_for_every_edge() {
        let graph = complete_graph(&GeneratorConfig::new(100, 0)).unwrap();
        let outcome = direct_flooding(&graph, 1).unwrap();
        assert_eq!(
            outcome.broadcast.cost.messages,
            2 * graph.edge_count() as u64
        );
    }

    #[test]
    fn empty_graph_rejected() {
        assert!(direct_flooding(&MultiGraph::new(0), 1).is_err());
    }

    #[test]
    fn cost_model_hook_is_exact_at_small_t() {
        use freelunch_core::planner::{GraphStats, SchemePlanner, StatsConfig};
        let graph = connected_erdos_renyi(&GeneratorConfig::new(80, 6), 0.15).unwrap();
        let stats = GraphStats::sample(&graph.freeze(), &StatsConfig::default()).unwrap();
        let predicted = |t: u32| {
            SchemePlanner::new(t)
                .unwrap()
                .predict_direct(&stats)
                .messages
        };
        for t in [1u32, 2] {
            let outcome = direct_flooding(&graph, t).unwrap();
            assert_eq!(
                predicted(t),
                outcome.broadcast.cost.messages as f64,
                "t = {t}"
            );
        }
        // Beyond t = 2 the law is an upper bound (the flood quiesces).
        let outcome = direct_flooding(&graph, 6).unwrap();
        assert!(predicted(6) >= outcome.broadcast.cost.messages as f64);
    }
}
