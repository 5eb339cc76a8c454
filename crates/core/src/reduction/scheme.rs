//! The single-stage message-reduction scheme (Lemma 12, first bullet /
//! Theorem 3, first bullet).
//!
//! For a parameter `1 ≤ γ ≤ log log n`, set `k = γ` and `h = 2^{γ+1} − 1` in
//! `Sampler`. The resulting spanner has stretch `O(3^γ)` and
//! `Õ(n^{1+1/(2^{γ+1}-1)})` edges, and its construction sends
//! `Õ(n^{1+2/(2^{γ+1}-1)})` messages in `O(6^γ)` rounds. Flooding on it for
//! `O(3^γ t)` rounds then solves the `t`-local broadcast with
//! `Õ(t·n^{1+2/(2^{γ+1}-1)})` messages and `O(3^γ t + 6^γ)` rounds.

use super::tlocal::{t_local_broadcast, BroadcastOutcome};
use crate::error::{CoreError, CoreResult};
use crate::params::{ConstantPolicy, SamplerParams};
use crate::sampler::{Sampler, SamplerOutcome};
use freelunch_graph::MultiGraph;
use freelunch_runtime::CostReport;
use serde::{Deserialize, Serialize};

/// The single-stage scheme: `Sampler` spanner + spanner flooding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplerScheme {
    /// The scheme parameter `γ` (`k = γ`, `h = 2^{γ+1} − 1`).
    pub gamma: u32,
    /// Instantiation of the algorithm's `whp` constants.
    pub constants: ConstantPolicy,
}

impl SamplerScheme {
    /// Creates the scheme with explicit constants.
    ///
    /// # Errors
    ///
    /// Returns an error if `γ` is zero or larger than 10 (the induced
    /// `h = 2^{γ+1} − 1` would be astronomically large beyond that).
    pub fn with_constants(gamma: u32, constants: ConstantPolicy) -> CoreResult<Self> {
        SamplerScheme { gamma, constants }.validated()
    }

    fn validated(self) -> CoreResult<Self> {
        if self.gamma == 0 || self.gamma > 10 {
            return Err(CoreError::invalid_parameter(format!(
                "gamma must be in 1..=10, got {}",
                self.gamma
            )));
        }
        Ok(self)
    }

    /// The `Sampler` parameters the scheme uses (`k = γ`, `h = 2^{γ+1} − 1`).
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation errors.
    pub fn sampler_params(&self) -> CoreResult<SamplerParams> {
        let h = (1u32 << (self.gamma + 1)) - 1;
        SamplerParams::with_constants(self.gamma, h, self.constants)
    }

    /// The stretch of the spanner the scheme builds.
    pub fn stretch(&self) -> u32 {
        2 * 3u32.pow(self.gamma) - 1
    }

    /// The paper's message-complexity formula for the `t`-local broadcast:
    /// `t · n^{1+2/(2^{γ+1}-1)}` (log factors omitted).
    pub(crate) fn message_formula(&self, n: usize, t: u32) -> f64 {
        let exponent = 1.0 + 2.0 / ((1u64 << (self.gamma + 1)) as f64 - 1.0);
        f64::from(t) * (n as f64).powf(exponent)
    }

    /// The paper's round-complexity formula: `3^γ·t + 6^γ`.
    pub(crate) fn round_formula(&self, t: u32) -> u64 {
        3u64.pow(self.gamma) * u64::from(t) + 6u64.pow(self.gamma)
    }

    /// Runs the scheme: builds the spanner and performs the `t`-local
    /// broadcast on it.
    ///
    /// # Errors
    ///
    /// Propagates construction and flooding errors.
    pub fn run(&self, graph: &MultiGraph, t: u32, seed: u64) -> CoreResult<SchemeReport> {
        let params = self.sampler_params()?;
        let sampler = Sampler::new(params);
        let spanner = sampler.run(graph, seed)?;
        let broadcast = t_local_broadcast(
            graph,
            spanner.spanner_edges().iter().copied(),
            t,
            self.stretch(),
        )?;
        Ok(SchemeReport::assemble(self, graph, t, spanner, broadcast))
    }
}

/// The measured cost of one scheme run, next to the paper's formulas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeReport {
    /// The scheme parameter `γ`.
    pub gamma: u32,
    /// The locality parameter `t` of the simulated algorithm.
    pub t: u32,
    /// Number of nodes of the input graph.
    pub nodes: usize,
    /// Number of edges of the input graph.
    pub edges: usize,
    /// Number of spanner edges constructed.
    pub spanner_edges: usize,
    /// Cost of the spanner construction (Section 5 accounting).
    pub spanner_cost: CostReport,
    /// Cost of the flooding stage.
    pub broadcast_cost: CostReport,
    /// Total cost of the scheme.
    pub total_cost: CostReport,
    /// The paper's round formula `3^γ t + 6^γ`.
    pub round_formula: u64,
    /// The paper's message formula `t·n^{1+2/(2^{γ+1}-1)}` (log factors
    /// omitted).
    pub message_formula: f64,
}

impl SchemeReport {
    fn assemble(
        scheme: &SamplerScheme,
        graph: &MultiGraph,
        t: u32,
        spanner: SamplerOutcome,
        broadcast: BroadcastOutcome,
    ) -> Self {
        SchemeReport {
            gamma: scheme.gamma,
            t,
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            spanner_edges: spanner.spanner_size(),
            spanner_cost: spanner.cost,
            broadcast_cost: broadcast.cost,
            total_cost: spanner.cost + broadcast.cost,
            round_formula: scheme.round_formula(t),
            message_formula: scheme.message_formula(graph.node_count(), t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{connected_erdos_renyi, GeneratorConfig};

    fn practical(gamma: u32) -> SamplerScheme {
        SamplerScheme::with_constants(
            gamma,
            ConstantPolicy::Practical {
                target_factor: 4.0,
                query_factor: 8.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn parameter_validation() {
        assert!(SamplerScheme::with_constants(0, ConstantPolicy::default()).is_err());
        assert!(SamplerScheme::with_constants(11, ConstantPolicy::default()).is_err());
        let scheme = SamplerScheme::with_constants(2, ConstantPolicy::default()).unwrap();
        let params = scheme.sampler_params().unwrap();
        assert_eq!(params.k, 2);
        assert_eq!(params.h, 7);
        assert_eq!(scheme.stretch(), 17);
    }

    #[test]
    fn formulas_match_the_paper() {
        let scheme = SamplerScheme::with_constants(1, ConstantPolicy::default()).unwrap();
        assert_eq!(scheme.round_formula(4), 3 * 4 + 6);
        // message formula exponent = 1 + 2/3.
        let expected = 4.0 * (100f64).powf(1.0 + 2.0 / 3.0);
        assert!((scheme.message_formula(100, 4) - expected).abs() < 1e-6);
    }

    #[test]
    fn scheme_run_solves_t_local_broadcast() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(120, 5), 0.25).unwrap();
        let scheme = practical(1);
        let t = 2;
        let report = scheme.run(&graph, t, 3).unwrap();
        assert!(report.spanner_edges > 0);
        assert!(report.total_cost.messages >= report.spanner_cost.messages);
        assert_eq!(
            report.total_cost.rounds,
            report.spanner_cost.rounds + report.broadcast_cost.rounds
        );
        // The flooding runs for stretch·t rounds.
        assert_eq!(
            report.broadcast_cost.rounds,
            u64::from(scheme.stretch() * t)
        );
    }

    #[test]
    fn denser_graphs_do_not_inflate_scheme_messages_proportionally() {
        // The whole point of the scheme: its message count is governed by the
        // spanner, not by |E|.
        let sparse = connected_erdos_renyi(&GeneratorConfig::new(150, 7), 0.05).unwrap();
        let dense = connected_erdos_renyi(&GeneratorConfig::new(150, 7), 0.6).unwrap();
        let scheme = practical(1);
        let sparse_report = scheme.run(&sparse, 2, 9).unwrap();
        let dense_report = scheme.run(&dense, 2, 9).unwrap();
        let edge_ratio = dense.edge_count() as f64 / sparse.edge_count() as f64;
        let message_ratio =
            dense_report.total_cost.messages as f64 / sparse_report.total_cost.messages as f64;
        assert!(
            message_ratio < edge_ratio,
            "messages grew by {message_ratio:.2}× while edges grew by {edge_ratio:.2}×"
        );
    }
}
