//! The two-stage message-reduction scheme (Lemma 12, second bullet /
//! Theorem 3, second bullet).
//!
//! Stage 1 builds a `Sampler` spanner `H` with parameter `γ`. Stage 2 uses
//! `H` to *simulate* a second, off-the-shelf spanner construction (the paper
//! uses Derbel et al.'s `(3, O(3^κ))`-spanner): the second algorithm's `r`
//! rounds are realised by an `r`-local broadcast on `H`, so its messages are
//! governed by `|H|` instead of `|E|`. Stage 3 floods on the second spanner
//! `H'` within radius `3t + β`, solving the `t`-local broadcast in `O(t)`
//! rounds with `Õ(t²·n^{1+O(1/log t)})` messages.

use super::tlocal::{flood_on_subgraph, t_local_broadcast};
use crate::error::{CoreError, CoreResult};
use crate::params::ConstantPolicy;
use crate::reduction::scheme::SamplerScheme;
use crate::sampler::Sampler;
use crate::spanner_api::{SpannerAlgorithm, SpannerResult};
use freelunch_graph::MultiGraph;
use freelunch_runtime::CostReport;
use serde::{Deserialize, Serialize};

/// The two-stage scheme, generic over the second-stage spanner construction.
#[derive(Debug, Clone)]
pub struct TwoStageScheme<S> {
    /// The `γ` parameter of the stage-1 `Sampler` spanner.
    pub gamma: u32,
    /// Constants used by the stage-1 `Sampler`.
    pub constants: ConstantPolicy,
    /// The second-stage spanner construction simulated on top of the stage-1
    /// spanner.
    pub second_stage: S,
}

impl<S: SpannerAlgorithm> TwoStageScheme<S> {
    /// Creates a two-stage scheme.
    ///
    /// # Errors
    ///
    /// Returns an error if `gamma` is zero or larger than 10.
    pub fn new(gamma: u32, constants: ConstantPolicy, second_stage: S) -> CoreResult<Self> {
        if gamma == 0 || gamma > 10 {
            return Err(CoreError::invalid_parameter(format!(
                "gamma must be in 1..=10, got {gamma}"
            )));
        }
        Ok(TwoStageScheme {
            gamma,
            constants,
            second_stage,
        })
    }

    /// The `γ` value the paper recommends for locality parameter `t`:
    /// `γ = ⌈log₃ log₃ t⌉` (at least 1).
    pub fn recommended_gamma(t: u32) -> u32 {
        let t = f64::from(t.max(3));
        let gamma = t.log(3.0).log(3.0).ceil();
        (gamma.max(1.0)) as u32
    }

    /// Runs the scheme for locality parameter `t`.
    ///
    /// # Errors
    ///
    /// Propagates errors from the stage-1 construction, the second-stage
    /// construction and the flooding stages.
    pub fn run(&self, graph: &MultiGraph, t: u32, seed: u64) -> CoreResult<TwoStageReport> {
        // Stage 1: Sampler spanner with k = γ, h = 2^{γ+1} − 1.
        let stage1_scheme = SamplerScheme::with_constants(self.gamma, self.constants)?;
        let stage1_params = stage1_scheme.sampler_params()?;
        let stage1 = Sampler::new(stage1_params).run(graph, seed)?;
        let stage1_stretch = stage1_params.stretch_bound();

        // Stage 2: run the second-stage construction to obtain its spanner
        // and its round complexity r, then charge the cost of simulating its
        // r rounds by an r-local broadcast on the stage-1 spanner.
        let second = self.second_stage.construct(graph, seed.wrapping_add(1))?;
        let r = u32::try_from(second.cost.rounds.max(1)).unwrap_or(u32::MAX);
        let stage2_sim = t_local_broadcast(
            graph,
            stage1.spanner_edges().iter().copied(),
            r,
            stage1_stretch,
        )?;

        // Stage 3: t-local broadcast by flooding on the second spanner within
        // radius α·t + β.
        let radius = second.flooding_radius(t);
        let stage3 = flood_on_subgraph(graph, second.edges.iter().copied(), radius)?;

        let total_cost = stage1.cost + stage2_sim.cost + stage3.cost;
        let stage3_ledger = stage3.ledger;
        Ok(TwoStageReport {
            gamma: self.gamma,
            t,
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            stage1_spanner_edges: stage1.spanner_size(),
            stage2_spanner_edges: second.size(),
            stage2_algorithm: second.algorithm.clone(),
            stage2_rounds_simulated: r,
            stage1_cost: stage1.cost,
            stage2_cost: stage2_sim.cost,
            stage3_cost: stage3.cost,
            total_cost,
            stage3_radius: radius,
            stage3_ledger,
            second_stage: second,
        })
    }
}

/// Cost breakdown of a two-stage scheme run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwoStageReport {
    /// The `γ` parameter used by stage 1.
    pub gamma: u32,
    /// Locality parameter of the simulated algorithm.
    pub t: u32,
    /// Number of nodes of the input graph.
    pub nodes: usize,
    /// Number of edges of the input graph.
    pub edges: usize,
    /// Size of the stage-1 (`Sampler`) spanner.
    pub stage1_spanner_edges: usize,
    /// Size of the stage-2 spanner.
    pub stage2_spanner_edges: usize,
    /// Name of the second-stage algorithm.
    pub stage2_algorithm: String,
    /// Round complexity of the second-stage algorithm (the number of rounds
    /// stage 2 had to simulate).
    pub stage2_rounds_simulated: u32,
    /// Cost of constructing the stage-1 spanner.
    pub stage1_cost: CostReport,
    /// Cost of simulating the second-stage construction on the stage-1
    /// spanner.
    pub stage2_cost: CostReport,
    /// Cost of the final flooding on the stage-2 spanner.
    pub stage3_cost: CostReport,
    /// Total cost of the scheme.
    pub total_cost: CostReport,
    /// Radius of the final flooding (`α·t + β` of the stage-2 spanner).
    pub stage3_radius: u32,
    /// Per-edge / per-round ledger of the final flooding stage (the stage
    /// whose congestion the scheme's `O(t)`-round claim hinges on).
    pub stage3_ledger: freelunch_runtime::MessageLedger,
    /// The full second-stage result (edge set included) for downstream reuse.
    pub second_stage: SpannerResult,
}

impl TwoStageReport {
    /// Phase-attributed ledger of this run, measured against `direct` (a
    /// measured direct execution, or a naive bound as a [`CostReport`]).
    /// Stage 1 is charged as spanner construction, stage 2 as second-stage
    /// simulation, stage 3 as broadcast.
    pub fn ledger(&self, direct: CostReport) -> crate::ledger::Ledger {
        crate::ledger::Ledger::from_two_stage(self, direct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{connected_erdos_renyi, GeneratorConfig};
    use freelunch_graph::EdgeId;

    /// A toy second stage: keeps every edge (a 1-spanner) and pretends it ran
    /// in 2 rounds. Enough to exercise the pipeline deterministically.
    #[derive(Debug)]
    struct KeepAll;

    impl SpannerAlgorithm for KeepAll {
        fn name(&self) -> String {
            "keep-all".into()
        }
        fn construct(&self, graph: &MultiGraph, _seed: u64) -> CoreResult<SpannerResult> {
            Ok(SpannerResult {
                algorithm: self.name(),
                edges: graph.edge_ids().collect::<Vec<EdgeId>>(),
                multiplicative_stretch: 1,
                additive_stretch: 0,
                cost: CostReport::new(2, 2 * graph.edge_count() as u64),
            })
        }
    }

    fn scheme() -> TwoStageScheme<KeepAll> {
        TwoStageScheme::new(
            1,
            ConstantPolicy::Practical {
                target_factor: 4.0,
                query_factor: 8.0,
            },
            KeepAll,
        )
        .unwrap()
    }

    #[test]
    fn recommended_gamma_grows_very_slowly() {
        assert_eq!(TwoStageScheme::<KeepAll>::recommended_gamma(3), 1);
        assert_eq!(TwoStageScheme::<KeepAll>::recommended_gamma(27), 1);
        assert!(TwoStageScheme::<KeepAll>::recommended_gamma(100_000) <= 3);
    }

    #[test]
    fn invalid_gamma_rejected() {
        assert!(TwoStageScheme::new(0, ConstantPolicy::default(), KeepAll).is_err());
        assert!(TwoStageScheme::new(11, ConstantPolicy::default(), KeepAll).is_err());
    }

    #[test]
    fn pipeline_costs_compose() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(100, 4), 0.2).unwrap();
        let t = 3;
        let report = scheme().run(&graph, t, 7).unwrap();
        assert_eq!(
            report.total_cost,
            report.stage1_cost + report.stage2_cost + report.stage3_cost
        );
        assert_eq!(report.stage2_algorithm, "keep-all");
        assert_eq!(report.stage2_rounds_simulated, 2);
        // Final flooding radius for a (1, 0) second spanner is exactly t.
        assert_eq!(report.stage3_radius, t);
        assert!(report.stage1_spanner_edges > 0);
        assert_eq!(report.stage2_spanner_edges, graph.edge_count());
    }

    #[test]
    fn stage3_rounds_are_linear_in_t() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(80, 2), 0.3).unwrap();
        let small = scheme().run(&graph, 2, 5).unwrap();
        let large = scheme().run(&graph, 4, 5).unwrap();
        assert_eq!(small.stage3_cost.rounds, 2);
        assert_eq!(large.stage3_cost.rounds, 4);
        // Stage 1 and stage 2 costs do not depend on t at all.
        assert_eq!(small.stage1_cost, large.stage1_cost);
        assert_eq!(small.stage2_cost, large.stage2_cost);
    }
}
