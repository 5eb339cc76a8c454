//! A common interface for distributed spanner constructions.
//!
//! The message-reduction schemes of Section 6 compose spanner algorithms: the
//! two-stage scheme first builds a `Sampler` spanner and then uses it to
//! simulate *some other* spanner construction with a better stretch/size
//! trade-off. [`SpannerAlgorithm`] is the trait both `Sampler` and the
//! baseline constructions implement so they can be plugged into the schemes
//! and compared by the experiment harness.

use crate::error::CoreResult;
use crate::planner::{GraphStats, SpannerProfile};
use crate::sampler::Sampler;
use freelunch_graph::{EdgeId, MultiGraph};
use freelunch_runtime::CostReport;
use serde::{Deserialize, Serialize};

/// The output of a distributed spanner construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpannerResult {
    /// Human-readable name of the algorithm that produced the spanner.
    pub algorithm: String,
    /// The spanner edge set (original edge IDs, deduplicated).
    pub edges: Vec<EdgeId>,
    /// Guaranteed multiplicative stretch `α` (an `(α, β)`-spanner has
    /// `dist_H(u, v) ≤ α·dist_G(u, v) + β`).
    pub multiplicative_stretch: u32,
    /// Guaranteed additive stretch `β` (0 for purely multiplicative
    /// spanners).
    pub additive_stretch: u32,
    /// Rounds and messages the construction spent.
    pub cost: CostReport,
}

impl SpannerResult {
    /// Number of spanner edges.
    pub fn size(&self) -> usize {
        self.edges.len()
    }

    /// The flooding radius needed to cover `B_{G,t}(v)` on this spanner:
    /// `α·t + β`.
    pub(crate) fn flooding_radius(&self, t: u32) -> u32 {
        self.multiplicative_stretch
            .saturating_mul(t)
            .saturating_add(self.additive_stretch)
    }
}

/// A distributed spanner-construction algorithm.
pub trait SpannerAlgorithm {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> String;

    /// Constructs a spanner of `graph`, reporting the edge set, the stretch
    /// guarantee, and the rounds/messages spent.
    ///
    /// # Errors
    ///
    /// Implementations return an error for invalid inputs (e.g. an empty
    /// graph).
    fn construct(&self, graph: &MultiGraph, seed: u64) -> CoreResult<SpannerResult>;

    /// Cost-model hook for the adaptive planner: a closed-form prediction
    /// of the spanner's size and construction cost from cheap
    /// [`GraphStats`], without running the construction. Algorithms with a
    /// calibrated model override this (see `docs/PLANNER.md` for the
    /// calibration provenance); the default `None` makes the planner fall
    /// back to its own generic second-stage model.
    fn predicted_profile(&self, _stats: &GraphStats) -> Option<SpannerProfile> {
        None
    }
}

impl SpannerAlgorithm for Sampler {
    fn name(&self) -> String {
        format!("sampler(k={}, h={})", self.params().k, self.params().h)
    }

    /// The paper's Theorem 2 size law with the planner's calibrated scale:
    /// `|S| ≈ min(m, scale · n^{1+1/h})`, construction ≈ the planner's
    /// capped-incidence query model.
    fn predicted_profile(&self, stats: &GraphStats) -> Option<SpannerProfile> {
        let model = crate::planner::CostModel::default();
        let h = f64::from(self.params().h.max(1));
        let edges = (stats.edges as f64)
            .min(model.spanner_scale * (stats.nodes as f64).powf(1.0 + 1.0 / h));
        let construction_messages = model.query_cost
            * stats.capped_incidence_bound(model.query_cap(stats.nodes, self.params().k));
        Some(SpannerProfile {
            edges,
            construction_messages,
        })
    }

    fn construct(&self, graph: &MultiGraph, seed: u64) -> CoreResult<SpannerResult> {
        let outcome = self.run(graph, seed)?;
        Ok(SpannerResult {
            algorithm: self.name(),
            multiplicative_stretch: self.params().stretch_bound(),
            additive_stretch: 0,
            cost: outcome.cost,
            edges: outcome.spanner,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ConstantPolicy, SamplerParams};
    use freelunch_graph::generators::{connected_erdos_renyi, GeneratorConfig};
    use freelunch_graph::spanner_check::verify_edge_stretch;

    #[test]
    fn flooding_radius_combines_both_stretches() {
        let result = SpannerResult {
            algorithm: "test".into(),
            edges: Vec::new(),
            multiplicative_stretch: 3,
            additive_stretch: 4,
            cost: CostReport::zero(),
        };
        assert_eq!(result.flooding_radius(5), 19);
        assert_eq!(result.size(), 0);
    }

    #[test]
    fn sampler_implements_the_trait() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(80, 2), 0.2).unwrap();
        let params = SamplerParams::with_constants(
            2,
            3,
            ConstantPolicy::Practical {
                target_factor: 4.0,
                query_factor: 8.0,
            },
        )
        .unwrap();
        let sampler = Sampler::new(params);
        let result = sampler.construct(&graph, 5).unwrap();
        assert!(result.algorithm.contains("sampler"));
        assert_eq!(result.multiplicative_stretch, params.stretch_bound());
        assert_eq!(result.additive_stretch, 0);
        assert!(result.size() > 0);
        let report = verify_edge_stretch(&graph, result.edges.iter().copied()).unwrap();
        assert!(report.satisfies(result.multiplicative_stretch));
        assert!(result.cost.messages > 0);
    }
}
