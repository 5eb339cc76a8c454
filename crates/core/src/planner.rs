//! Adaptive execution-path planning: choose direct flooding vs. spanner
//! simulation vs. the two-stage scheme *per run*, from cheap graph
//! statistics and closed-form cost models.
//!
//! The ledger data recorded in `BENCH_message_ledger.json` shows the
//! paper's free lunch is real on dense graphs (up to 2.8× on complete-384)
//! and honestly below 1 on sparse ones — so a production deployment must
//! *choose* its execution path. This module provides that choice:
//!
//! * [`GraphStats`] — a seeded, deterministic statistics sampler over the
//!   frozen CSR view: density, degree skew, a sampled clustering proxy, and
//!   capped incidence sums, all in `O(n + sample·deg)`;
//! * [`CostModel`] — closed-form per-path message predictions whose
//!   constants are calibrated against the recorded
//!   `BENCH_message_ledger.json` grid (the provenance of every constant is
//!   documented on its field, and the whole contract in `docs/PLANNER.md`);
//! * [`SchemePlanner`] — samples stats, predicts every path, picks the
//!   cheapest, and emits a [`Plan`];
//! * [`Plan::execute`] / [`Plan::execute_all`] — run the chosen path (or
//!   every path) and emit a [`PlanReport`] carrying both the predictions
//!   and the measured [`MessageLedger`], so every planned run self-audits
//!   via [`PlanReport::audit`] against the documented [`Tolerances`].
//!
//! Planning is a pure function of the (graph, configuration) pair: stats
//! are sampled from a seeded ChaCha stream in canonical node order, and the
//! models are closed-form arithmetic — so plans, decisions, and reports are
//! bit-identical across shard counts and transport backends by
//! construction. `tests/planner_matrix.rs` pins exactly that, along with
//! the prediction-accuracy tolerance band.

use crate::error::{CoreError, CoreResult};
use crate::ledger::{CostPhase, Ledger};
use crate::params::ConstantPolicy;
use crate::reduction::tlocal::flood_on_subgraph;
use crate::reduction::two_stage::TwoStageScheme;
use crate::reduction::SamplerScheme;
use crate::sampler::Sampler;
use crate::spanner_api::SpannerAlgorithm;
use freelunch_graph::{CsrGraph, MultiGraph, NodeId, OverlayGraph};
use freelunch_runtime::{CostReport, MessageLedger};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the [`GraphStats`] sampler.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsConfig {
    /// Seed of the ChaCha stream driving the clustering-proxy sampling.
    pub seed: u64,
    /// Number of seeded nodes examined for the clustering proxy.
    pub sample_nodes: usize,
    /// Neighbor pairs tested per sampled node.
    pub pairs_per_node: usize,
    /// Degree caps for which [`GraphStats`] records exact capped-incidence
    /// sums (`Σ_v min(deg(v), cap)`). Defaults to the caps the default
    /// [`CostModel`] queries.
    pub degree_caps: Vec<u32>,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            seed: 1009,
            sample_nodes: 64,
            pairs_per_node: 4,
            degree_caps: vec![CostModel::default().two_stage_query_cap],
        }
    }
}

/// Cheap, deterministic statistics of a frozen graph — the planner's whole
/// view of the input. Sampled in `O(n + sample·deg)` by
/// [`GraphStats::sample`]: one pass over the degree sequence plus a seeded
/// clustering probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges (with multiplicity).
    pub edges: usize,
    /// Average degree (incidences ÷ nodes).
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Edge density `m / (n·(n−1)/2)` (1.0 for a complete simple graph).
    pub density: f64,
    /// Degree skew: maximum ÷ average degree (≈1 for regular graphs, large
    /// for scale-free hubs).
    pub degree_skew: f64,
    /// Sampled clustering proxy: the fraction of probed neighbor pairs that
    /// are themselves adjacent (seeded, deterministic; 0.0 when no pair was
    /// probed).
    pub clustering_proxy: f64,
    /// Number of nodes actually probed for the clustering proxy.
    pub sampled_nodes: usize,
    /// Number of neighbor pairs actually examined.
    pub sampled_pairs: usize,
    /// Exact capped incidence sums `(cap, Σ_v min(deg(v), cap))` for each
    /// configured cap, ascending by cap.
    pub capped_incidence: Vec<(u32, u64)>,
}

impl GraphStats {
    /// Samples the statistics from a frozen CSR view.
    ///
    /// Deterministic: the degree pass runs in canonical node order and the
    /// clustering probe draws from a ChaCha stream seeded by
    /// `config.seed` — two calls with equal inputs return bit-identical
    /// stats regardless of shard count or backend.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph has no nodes.
    pub fn sample(csr: &CsrGraph, config: &StatsConfig) -> CoreResult<GraphStats> {
        let n = csr.node_count();
        if n == 0 {
            return Err(CoreError::invalid_parameter("the graph has no nodes"));
        }
        let m = csr.edge_count();

        let mut caps: Vec<u32> = config.degree_caps.clone();
        caps.sort_unstable();
        caps.dedup();
        let mut capped: Vec<(u32, u64)> = caps.into_iter().map(|c| (c, 0u64)).collect();
        let mut incidences = 0u64;
        let mut max_degree = 0usize;
        for v in 0..n {
            let d = csr.degree(NodeId::from_usize(v));
            incidences += d as u64;
            max_degree = max_degree.max(d);
            for (cap, sum) in &mut capped {
                *sum += d.min(*cap as usize) as u64;
            }
        }
        let avg_degree = incidences as f64 / n as f64;
        let density = if n > 1 {
            m as f64 / (n as f64 * (n as f64 - 1.0) / 2.0)
        } else {
            0.0
        };
        let degree_skew = if avg_degree > 0.0 {
            max_degree as f64 / avg_degree
        } else {
            0.0
        };

        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut sampled_nodes = 0usize;
        let mut sampled_pairs = 0usize;
        let mut closed = 0usize;
        for _ in 0..config.sample_nodes.min(n) {
            let v = NodeId::from_usize(rng.gen_range(0..n));
            let neighbors = csr.distinct_neighbors(v);
            if neighbors.len() < 2 {
                continue;
            }
            sampled_nodes += 1;
            for _ in 0..config.pairs_per_node {
                let a = rng.gen_range(0..neighbors.len());
                let b = rng.gen_range(0..neighbors.len());
                if a == b {
                    continue;
                }
                sampled_pairs += 1;
                if csr.has_edge_between(neighbors[a], neighbors[b]) {
                    closed += 1;
                }
            }
        }
        let clustering_proxy = if sampled_pairs > 0 {
            closed as f64 / sampled_pairs as f64
        } else {
            0.0
        };

        Ok(GraphStats {
            nodes: n,
            edges: m,
            avg_degree,
            max_degree,
            density,
            degree_skew,
            clustering_proxy,
            sampled_nodes,
            sampled_pairs,
            capped_incidence: capped,
        })
    }

    /// The capped incidence sum `Σ_v min(deg(v), cap)`: exact if `cap` was
    /// configured at sampling time, otherwise the upper bound
    /// `min(2m, n·cap)`.
    pub(crate) fn capped_incidence(&self, cap: u32) -> f64 {
        for &(c, sum) in &self.capped_incidence {
            if c == cap {
                return sum as f64;
            }
        }
        self.capped_incidence_bound(f64::from(cap))
    }

    /// The closed-form bound `min(2m, n·cap)` on the capped incidence sum,
    /// for real-valued (n-dependent) caps like [`CostModel::query_cap`].
    /// Exact on regular graphs and whenever the cap binds every degree (or
    /// none); an upper bound in between (heavy-tailed degree sequences).
    pub(crate) fn capped_incidence_bound(&self, cap: f64) -> f64 {
        (2.0 * self.edges as f64).min(self.nodes as f64 * cap)
    }

    fn log2_nodes(&self) -> f64 {
        (self.nodes as f64).log2().max(0.0)
    }
}

/// A closed-form prediction of a spanner construction, returned by the
/// [`SpannerAlgorithm::predicted_profile`]
/// cost-model hook so the planner can price a second-stage algorithm it
/// knows nothing about.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpannerProfile {
    /// Predicted number of spanner edges.
    pub edges: f64,
    /// Predicted construction message cost.
    pub construction_messages: f64,
}

/// Calibrated constants of the closed-form per-path cost models.
///
/// Every constant was fitted against the measured `BENCH_message_ledger.json`
/// grid (t = 2, γ = 2, `Practical { target_factor: 4.0, query_factor: 4.0 }`
/// constants, families erdos-renyi / scale-free / communities / dense-er /
/// complete at n = 256..2048); `docs/PLANNER.md` records the fit residuals.
/// The models extrapolate to other `γ` via the paper's exponents.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Messages per queried incidence of the γ-stage `Sampler` construction
    /// (`construction ≈ query_cost · Σ_v min(deg(v), cap(n))` — on sparse
    /// graphs every incidence is queried ≈`query_cost` times across levels,
    /// on dense graphs the per-level budget caps the work per node).
    pub query_cost: f64,
    /// Scale of the n-dependent per-node degree cap of the construction
    /// model, `cap(n) = query_cap_scale · n^{(2^{γ−1}+1)·δ}` with
    /// `δ = 1/(2^{γ+1}−1)` — the top-level trial-budget exponent of the
    /// `Practical` constants (`n^{3/7}` at γ = 2). Measured per-node
    /// construction cost on complete graphs tracks this law from n = 64 to
    /// n = 512 within ±25%.
    pub query_cap_scale: f64,
    /// Scale of the spanner-size law `|S| ≈ min(m, spanner_scale ·
    /// n^{1+1/h})` (paper Theorem 2 exponent, fitted scale).
    pub spanner_scale: f64,
    /// Active flooding rounds per `log2 n`: the flood quiesces once tokens
    /// stop being fresh, empirically after ≈`active_rounds_per_log · log2 n`
    /// rounds (0.50–0.57 across every measured family), capped by the
    /// flooding radius.
    pub active_rounds_per_log: f64,
    /// Messages per queried incidence of the two-stage scheme's stage-1
    /// construction (γ = 1 runs fewer levels than the single-stage γ = 2).
    pub two_stage_query_cost: f64,
    /// Degree cap of the stage-1 construction model.
    pub two_stage_query_cap: u32,
    /// Scale of the stage-1 spanner-size law `|S₁| ≈ min(m,
    /// stage1_spanner_scale · n^{1+1/3})` (γ = 1 ⇒ h = 3; the weak
    /// sparsification of a shallow hierarchy needs a large scale).
    pub stage1_spanner_scale: f64,
    /// Fallback scale for the second-stage spanner size, `|S₂| ≈ min(m,
    /// cluster_spanner_scale · n^{3/2})`, used when the second-stage
    /// algorithm provides no [`SpannerProfile`] hook.
    pub cluster_spanner_scale: f64,
    /// Rounds the second-stage construction is simulated for (enters the
    /// two-stage *round* prediction only, never the message decision).
    pub cluster_rounds: f64,
}

impl CostModel {
    /// The n-dependent per-node degree cap of the γ-stage construction
    /// model: `query_cap_scale · n^{(2^{γ−1}+1)·δ}` with
    /// `δ = 1/(2^{γ+1}−1)` (`n^{3/7}` at γ = 2, `n^{2/3}` at γ = 1).
    pub(crate) fn query_cap(&self, nodes: usize, gamma: u32) -> f64 {
        let delta = 1.0 / ((1u64 << (gamma + 1)) as f64 - 1.0);
        let exponent = ((1u64 << gamma.saturating_sub(1)) as f64 + 1.0) * delta;
        self.query_cap_scale * (nodes as f64).powf(exponent)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            query_cost: 5.6,
            query_cap_scale: 1.9,
            spanner_scale: 6.7,
            active_rounds_per_log: 0.56,
            two_stage_query_cost: 3.4,
            two_stage_query_cap: 22,
            stage1_spanner_scale: 17.0,
            cluster_spanner_scale: 1.27,
            cluster_rounds: 6.0,
        }
    }
}

/// The execution paths the planner chooses among.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PathChoice {
    /// Flood directly on `G` for `t` rounds (`2·t·m` messages — exact for
    /// `t ≤ 2` on connected graphs, an upper bound beyond).
    Direct,
    /// Single-stage scheme: γ-stage `Sampler` spanner + spanner flooding.
    SpannerSim,
    /// Two-stage scheme: stage-1 spanner, simulate a second-stage
    /// construction on it, flood on the second-stage spanner.
    TwoStage,
}

impl PathChoice {
    /// All paths, in canonical (tie-breaking) order.
    pub const ALL: [PathChoice; 3] = [
        PathChoice::Direct,
        PathChoice::SpannerSim,
        PathChoice::TwoStage,
    ];

    /// Stable snake_case label (used in recorded JSON tables).
    pub fn label(&self) -> &'static str {
        match self {
            PathChoice::Direct => "direct",
            PathChoice::SpannerSim => "spanner_sim",
            PathChoice::TwoStage => "two_stage",
        }
    }
}

/// One path's predicted cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathPrediction {
    /// The predicted path.
    pub path: PathChoice,
    /// Predicted message count.
    pub messages: f64,
    /// Predicted round count (coarse — never used for the decision).
    pub rounds: f64,
}

/// A multiplicative tolerance band on `predicted ÷ measured`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToleranceBand {
    /// Smallest acceptable `predicted ÷ measured` ratio.
    pub lower: f64,
    /// Largest acceptable `predicted ÷ measured` ratio.
    pub upper: f64,
}

impl ToleranceBand {
    /// Whether `ratio` lies within the band (inclusive).
    pub(crate) fn contains(&self, ratio: f64) -> bool {
        ratio >= self.lower && ratio <= self.upper
    }
}

/// The documented per-path tolerance contract: how far the closed-form
/// predictions may drift from measured ledgers before the self-audit fails.
/// The widths reflect the calibration residuals recorded in
/// `docs/PLANNER.md`; `tests/planner_matrix.rs` pins these exact values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tolerances {
    /// Band for [`PathChoice::Direct`] (the `2·t·m` law is exact for
    /// `t ≤ 2` on connected graphs; the width only covers `t > 2`
    /// quiescence).
    pub direct: ToleranceBand,
    /// Band for [`PathChoice::SpannerSim`].
    pub spanner_sim: ToleranceBand,
    /// Band for [`PathChoice::TwoStage`].
    pub two_stage: ToleranceBand,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            direct: ToleranceBand {
                lower: 0.95,
                upper: 1.05,
            },
            spanner_sim: ToleranceBand {
                lower: 0.70,
                upper: 1.40,
            },
            two_stage: ToleranceBand {
                lower: 0.65,
                upper: 1.45,
            },
        }
    }
}

impl Tolerances {
    /// The band for `path`.
    pub(crate) fn band(&self, path: PathChoice) -> ToleranceBand {
        match path {
            PathChoice::Direct => self.direct,
            PathChoice::SpannerSim => self.spanner_sim,
            PathChoice::TwoStage => self.two_stage,
        }
    }
}

/// The planner: samples [`GraphStats`], prices every path with the
/// [`CostModel`], and picks the predicted-cheapest one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemePlanner {
    /// Locality parameter of the broadcast being planned.
    pub t: u32,
    /// `γ` of the single-stage scheme candidate.
    pub gamma: u32,
    /// `γ` of the two-stage scheme's first stage.
    pub two_stage_gamma: u32,
    /// `Sampler` constants used by the priced (and executed) schemes. Must
    /// match the calibration constants for the model fit to apply.
    pub constants: ConstantPolicy,
    /// The calibrated cost model.
    pub model: CostModel,
    /// Configuration of the statistics sampler.
    pub stats_config: StatsConfig,
}

/// The `Sampler` constants the cost model was calibrated against
/// (`Practical { target_factor: 4.0, query_factor: 4.0 }` — the same
/// constants every recorded `BENCH_*.json` experiment runs with).
pub(crate) fn calibrated_constants() -> ConstantPolicy {
    ConstantPolicy::Practical {
        target_factor: 4.0,
        query_factor: 4.0,
    }
}

impl SchemePlanner {
    /// A planner for `t`-local broadcast with the calibrated defaults
    /// (γ = 2 single-stage candidate, γ = 1 two-stage first stage).
    ///
    /// # Errors
    ///
    /// Returns an error if `t` is zero.
    pub fn new(t: u32) -> CoreResult<Self> {
        if t == 0 {
            return Err(CoreError::invalid_parameter("t must be at least 1"));
        }
        Ok(SchemePlanner {
            t,
            gamma: 2,
            two_stage_gamma: 1,
            constants: calibrated_constants(),
            model: CostModel::default(),
            stats_config: StatsConfig::default(),
        })
    }

    /// Plans from an already-frozen CSR view.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty or a parameter is invalid.
    pub(crate) fn plan_csr(&self, csr: &CsrGraph) -> CoreResult<Plan> {
        let stats = GraphStats::sample(csr, &self.stats_config)?;
        self.plan_from_stats(stats)
    }

    /// Plans for the live view of a churned graph: re-samples the stats
    /// from the overlay's current topology (deterministically — the same
    /// overlay state always yields the same plan), so planner-driven runs
    /// under churn can re-decide at epoch boundaries without ever flipping
    /// a decision mid-run (a [`Plan`] is immutable once made).
    ///
    /// # Errors
    ///
    /// Returns an error if the overlay is empty or a parameter is invalid.
    pub fn plan_overlay(&self, overlay: &OverlayGraph) -> CoreResult<Plan> {
        self.plan_csr(&overlay.to_multigraph().freeze())
    }

    /// Plans from pre-sampled stats, pricing the two-stage path with an
    /// optional second-stage [`SpannerProfile`] hook (see
    /// [`SpannerAlgorithm::predicted_profile`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the scheme parameters are invalid.
    pub(crate) fn plan_from_stats_with_profile(
        &self,
        stats: GraphStats,
        second_stage: Option<SpannerProfile>,
    ) -> CoreResult<Plan> {
        // Validate γ parameters eagerly via the scheme constructors.
        SamplerScheme::with_constants(self.gamma, self.constants)?;
        SamplerScheme::with_constants(self.two_stage_gamma, self.constants)?;
        let predictions = vec![
            self.predict_direct(&stats),
            self.predict_spanner_sim(&stats),
            self.predict_two_stage(&stats, second_stage),
        ];
        let decision = predictions
            .iter()
            .min_by(|a, b| {
                a.messages
                    .partial_cmp(&b.messages)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.path.cmp(&b.path))
            })
            .expect("three predictions exist")
            .path;
        let mut sorted: Vec<f64> = predictions.iter().map(|p| p.messages).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let decision_margin = if sorted[0] > 0.0 {
            sorted[1] / sorted[0]
        } else {
            f64::INFINITY
        };
        Ok(Plan {
            t: self.t,
            gamma: self.gamma,
            two_stage_gamma: self.two_stage_gamma,
            constants: self.constants,
            stats,
            predictions,
            decision,
            decision_margin,
        })
    }

    /// Plans from pre-sampled stats with the fallback second-stage model.
    ///
    /// # Errors
    ///
    /// Returns an error if the scheme parameters are invalid.
    pub(crate) fn plan_from_stats(&self, stats: GraphStats) -> CoreResult<Plan> {
        self.plan_from_stats_with_profile(stats, None)
    }

    /// Plans for `graph`, pricing the two-stage path with the second-stage
    /// algorithm's own cost-model hook when it provides one.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty or a parameter is invalid.
    pub fn plan_with_second_stage<S: SpannerAlgorithm>(
        &self,
        graph: &MultiGraph,
        second_stage: &S,
    ) -> CoreResult<Plan> {
        let stats = GraphStats::sample(&graph.freeze(), &self.stats_config)?;
        let profile = second_stage.predicted_profile(&stats);
        self.plan_from_stats_with_profile(stats, profile)
    }

    /// Predicted cost of direct flooding: `2·t·m` messages in `t` rounds
    /// (exact for `t ≤ 2` on connected graphs: round 1 floods every token
    /// over every edge, and after it every node has learned something, so
    /// round 2 is fully active too).
    pub fn predict_direct(&self, stats: &GraphStats) -> PathPrediction {
        PathPrediction {
            path: PathChoice::Direct,
            messages: 2.0 * f64::from(self.t) * stats.edges as f64,
            rounds: f64::from(self.t),
        }
    }

    /// Predicted cost of the single-stage scheme: calibrated construction
    /// (`query_cost · Σ min(deg, cap(n))` with the n-dependent
    /// [`CostModel::query_cap`]) plus flooding (`2·|S|·active`), with `|S|`
    /// from the paper's size law and the active-round count from the
    /// quiescence law.
    pub(crate) fn predict_spanner_sim(&self, stats: &GraphStats) -> PathPrediction {
        let model = &self.model;
        let h = f64::from((1u32 << (self.gamma + 1)) - 1);
        let stretch = 2.0 * 3f64.powi(self.gamma as i32) - 1.0;
        let construction = model.query_cost
            * stats.capped_incidence_bound(model.query_cap(stats.nodes, self.gamma));
        let spanner_edges = (stats.edges as f64)
            .min(model.spanner_scale * (stats.nodes as f64).powf(1.0 + 1.0 / h));
        let active = (model.active_rounds_per_log * stats.log2_nodes())
            .min(stretch * f64::from(self.t))
            .max(0.0);
        let rounds =
            3f64.powi(self.gamma as i32) * f64::from(self.t) + 6f64.powi(self.gamma as i32);
        PathPrediction {
            path: PathChoice::SpannerSim,
            messages: construction + 2.0 * spanner_edges * active,
            rounds,
        }
    }

    /// Predicted cost of the two-stage scheme: stage-1 construction, the
    /// second-stage construction simulated by flooding on the stage-1
    /// spanner, and the final flood on the second-stage spanner (sized by
    /// the second stage's own [`SpannerProfile`] hook when available, the
    /// calibrated `n^{3/2}` fallback otherwise).
    pub(crate) fn predict_two_stage(
        &self,
        stats: &GraphStats,
        second_stage: Option<SpannerProfile>,
    ) -> PathPrediction {
        let model = &self.model;
        let m = stats.edges as f64;
        let n = stats.nodes as f64;
        let h1 = f64::from((1u32 << (self.two_stage_gamma + 1)) - 1);
        let stretch1 = 2.0 * 3f64.powi(self.two_stage_gamma as i32) - 1.0;
        let active = model.active_rounds_per_log * stats.log2_nodes();
        let stage1 = model.two_stage_query_cost * stats.capped_incidence(model.two_stage_query_cap);
        let s1 = m.min(model.stage1_spanner_scale * n.powf(1.0 + 1.0 / h1));
        let stage2 = 2.0 * s1 * active;
        let s2 = second_stage
            .map(|p| p.edges)
            .unwrap_or_else(|| m.min(model.cluster_spanner_scale * n.powf(1.5)));
        let stage3 = 2.0 * s2 * active;
        let rounds = 3f64.powi(self.two_stage_gamma as i32) * f64::from(self.t)
            + 6f64.powi(self.two_stage_gamma as i32)
            + stretch1 * model.cluster_rounds;
        PathPrediction {
            path: PathChoice::TwoStage,
            messages: stage1 + stage2 + stage3,
            rounds,
        }
    }
}

/// An immutable planning decision: the sampled stats, every path's
/// prediction, and the chosen path. Execute it with [`Plan::execute`] (the
/// chosen path only) or [`Plan::execute_all`] (every path, for differential
/// validation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Locality parameter of the planned broadcast.
    pub t: u32,
    /// `γ` of the single-stage candidate.
    pub gamma: u32,
    /// `γ` of the two-stage first stage.
    pub two_stage_gamma: u32,
    /// `Sampler` constants the executed schemes will run with.
    pub constants: ConstantPolicy,
    /// The sampled statistics the decision was made from.
    pub stats: GraphStats,
    /// Every path's prediction, in [`PathChoice::ALL`] order.
    pub predictions: Vec<PathPrediction>,
    /// The predicted-cheapest path.
    pub decision: PathChoice,
    /// Second-cheapest ÷ cheapest predicted messages (how decisive the
    /// choice was; `INFINITY` when the cheapest prediction is zero).
    pub decision_margin: f64,
}

impl Plan {
    /// The prediction for `path`.
    pub fn predicted(&self, path: PathChoice) -> Option<&PathPrediction> {
        self.predictions.iter().find(|p| p.path == path)
    }

    /// Executes only the chosen path (the production shape) and emits a
    /// self-auditing [`PlanReport`].
    ///
    /// # Errors
    ///
    /// Propagates construction, flooding, and simulation errors.
    pub fn execute<S>(
        &self,
        graph: &MultiGraph,
        seed: u64,
        second_stage: &S,
    ) -> CoreResult<PlanReport>
    where
        S: SpannerAlgorithm + Clone,
    {
        let measurement = self.measure(graph, seed, self.decision, second_stage)?;
        Ok(PlanReport {
            plan: self.clone(),
            seed,
            measured: vec![measurement],
            engine_direct: None,
        })
    }

    /// Executes *every* path and emits a [`PlanReport`] with all three
    /// measurements — the differential shape `exp_planner` and the
    /// prediction-accuracy tests validate against.
    ///
    /// # Errors
    ///
    /// Propagates construction, flooding, and simulation errors.
    pub fn execute_all<S>(
        &self,
        graph: &MultiGraph,
        seed: u64,
        second_stage: &S,
    ) -> CoreResult<PlanReport>
    where
        S: SpannerAlgorithm + Clone,
    {
        let mut measured = Vec::with_capacity(PathChoice::ALL.len());
        for path in PathChoice::ALL {
            measured.push(self.measure(graph, seed, path, second_stage)?);
        }
        Ok(PlanReport {
            plan: self.clone(),
            seed,
            measured,
            engine_direct: None,
        })
    }

    fn measure<S>(
        &self,
        graph: &MultiGraph,
        seed: u64,
        path: PathChoice,
        second_stage: &S,
    ) -> CoreResult<PathMeasurement>
    where
        S: SpannerAlgorithm + Clone,
    {
        match path {
            PathChoice::Direct => {
                let outcome = flood_on_subgraph(graph, graph.edge_ids(), self.t)?;
                let mut phases = Ledger::new();
                phases.charge(
                    CostPhase::DirectExecution,
                    format!("direct {}-round flood on G", self.t),
                    outcome.cost,
                );
                Ok(PathMeasurement {
                    path,
                    cost: outcome.cost,
                    spanner_edges: None,
                    ledger: outcome.ledger,
                    phases,
                })
            }
            PathChoice::SpannerSim => {
                let scheme = SamplerScheme::with_constants(self.gamma, self.constants)?;
                let sampler = Sampler::new(scheme.sampler_params()?);
                let spanner = sampler.run(graph, seed)?;
                let broadcast = crate::reduction::tlocal::t_local_broadcast(
                    graph,
                    spanner.spanner_edges().iter().copied(),
                    self.t,
                    scheme.stretch(),
                )?;
                let mut phases = Ledger::new();
                phases.charge(
                    CostPhase::SpannerConstruction,
                    "Sampler spanner construction",
                    spanner.cost,
                );
                phases.charge(
                    CostPhase::Broadcast,
                    format!("{}-local broadcast on the spanner", self.t),
                    broadcast.cost,
                );
                Ok(PathMeasurement {
                    path,
                    cost: spanner.cost + broadcast.cost,
                    spanner_edges: Some(spanner.spanner_size()),
                    ledger: broadcast.ledger,
                    phases,
                })
            }
            PathChoice::TwoStage => {
                let scheme = TwoStageScheme::new(
                    self.two_stage_gamma,
                    self.constants,
                    second_stage.clone(),
                )?;
                let report = scheme.run(graph, self.t, seed)?;
                let mut phases = Ledger::new();
                phases.charge(
                    CostPhase::SpannerConstruction,
                    "stage-1 Sampler construction",
                    report.stage1_cost,
                );
                phases.charge(
                    CostPhase::SecondStageSimulation,
                    format!("simulated {} construction", report.stage2_algorithm),
                    report.stage2_cost,
                );
                phases.charge(
                    CostPhase::Broadcast,
                    format!("{}-local broadcast on the second-stage spanner", self.t),
                    report.stage3_cost,
                );
                Ok(PathMeasurement {
                    path,
                    cost: report.total_cost,
                    spanner_edges: Some(report.stage2_spanner_edges),
                    ledger: report.stage3_ledger,
                    phases,
                })
            }
        }
    }
}

/// One path's measured cost: the summary [`CostReport`], the per-edge /
/// per-round [`MessageLedger`] of its flooding stage, and the
/// phase-attributed [`Ledger`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathMeasurement {
    /// The measured path.
    pub path: PathChoice,
    /// End-to-end cost (all phases).
    pub cost: CostReport,
    /// Spanner size, for the paths that build one.
    pub spanner_edges: Option<usize>,
    /// The per-edge / per-round ledger of the path's flooding stage (the
    /// stage the congestion column belongs to; construction phases meter
    /// through [`CostReport`]s, charged in `phases`).
    pub ledger: MessageLedger,
    /// Phase-attributed cost breakdown.
    pub phases: Ledger,
}

/// The planner's emitted report: the immutable [`Plan`] plus the measured
/// ledgers of the executed path(s) — every planned run carries the data to
/// audit its own predictions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanReport {
    /// The plan that was executed.
    pub plan: Plan,
    /// Seed the executed constructions ran with.
    pub seed: u64,
    /// Measured costs: the chosen path ([`Plan::execute`]) or every path
    /// ([`Plan::execute_all`]).
    pub measured: Vec<PathMeasurement>,
    /// An engine-measured direct-execution ledger, attached by harnesses
    /// that additionally run the reference algorithm on the synchronous
    /// runtime (present so cross-backend bit-identity of planned runs is a
    /// checkable property of the serialized report).
    pub engine_direct: Option<MessageLedger>,
}

impl PlanReport {
    /// The measurement for `path`, if it was executed.
    pub fn measured(&self, path: PathChoice) -> Option<&PathMeasurement> {
        self.measured.iter().find(|m| m.path == path)
    }

    /// The chosen path's measurement.
    pub(crate) fn chosen(&self) -> Option<&PathMeasurement> {
        self.measured(self.plan.decision)
    }

    /// The measured-cheapest executed path (ties break in
    /// [`PathChoice::ALL`] order).
    pub fn best_measured(&self) -> Option<&PathMeasurement> {
        self.measured.iter().min_by(|a, b| {
            a.cost
                .messages
                .cmp(&b.cost.messages)
                .then(a.path.cmp(&b.path))
        })
    }

    /// Measured regret of the decision: chosen messages ÷ best measured
    /// messages (1.0 when the planner picked the measured-cheapest path).
    /// `None` unless every path was measured.
    pub fn regret(&self) -> Option<f64> {
        if self.measured.len() < PathChoice::ALL.len() {
            return None;
        }
        let chosen = self.chosen()?;
        let best = self.best_measured()?;
        if best.cost.messages == 0 {
            return Some(1.0);
        }
        Some(chosen.cost.messages as f64 / best.cost.messages as f64)
    }

    /// Attaches an engine-measured direct-execution ledger (see
    /// [`PlanReport::engine_direct`]).
    pub fn attach_engine_direct(&mut self, ledger: MessageLedger) {
        self.engine_direct = Some(ledger);
    }

    /// Self-audit against the default [`Tolerances`].
    pub fn audit(&self) -> AuditReport {
        self.audit_with(&Tolerances::default())
    }

    /// Self-audit against explicit tolerances: one entry per executed path
    /// comparing predicted vs. measured messages.
    pub fn audit_with(&self, tolerances: &Tolerances) -> AuditReport {
        let entries = self
            .measured
            .iter()
            .filter_map(|m| {
                let predicted = self.plan.predicted(m.path)?.messages;
                let measured = m.cost.messages as f64;
                let ratio = if measured > 0.0 {
                    predicted / measured
                } else if predicted == 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                };
                let band = tolerances.band(m.path);
                Some(AuditEntry {
                    path: m.path,
                    predicted_messages: predicted,
                    measured_messages: m.cost.messages,
                    ratio,
                    band,
                    within_band: band.contains(ratio),
                })
            })
            .collect();
        AuditReport {
            entries,
            regret: self.regret(),
        }
    }
}

/// One path's audit line: predicted vs. measured, and whether the ratio
/// stayed inside the documented band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// The audited path.
    pub path: PathChoice,
    /// Predicted message count.
    pub predicted_messages: f64,
    /// Measured message count.
    pub measured_messages: u64,
    /// `predicted ÷ measured`.
    pub ratio: f64,
    /// The tolerance band applied.
    pub band: ToleranceBand,
    /// Whether the ratio lies inside the band.
    pub within_band: bool,
}

/// The result of a [`PlanReport`] self-audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// One line per executed path.
    pub entries: Vec<AuditEntry>,
    /// Measured regret of the decision (see [`PlanReport::regret`]).
    pub regret: Option<f64>,
}

impl AuditReport {}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{
        complete_graph, connected_erdos_renyi, cycle_graph, GeneratorConfig,
    };

    #[test]
    fn stats_sampling_is_deterministic_and_exact_on_degrees() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(120, 5), 0.1).unwrap();
        let csr = graph.freeze();
        let config = StatsConfig::default();
        let a = GraphStats::sample(&csr, &config).unwrap();
        let b = GraphStats::sample(&csr, &config).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.nodes, 120);
        assert_eq!(a.edges, graph.edge_count());
        assert!((a.avg_degree - 2.0 * graph.edge_count() as f64 / 120.0).abs() < 1e-9);
        assert_eq!(a.max_degree, graph.max_degree());
        // An uncapped-by-construction cap records the full incidence count.
        let big_cap = a.max_degree as u32 + 1;
        assert_eq!(
            GraphStats::sample(
                &csr,
                &StatsConfig {
                    degree_caps: vec![big_cap],
                    ..config
                }
            )
            .unwrap()
            .capped_incidence(big_cap),
            2.0 * graph.edge_count() as f64
        );
    }

    #[test]
    fn stats_distinguish_dense_from_sparse() {
        let dense = complete_graph(&GeneratorConfig::new(64, 0)).unwrap();
        let sparse = cycle_graph(&GeneratorConfig::new(64, 0)).unwrap();
        let config = StatsConfig::default();
        let d = GraphStats::sample(&dense.freeze(), &config).unwrap();
        let s = GraphStats::sample(&sparse.freeze(), &config).unwrap();
        assert!((d.density - 1.0).abs() < 1e-9);
        assert!(s.density < 0.05);
        // Every neighbor pair closes on a complete graph; none on a cycle.
        assert!((d.clustering_proxy - 1.0).abs() < 1e-9);
        assert_eq!(s.clustering_proxy, 0.0);
        assert!((s.degree_skew - 1.0).abs() < 1e-9);
    }

    #[test]
    fn capped_incidence_falls_back_to_the_bound() {
        let graph = complete_graph(&GeneratorConfig::new(32, 0)).unwrap();
        let stats = GraphStats::sample(&graph.freeze(), &StatsConfig::default()).unwrap();
        // 13 is not a configured cap: the fallback min(2m, n·cap) applies,
        // which on a complete graph is n·cap.
        assert_eq!(stats.capped_incidence(13), 32.0 * 13.0);
    }

    #[test]
    fn planner_prefers_direct_on_sparse_and_spanner_on_dense() {
        let planner = SchemePlanner::new(2).unwrap();
        let sparse = connected_erdos_renyi(&GeneratorConfig::new(256, 7), 0.03).unwrap();
        let plan = planner.plan_csr(&sparse.freeze()).unwrap();
        assert_eq!(plan.decision, PathChoice::Direct);
        let dense = complete_graph(&GeneratorConfig::new(256, 0)).unwrap();
        let plan = planner.plan_csr(&dense.freeze()).unwrap();
        assert_eq!(plan.decision, PathChoice::SpannerSim);
        assert!(plan.decision_margin > 1.0);
    }

    #[test]
    fn direct_prediction_is_exact_for_small_t() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(80, 3), 0.1).unwrap();
        let planner = SchemePlanner::new(2).unwrap();
        let plan = planner.plan_csr(&graph.freeze()).unwrap();
        let outcome = flood_on_subgraph(&graph, graph.edge_ids(), 2).unwrap();
        let predicted = plan.predicted(PathChoice::Direct).unwrap().messages;
        assert_eq!(predicted, outcome.cost.messages as f64);
    }

    #[test]
    fn plans_are_bit_identical_across_replans() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(100, 11), 0.08).unwrap();
        let planner = SchemePlanner::new(2).unwrap();
        let a = planner.plan_csr(&graph.freeze()).unwrap();
        let b = planner.plan_csr(&graph.freeze()).unwrap();
        assert_eq!(a, b);
        // The rendered report (every float bit included) is also identical.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn execute_runs_only_the_chosen_path_and_execute_all_every_path() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(60, 2), 0.1).unwrap();
        let planner = SchemePlanner::new(2).unwrap();
        let plan = planner.plan_csr(&graph.freeze()).unwrap();
        let second = Sampler::new(plan_second_stage_params());
        let chosen_only = plan.execute(&graph, 42, &second).unwrap();
        assert_eq!(chosen_only.measured.len(), 1);
        assert_eq!(chosen_only.measured[0].path, plan.decision);
        assert!(chosen_only.regret().is_none());
        let all = plan.execute_all(&graph, 42, &second).unwrap();
        assert_eq!(all.measured.len(), 3);
        assert!(all.regret().is_some());
        // The chosen path's measurement is identical in both shapes.
        assert_eq!(chosen_only.chosen(), all.measured(plan.decision));
    }

    fn plan_second_stage_params() -> crate::params::SamplerParams {
        crate::params::SamplerParams::with_constants(1, 3, calibrated_constants()).unwrap()
    }

    #[test]
    fn audit_flags_out_of_band_predictions() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(60, 2), 0.1).unwrap();
        let planner = SchemePlanner::new(2).unwrap();
        let plan = planner.plan_csr(&graph.freeze()).unwrap();
        let report = plan
            .execute(&graph, 7, &Sampler::new(plan_second_stage_params()))
            .unwrap();
        // Direct on a connected graph at t = 2 is exact: ratio 1.0.
        let audit = report.audit();
        assert!(audit.entries.iter().all(|e| e.within_band));
        // An impossibly tight band must fail.
        let zero_band = ToleranceBand {
            lower: 0.0,
            upper: 0.0,
        };
        let strict = Tolerances {
            direct: zero_band,
            spanner_sim: zero_band,
            two_stage: zero_band,
        };
        assert!(!report
            .audit_with(&strict)
            .entries
            .iter()
            .all(|e| e.within_band));
    }

    #[test]
    fn parameter_validation() {
        assert!(SchemePlanner::new(0).is_err());
        let mut planner = SchemePlanner::new(1).unwrap();
        planner.gamma = 0;
        let stats = GraphStats::sample(
            &cycle_graph(&GeneratorConfig::new(8, 0)).unwrap().freeze(),
            &StatsConfig::default(),
        )
        .unwrap();
        assert!(planner.plan_from_stats(stats).is_err());
        assert!(GraphStats::sample(&MultiGraph::new(0).freeze(), &StatsConfig::default()).is_err());
    }

    #[test]
    fn tolerance_band_arithmetic() {
        let band = ToleranceBand {
            lower: 0.5,
            upper: 2.0,
        };
        assert!(band.contains(1.0));
        assert!(band.contains(0.5));
        assert!(band.contains(2.0));
        assert!(!band.contains(0.49));
        assert!(!band.contains(2.01));
    }
}
