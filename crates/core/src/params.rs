//! Parameters of the `Sampler` algorithm (Theorem 2).
//!
//! The algorithm is governed by two integer parameters:
//!
//! * `k` — the number of clustering levels (`1 ≤ k ≤ log log n`); the
//!   stretch of the constructed spanner is `2·3^k − 1` and its size is
//!   `Õ(n^{1+δ})` with `δ = 1/(2^{k+1} − 1)`;
//! * `h` — the trial budget (`0 ≤ h ≤ log n` in the paper; we require
//!   `h ≥ 1`); each level runs at most `2h` edge-sampling trials and the
//!   message complexity picks up a factor `n^{1/h}`.
//!
//! On top of `k` and `h`, the algorithm uses a success constant `c` inside
//! the `c·n^{2^j δ}·log n` neighbor-finding targets and the
//! `c²·n^{2^j δ+ε}·log³ n` per-trial query budgets. The paper only needs
//! `c` to be "sufficiently large" for the `whp` claims; at the graph sizes a
//! simulation can touch, the literal `log³ n` factors exceed every node
//! degree and make the algorithm degenerate (every node queries *all* of its
//! edges, producing the trivial spanner). [`ConstantPolicy`] therefore lets
//! an experiment either keep the paper-faithful formulas
//! ([`ConstantPolicy::Paper`]) or replace the poly-log factors by explicit
//! constants ([`ConstantPolicy::Practical`]) so the asymptotic *shape* of
//! Theorem 2 is observable at laptop scale. EXPERIMENTS.md records which
//! policy each experiment uses.

use crate::error::{CoreError, CoreResult};
use serde::{Deserialize, Serialize};

/// How the `whp` constants of the algorithm are instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConstantPolicy {
    /// Paper-faithful formulas: neighbor target `c·n^{2^j δ}·log₂ n`, trial
    /// budget `c²·n^{2^j δ+ε}·(log₂ n)³`.
    Paper {
        /// The paper's success constant `c`.
        c: f64,
    },
    /// Practical formulas with the poly-log factors replaced by explicit
    /// multipliers: neighbor target `target_factor·n^{2^j δ}`, trial budget
    /// `query_factor·n^{2^j δ+ε}`.
    Practical {
        /// Multiplier of the neighbor-finding target.
        target_factor: f64,
        /// Multiplier of the per-trial query budget.
        query_factor: f64,
    },
}

impl Default for ConstantPolicy {
    fn default() -> Self {
        ConstantPolicy::Paper { c: 1.0 }
    }
}

impl ConstantPolicy {
    fn validate(&self) -> CoreResult<()> {
        let positive = |name: &str, value: f64| {
            if value > 0.0 && value.is_finite() {
                Ok(())
            } else {
                Err(CoreError::invalid_parameter(format!(
                    "{name} must be positive, got {value}"
                )))
            }
        };
        match self {
            ConstantPolicy::Paper { c } => positive("c", *c),
            ConstantPolicy::Practical {
                target_factor,
                query_factor,
            } => {
                positive("target_factor", *target_factor)?;
                positive("query_factor", *query_factor)
            }
        }
    }
}

/// What the algorithm does with a node that finishes its `2h` trials neither
/// *light* (all neighbors queried) nor *heavy* (target reached).
///
/// The paper proves (Lemma 6) that this happens with probability at most
/// `n^{-Θ(c)}`, and with the [`ConstantPolicy::Paper`] constants it
/// essentially never does. Under aggressive [`ConstantPolicy::Practical`]
/// constants it can, and the choice here decides whether the stretch
/// guarantee is preserved unconditionally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FallbackPolicy {
    /// Query every remaining unexplored edge of the node, making it light.
    /// Preserves the stretch bound of Theorem 9 unconditionally; the extra
    /// queries are charged to the message count. This is the default.
    #[default]
    QueryRemaining,
    /// Leave the node ambiguous (it behaves like an unclustered node whose
    /// spanner edges may be missing). Matches the paper's pseudocode
    /// verbatim; stretch violations are then possible exactly with the
    /// probability Lemma 6 bounds.
    None,
}

/// Parameter set of one `Sampler` run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplerParams {
    /// Number of clustering levels (`k ≥ 1`).
    pub k: u32,
    /// Trial budget parameter (`h ≥ 1`); each level runs at most `2h`
    /// sampling trials.
    pub h: u32,
    /// Instantiation of the `whp` constants.
    pub constants: ConstantPolicy,
    /// Behaviour for nodes that end up neither light nor heavy.
    pub fallback: FallbackPolicy,
}

impl SamplerParams {
    /// Creates a parameter set with the default (paper-faithful) constants.
    ///
    /// # Errors
    ///
    /// Returns an error if `k` or `h` is zero or `k > 20` (beyond `k = 20`
    /// the stretch bound `2·3^k − 1` overflows any realistic use).
    pub fn new(k: u32, h: u32) -> CoreResult<Self> {
        SamplerParams {
            k,
            h,
            constants: ConstantPolicy::default(),
            fallback: FallbackPolicy::default(),
        }
        .validated()
    }

    /// Creates a parameter set with explicit constants.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SamplerParams::new`] plus positivity of the
    /// constants.
    pub fn with_constants(k: u32, h: u32, constants: ConstantPolicy) -> CoreResult<Self> {
        SamplerParams {
            k,
            h,
            constants,
            fallback: FallbackPolicy::default(),
        }
        .validated()
    }

    /// Returns a copy using the given fallback policy.
    pub fn fallback(mut self, fallback: FallbackPolicy) -> Self {
        self.fallback = fallback;
        self
    }

    /// The parameterization used by the message-reduction corollary of the
    /// paper: `1/(2^{k+1}−1) = 1/h = ε/2`, i.e. the spanner has
    /// `Õ(n^{1+ε/2})` edges and the construction sends `Õ(n^{1+ε})`
    /// messages.
    ///
    /// # Errors
    ///
    /// Returns an error if `epsilon` is not in `(0, 2]`.
    pub fn from_epsilon(epsilon: f64) -> CoreResult<Self> {
        if !(epsilon > 0.0 && epsilon <= 2.0 && epsilon.is_finite()) {
            return Err(CoreError::invalid_parameter(format!(
                "epsilon must be in (0, 2], got {epsilon}"
            )));
        }
        // 1/(2^{k+1} - 1) <= eps/2  ⇔  2^{k+1} >= 2/eps + 1.
        let needed = 2.0 / epsilon + 1.0;
        let k = (needed.log2().ceil() as u32).max(2) - 1;
        let h = (2.0 / epsilon).ceil() as u32;
        SamplerParams::new(k.max(1), h.max(1))
    }

    fn validated(self) -> CoreResult<Self> {
        if self.k == 0 {
            return Err(CoreError::invalid_parameter("k must be at least 1"));
        }
        if self.k > 20 {
            return Err(CoreError::invalid_parameter("k must be at most 20"));
        }
        if self.h == 0 {
            return Err(CoreError::invalid_parameter("h must be at least 1"));
        }
        self.constants.validate()?;
        Ok(self)
    }

    /// `δ = 1/(2^{k+1} − 1)`: the size exponent excess of Theorem 2.
    pub fn delta(&self) -> f64 {
        1.0 / ((1u64 << (self.k + 1)) as f64 - 1.0)
    }

    /// `ε = 1/h`: the message exponent excess contributed by the trial
    /// budget.
    pub(crate) fn epsilon(&self) -> f64 {
        1.0 / f64::from(self.h)
    }

    /// The stretch bound `2·3^k − 1` proved in Theorem 9.
    pub fn stretch_bound(&self) -> u32 {
        2 * 3u32.pow(self.k) - 1
    }

    /// Number of sampling trials per level (`2h`).
    pub(crate) fn trials_per_level(&self) -> u32 {
        2 * self.h
    }

    /// The paper's bound on the number of spanner edges as a function of
    /// `n`: `n^{1+δ}` (poly-log factors omitted, as in the `Õ`).
    pub fn size_bound(&self, n: usize) -> f64 {
        (n as f64).powf(1.0 + self.delta())
    }

    /// The paper's bound on the number of messages: `n^{1+δ+ε}` (poly-log
    /// factors omitted).
    pub fn message_bound(&self, n: usize) -> f64 {
        (n as f64).powf(1.0 + self.delta() + self.epsilon())
    }

    /// The paper's bound on the round complexity: `O(3^k · h)`.
    pub fn round_bound(&self) -> u64 {
        u64::from(3u32.pow(self.k)) * u64::from(self.h)
    }

    /// Center-marking probability at level `j`: `p_j = n^{-2^j δ}`.
    pub(crate) fn center_probability(&self, level: u32, n: usize) -> f64 {
        (n as f64)
            .powf(-(f64::from(1u32 << level)) * self.delta())
            .clamp(0.0, 1.0)
    }

    /// Neighbor-finding target at level `j` (the `min{…, |N_j(v)|}` is taken
    /// by the algorithm itself): paper formula `c·n^{2^j δ}·log₂ n`, or the
    /// practical substitute.
    pub(crate) fn neighbor_target(&self, level: u32, n: usize) -> usize {
        let base = (n as f64).powf(f64::from(1u32 << level) * self.delta());
        let value = match self.constants {
            ConstantPolicy::Paper { c } => c * base * log2_ceil(n),
            ConstantPolicy::Practical { target_factor, .. } => target_factor * base,
        };
        value.ceil().max(1.0) as usize
    }

    /// Per-trial query budget at level `j`: paper formula
    /// `c²·n^{2^j δ+ε}·(log₂ n)³`, or the practical substitute.
    pub(crate) fn trial_query_budget(&self, level: u32, n: usize) -> usize {
        let base = (n as f64).powf(f64::from(1u32 << level) * self.delta() + self.epsilon());
        let value = match self.constants {
            ConstantPolicy::Paper { c } => c * c * base * log2_ceil(n).powi(3),
            ConstantPolicy::Practical { query_factor, .. } => query_factor * base,
        };
        value.ceil().max(1.0) as usize
    }

    /// The largest `k` the paper allows for an `n`-node graph
    /// (`k ≤ log log n`); useful for validating experiment sweeps.
    pub fn max_k_for(n: usize) -> u32 {
        let loglog = (n.max(4) as f64).log2().log2();
        loglog.floor().max(1.0) as u32
    }
}

fn log2_ceil(n: usize) -> f64 {
    (n.max(2) as f64).log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert!(SamplerParams::new(0, 4).is_err());
        assert!(SamplerParams::new(2, 0).is_err());
        assert!(SamplerParams::new(21, 4).is_err());
        assert!(SamplerParams::new(2, 4).is_ok());
        assert!(SamplerParams::with_constants(2, 4, ConstantPolicy::Paper { c: 0.0 }).is_err());
        assert!(SamplerParams::with_constants(
            2,
            4,
            ConstantPolicy::Practical {
                target_factor: -1.0,
                query_factor: 2.0
            }
        )
        .is_err());
    }

    #[test]
    fn delta_and_stretch_match_formulas() {
        let p1 = SamplerParams::new(1, 4).unwrap();
        assert!((p1.delta() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(p1.stretch_bound(), 5);

        let p2 = SamplerParams::new(2, 4).unwrap();
        assert!((p2.delta() - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(p2.stretch_bound(), 17);

        let p3 = SamplerParams::new(3, 4).unwrap();
        assert!((p3.delta() - 1.0 / 15.0).abs() < 1e-12);
        assert_eq!(p3.stretch_bound(), 53);
        assert_eq!(p3.trials_per_level(), 8);
        assert_eq!(p3.round_bound(), 27 * 4);
    }

    #[test]
    fn center_probability_decreases_with_level() {
        let params = SamplerParams::new(3, 4).unwrap();
        let n = 10_000;
        let p0 = params.center_probability(0, n);
        let p1 = params.center_probability(1, n);
        let p2 = params.center_probability(2, n);
        assert!(p0 > p1 && p1 > p2);
        assert!(p0 <= 1.0 && p2 > 0.0);
        // p_j = n^{-2^j / 15}.
        assert!((p0 - (n as f64).powf(-1.0 / 15.0)).abs() < 1e-12);
    }

    #[test]
    fn targets_grow_with_level_and_respect_policy() {
        let n = 4096;
        let paper = SamplerParams::with_constants(2, 4, ConstantPolicy::Paper { c: 1.0 }).unwrap();
        let practical = SamplerParams::with_constants(
            2,
            4,
            ConstantPolicy::Practical {
                target_factor: 2.0,
                query_factor: 4.0,
            },
        )
        .unwrap();
        assert!(paper.neighbor_target(1, n) > paper.neighbor_target(0, n));
        assert!(paper.trial_query_budget(0, n) > paper.neighbor_target(0, n));
        // The paper constants include a log³ factor, so they dominate the
        // practical ones by a wide margin.
        assert!(paper.trial_query_budget(0, n) > 10 * practical.trial_query_budget(0, n));
        assert!(practical.neighbor_target(0, n) >= 1);
    }

    #[test]
    fn size_and_message_bounds_are_monotone_in_n() {
        let params = SamplerParams::new(2, 4).unwrap();
        assert!(params.size_bound(2000) > params.size_bound(1000));
        assert!(params.message_bound(1000) > params.size_bound(1000));
    }

    #[test]
    fn from_epsilon_realizes_the_corollary() {
        let params = SamplerParams::from_epsilon(0.5).unwrap();
        // Both exponent excesses must be at most eps/2 = 0.25.
        assert!(params.delta() <= 0.25 + 1e-9);
        assert!(params.epsilon() <= 0.25 + 1e-9);
        assert!(SamplerParams::from_epsilon(0.0).is_err());
        assert!(SamplerParams::from_epsilon(f64::NAN).is_err());

        let tight = SamplerParams::from_epsilon(2.0).unwrap();
        assert!(tight.delta() <= 1.0);
    }

    #[test]
    fn max_k_matches_loglog() {
        assert_eq!(SamplerParams::max_k_for(16), 2);
        assert_eq!(SamplerParams::max_k_for(65_536), 4);
        assert!(SamplerParams::max_k_for(2) >= 1);
    }

    #[test]
    fn fallback_builder() {
        let params = SamplerParams::new(2, 3)
            .unwrap()
            .fallback(FallbackPolicy::None);
        assert_eq!(params.fallback, FallbackPolicy::None);
        assert_eq!(
            SamplerParams::new(2, 3).unwrap().fallback,
            FallbackPolicy::QueryRemaining
        );
    }
}
