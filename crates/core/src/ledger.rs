//! Phase-attributed cost ledger: which reduction phase paid for which
//! messages, and what the measured "free lunch" actually is.
//!
//! The paper's claim decomposes into phases — building a spanner, simulating
//! over it, flooding on it — each with its own round/message bill, and the
//! claim is only measurable end-to-end if every phase is attributed to the
//! same meter. [`Ledger`] collects one [`CostReport`] per [`CostPhase`]
//! entry and derives the headline numbers: the **free-lunch ratio** (direct
//! messages ÷ scheme messages; `> 1` means the scheme sends fewer) and the
//! **round overhead** (scheme rounds ÷ direct rounds; the paper's claim is
//! that the former grows while the latter stays `O(1)` per simulated round).
//!
//! Every reduction path the experiments measure has its ledger:
//! [`SimulationReport::ledger`] (end-to-end simulation of a LOCAL
//! algorithm), [`TwoStageReport::ledger`] (two-stage scheme), and
//! [`Ledger::for_tlocal`] (a bare `t`-local broadcast measured against a
//! direct execution). The fine-grained per-edge/per-round side of the same
//! contract lives in
//! [`freelunch_runtime::metrics::MessageLedger`]; `docs/METRICS.md`
//! specifies both.

use crate::reduction::simulate::SimulationReport;
use crate::reduction::two_stage::TwoStageReport;
use freelunch_runtime::CostReport;
use serde::{Deserialize, Serialize};

/// The execution phase a cost entry is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CostPhase {
    /// Constructing a spanner (the `Sampler` stage, or a baseline spanner
    /// construction run for comparison).
    SpannerConstruction,
    /// Simulating a second-stage construction over an already-built spanner
    /// (stage 2 of the two-stage scheme).
    SecondStageSimulation,
    /// The `t`-local broadcast / flooding stage that delivers the simulated
    /// algorithm's information.
    Broadcast,
    /// Incremental repair of an already-built spanner after a churn event
    /// (edge insert/delete) — the price of keeping the scheme's backbone
    /// valid on a dynamic graph instead of rebuilding it from scratch. See
    /// `docs/CHURN.md` for the repair-vs-rebuild contract.
    Maintenance,
    /// Running the simulated algorithm directly on `G` — the reference the
    /// scheme competes with. Never counted into the scheme's own cost.
    DirectExecution,
}

impl CostPhase {
    /// Short label used in experiment tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            CostPhase::SpannerConstruction => "spanner",
            CostPhase::SecondStageSimulation => "second-stage-sim",
            CostPhase::Broadcast => "broadcast",
            CostPhase::Maintenance => "maintenance",
            CostPhase::DirectExecution => "direct",
        }
    }
}

/// One attributed cost entry of a [`Ledger`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// The phase the cost belongs to.
    pub phase: CostPhase,
    /// Free-form description of what exactly was charged (algorithm name,
    /// stage number, …).
    pub label: String,
    /// The rounds and messages charged.
    pub cost: CostReport,
}

/// A phase-attributed cost ledger for one reduction-scheme execution.
///
/// # Examples
///
/// ```
/// use freelunch_core::ledger::{CostPhase, Ledger};
/// use freelunch_runtime::CostReport;
///
/// let mut ledger = Ledger::new();
/// ledger.charge(CostPhase::SpannerConstruction, "sampler", CostReport::new(6, 400));
/// ledger.charge(CostPhase::Broadcast, "t-local broadcast", CostReport::new(4, 100));
/// ledger.charge(CostPhase::DirectExecution, "direct run", CostReport::new(2, 2000));
/// assert_eq!(ledger.scheme_cost(), CostReport::new(10, 500));
/// assert_eq!(ledger.free_lunch_ratio(), Some(4.0));
/// assert_eq!(ledger.round_overhead(), Some(5.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ledger {
    entries: Vec<LedgerEntry>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Appends a cost entry attributed to `phase`.
    pub fn charge(&mut self, phase: CostPhase, label: impl Into<String>, cost: CostReport) {
        self.entries.push(LedgerEntry {
            phase,
            label: label.into(),
            cost,
        });
    }

    /// All entries, in the order they were charged.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Sequential composition of every entry attributed to `phase` (rounds
    /// and messages both add).
    pub fn phase_cost(&self, phase: CostPhase) -> CostReport {
        self.entries
            .iter()
            .filter(|e| e.phase == phase)
            .fold(CostReport::zero(), |acc, e| acc + e.cost)
    }

    /// Total cost of the scheme itself: every phase except
    /// [`CostPhase::DirectExecution`], composed sequentially.
    pub fn scheme_cost(&self) -> CostReport {
        self.entries
            .iter()
            .filter(|e| e.phase != CostPhase::DirectExecution)
            .fold(CostReport::zero(), |acc, e| acc + e.cost)
    }

    /// Total cost of the direct reference execution, if one was charged.
    pub fn direct_cost(&self) -> Option<CostReport> {
        if self
            .entries
            .iter()
            .any(|e| e.phase == CostPhase::DirectExecution)
        {
            Some(self.phase_cost(CostPhase::DirectExecution))
        } else {
            None
        }
    }

    /// The measured free-lunch ratio: direct messages ÷ scheme messages
    /// (`> 1` means the scheme sends fewer messages; `f64::INFINITY` if the
    /// scheme sent none). `None` if no direct execution was charged.
    pub fn free_lunch_ratio(&self) -> Option<f64> {
        let direct = self.direct_cost()?;
        let scheme = self.scheme_cost();
        if scheme.messages == 0 {
            return Some(f64::INFINITY);
        }
        Some(direct.messages as f64 / scheme.messages as f64)
    }

    /// The measured round overhead: scheme rounds ÷ direct rounds (`0.0` if
    /// the direct execution used no rounds). `None` if no direct execution
    /// was charged.
    pub fn round_overhead(&self) -> Option<f64> {
        let direct = self.direct_cost()?;
        let scheme = self.scheme_cost();
        if direct.rounds == 0 {
            return Some(0.0);
        }
        Some(scheme.rounds as f64 / direct.rounds as f64)
    }

    /// Fraction of the scheme's messages attributed to `phase` (0.0 if the
    /// scheme sent no messages).
    pub fn message_fraction(&self, phase: CostPhase) -> f64 {
        let scheme = self.scheme_cost();
        if scheme.messages == 0 {
            return 0.0;
        }
        self.phase_cost(phase).messages as f64 / scheme.messages as f64
    }

    /// Ledger of an end-to-end simulation
    /// ([`simulate_with_spanner`](crate::reduction::simulate::simulate_with_spanner)):
    /// spanner construction + broadcast on the scheme side, and the measured
    /// direct execution as the reference.
    pub(crate) fn from_simulation(report: &SimulationReport) -> Self {
        let mut ledger = Ledger::new();
        ledger.charge(
            CostPhase::SpannerConstruction,
            "spanner construction",
            report.spanner_cost,
        );
        ledger.charge(
            CostPhase::Broadcast,
            format!("{}-local broadcast", report.t),
            report.broadcast_cost,
        );
        ledger.charge(
            CostPhase::DirectExecution,
            "direct execution on G",
            report.direct_cost,
        );
        ledger
    }

    /// Ledger of a two-stage scheme run
    /// ([`TwoStageScheme`](crate::reduction::two_stage::TwoStageScheme)),
    /// measured against the supplied direct-execution cost.
    pub(crate) fn from_two_stage(report: &TwoStageReport, direct: CostReport) -> Self {
        let mut ledger = Ledger::new();
        ledger.charge(
            CostPhase::SpannerConstruction,
            format!("stage 1: sampler spanner (gamma={})", report.gamma),
            report.stage1_cost,
        );
        ledger.charge(
            CostPhase::SecondStageSimulation,
            format!(
                "stage 2: simulate {} ({} rounds) on the stage-1 spanner",
                report.stage2_algorithm, report.stage2_rounds_simulated
            ),
            report.stage2_cost,
        );
        ledger.charge(
            CostPhase::Broadcast,
            format!("stage 3: flooding within radius {}", report.stage3_radius),
            report.stage3_cost,
        );
        ledger.charge(CostPhase::DirectExecution, "direct execution on G", direct);
        ledger
    }

    /// Ledger of a bare `t`-local broadcast (no spanner construction
    /// charged), measured against the supplied direct-execution cost.
    pub fn for_tlocal(broadcast: CostReport, direct: CostReport) -> Self {
        let mut ledger = Ledger::new();
        ledger.charge(CostPhase::Broadcast, "t-local broadcast", broadcast);
        ledger.charge(CostPhase::DirectExecution, "direct execution on G", direct);
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_sums_and_ratios() {
        let mut ledger = Ledger::new();
        ledger.charge(CostPhase::SpannerConstruction, "s1", CostReport::new(3, 60));
        ledger.charge(CostPhase::SpannerConstruction, "s2", CostReport::new(2, 40));
        ledger.charge(CostPhase::Broadcast, "b", CostReport::new(5, 100));
        ledger.charge(CostPhase::DirectExecution, "d", CostReport::new(2, 800));

        assert_eq!(
            ledger.phase_cost(CostPhase::SpannerConstruction),
            CostReport::new(5, 100)
        );
        assert_eq!(ledger.scheme_cost(), CostReport::new(10, 200));
        assert_eq!(ledger.direct_cost(), Some(CostReport::new(2, 800)));
        assert_eq!(ledger.free_lunch_ratio(), Some(4.0));
        assert_eq!(ledger.round_overhead(), Some(5.0));
        assert_eq!(ledger.message_fraction(CostPhase::Broadcast), 0.5);
        assert_eq!(ledger.entries().len(), 4);
    }

    #[test]
    fn ratios_require_a_direct_entry() {
        let mut ledger = Ledger::new();
        ledger.charge(CostPhase::Broadcast, "b", CostReport::new(1, 10));
        assert_eq!(ledger.direct_cost(), None);
        assert_eq!(ledger.free_lunch_ratio(), None);
        assert_eq!(ledger.round_overhead(), None);
    }

    #[test]
    fn degenerate_ratios() {
        let zero_scheme = Ledger::for_tlocal(CostReport::zero(), CostReport::new(1, 5));
        assert_eq!(zero_scheme.free_lunch_ratio(), Some(f64::INFINITY));
        let zero_direct = Ledger::for_tlocal(CostReport::new(2, 5), CostReport::zero());
        assert_eq!(zero_direct.round_overhead(), Some(0.0));
        assert_eq!(Ledger::new().message_fraction(CostPhase::Broadcast), 0.0);
    }

    #[test]
    fn maintenance_counts_into_the_scheme_cost() {
        let mut ledger = Ledger::new();
        ledger.charge(
            CostPhase::SpannerConstruction,
            "build",
            CostReport::new(4, 50),
        );
        ledger.charge(
            CostPhase::Maintenance,
            "repair after churn",
            CostReport::new(2, 10),
        );
        ledger.charge(CostPhase::DirectExecution, "d", CostReport::new(1, 300));
        assert_eq!(ledger.scheme_cost(), CostReport::new(6, 60));
        assert_eq!(ledger.free_lunch_ratio(), Some(5.0));
        assert_eq!(
            ledger.phase_cost(CostPhase::Maintenance),
            CostReport::new(2, 10)
        );
    }

    #[test]
    fn phase_labels_are_stable() {
        assert_eq!(CostPhase::SpannerConstruction.label(), "spanner");
        assert_eq!(CostPhase::SecondStageSimulation.label(), "second-stage-sim");
        assert_eq!(CostPhase::Broadcast.label(), "broadcast");
        assert_eq!(CostPhase::Maintenance.label(), "maintenance");
        assert_eq!(CostPhase::DirectExecution.label(), "direct");
    }
}
