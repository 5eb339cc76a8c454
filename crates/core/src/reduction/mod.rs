//! Message-efficient simulation of LOCAL algorithms (Section 6 of the
//! paper).
//!
//! The building block is the *`t`-local broadcast* task: every node `v`
//! holds a message `M_v` and must deliver it to every node of its ball
//! `B_{G,t}(v)`. Any `t`-round LOCAL algorithm can be simulated by a
//! `t`-local broadcast (each node then re-computes its output locally from
//! the gathered information), so a message-efficient `t`-local broadcast is
//! a message-reduction scheme.
//!
//! * [`tlocal`] — flooding within distance `α·t` on an `α`-spanner,
//!   with exact message/round accounting;
//! * [`scheme`] — the single-stage scheme of Lemma 12 (first bullet):
//!   `Sampler` spanner + spanner flooding;
//! * [`two_stage`] — the two-stage scheme of Lemma 12 (second bullet):
//!   `Sampler` spanner → simulate a second spanner construction on top of it
//!   → flood on the second spanner;
//! * [`simulate`] — end-to-end simulation of an arbitrary LOCAL algorithm
//!   (given as a [`NodeProgram`](freelunch_runtime::NodeProgram)) together
//!   with a correctness check that the `t`-ball information delivered by the
//!   broadcast indeed determines every node's output.
//!
//! Every path meters its traffic through the workspace-wide
//! [`MessageLedger`](freelunch_runtime::metrics::MessageLedger), and each report type
//! exposes a phase-attributed [`Ledger`](crate::ledger::Ledger) with the
//! measured free-lunch ratio — see `docs/METRICS.md` for the contract.
//!
//! The emulated paths (the floods and the cost emulations) are
//! failure-free, like the executions the paper's results concern. A
//! [`FaultPlan`](freelunch_runtime::fault::FaultPlan) acts only on
//! executions of the runtime engine — see `docs/METRICS.md` §6.

pub mod scheme;
pub mod simulate;
pub mod tlocal;
pub mod two_stage;

pub use scheme::{SamplerScheme, SchemeReport};
pub use simulate::{simulate_with_spanner, SimulationReport};
pub use tlocal::{
    flood_on_subgraph, flood_on_subgraph_routed, t_local_broadcast, BroadcastOutcome, FloodRouting,
};
pub use two_stage::{TwoStageReport, TwoStageScheme};
