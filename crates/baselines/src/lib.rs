//! # freelunch-baselines
//!
//! The algorithms the paper compares against (or builds on):
//!
//! * [`baswana_sen`] — the Baswana–Sen `(2k−1)`-spanner \[5\], the
//!   clustering construction `Sampler` is inspired by; sends `Θ(k·m)`
//!   messages.
//! * [`derbel`] — a Derbel-et-al-style clustering spanner used as the
//!   "off-the-shelf" second stage of the two-stage scheme (Lemma 12).
//! * [`greedy`] — the centralized greedy spanner, a quality reference for
//!   the size/stretch trade-off.
//! * [`gossip`] — gossip-based message reduction \[8, 22\]: `Θ(n)` messages
//!   per round but an `O(t·log n + log² n)` round blow-up.
//! * [`flooding`] — the status quo: direct flooding on `G`, `Θ(t·m)`
//!   messages.
//!
//! Spanner constructions implement
//! [`SpannerAlgorithm`](freelunch_core::spanner_api::SpannerAlgorithm) so
//! they can be swapped into the message-reduction schemes and compared by
//! the experiment harness.
//!
//! Every baseline meters its traffic through the workspace-wide
//! [`MessageLedger`](freelunch_runtime::metrics::MessageLedger) — the same per-edge /
//! per-round / per-byte meter the runtime engine and the reduction schemes
//! report through — so baseline-vs-scheme comparisons never mix accounting
//! conventions (the exception is [`greedy`], which is centralized and has no
//! per-edge message pattern to meter; its modelled aggregate cost is
//! documented in its module). The contract is specified in
//! `docs/METRICS.md`.
//!
//! Every baseline is failure-free, like the executions the paper's results
//! concern: the execution baselines ([`flooding`], [`gossip`]) are emulated
//! round loops, and the construction baselines ([`baswana_sen`],
//! [`derbel`], [`greedy`]) are centralized cost emulations. A
//! [`FaultPlan`](freelunch_runtime::fault::FaultPlan) acts only on
//! executions of the runtime engine (`docs/METRICS.md` §6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baswana_sen;
pub mod derbel;
pub mod error;
pub mod flooding;
pub mod gossip;
pub mod greedy;

pub use baswana_sen::{BaswanaSen, BaswanaSenOutcome};
pub use derbel::{ClusterSpanner, ClusterSpannerOutcome};
pub use error::{BaselineError, BaselineResult};
pub use flooding::{direct_flooding, FloodingOutcome};
pub use gossip::{gossip_broadcast, GossipBroadcast, GossipOutcome};
pub use greedy::GreedySpanner;
