//! Pluggable delivery backends for the round barrier.
//!
//! The engine splits every round into an *execute* phase (stepping the node
//! programs, which fills a send grid of resolved [`Outgoing`] messages) and
//! a *dispatch* phase that moves each payload into its receiver's mailbox.
//! Everything up to the barrier — send resolution, fault injection,
//! sender-side metrics — is backend-independent; the barrier itself is a
//! [`Transport`]:
//!
//! * [`InProcessTransport`] — the default: the zero-allocation fast path
//!   that drains the grid's columns (serially, or one column per claim on
//!   the shard workers) and sizes each mailbox exactly from a count of its
//!   incoming messages. Payloads move by value, nothing is
//!   serialized.
//! * [`TcpTransport`] — multi-process execution over localhost (or any
//!   reachable peers): each process owns a contiguous node range, and the
//!   barrier exchanges one length-prefixed binary frame per peer per round.
//!   Requires the message type to implement [`WireCodec`].
//! * [`MockTransport`] — a loopback test backend that pushes every payload
//!   through its wire encoding, for transport-level tests that stay in one
//!   process.
//!
//! The contract every backend must uphold — canonical mailbox order,
//! sender-side ledger accounting, the codec/`payload_bytes` equivalence —
//! is specified in `docs/TRANSPORT.md`. Upholding it is what makes the same
//! `NodeProgram` + workload + seed produce **bit-identical outputs,
//! [`ExecutionMetrics`] and [`MessageLedger`]** on every backend;
//! `tests/determinism_matrix.rs` pins this across all three.

mod codec;
mod in_process;
mod mock;
mod tcp;

pub use codec::{check_size_and_padding, pad_to_size, CodecError, WireCodec};
pub use in_process::InProcessTransport;
pub use mock::MockTransport;
pub use tcp::{RejoinHello, TcpConfig, TcpTransport};

use crate::churn::ChurnEvent;
use crate::engine::NetworkConfig;
use crate::error::RuntimeResult;
use crate::metrics::{ExecutionMetrics, MessageLedger};
use crate::node::{Envelope, Outgoing};
use crate::trace::Trace;
use std::fmt;
use std::ops::Range;

/// The engine's view of one closed round barrier, handed to
/// [`Transport::deliver`].
///
/// By the time a backend sees the barrier, the engine has already resolved
/// the fault plan (dropped and duplicated messages are settled; survivors
/// sit in the send grid in canonical order) and run the sender-side metrics
/// pass (`metrics` already counts this round's local sends). The backend's
/// job is delivery and per-edge ledger accounting:
///
/// * move every grid message into `mailboxes[receiver]`, filling each
///   mailbox in ascending sender order (per sender, in send order) — the
///   canonical order the serial engine produces. A column's buckets, read
///   in row order, hold exactly that order for the column's receivers, and
///   a grid of one column is the canonical send order itself;
/// * charge every locally sent message to `ledger` (sender-side: a
///   message is charged by the rank that sent it, once, with the size
///   [`RoundBarrier::payload_bytes`] gives its payload, computed where the
///   backend tallies or stages the message). Backends tally the round per edge and
///   charge each touched edge with one `MessageLedger::record_bulk`, in
///   ascending edge order, when the
///   barrier succeeds; a barrier that fails charges nothing;
/// * when `traced`, record a [`TraceEvent`](crate::trace::TraceEvent) per
///   message in canonical send order (only backends whose
///   [`Transport::supports_tracing`] returns `true` see `traced == true`).
#[derive(Debug)]
pub struct RoundBarrier<'a, M> {
    /// The round whose sends are being delivered (0 = initialization).
    pub round: u32,
    /// Effective worker-shard count of this execution (a parallelism hint;
    /// a backend may ignore it and deliver serially).
    pub shards: usize,
    /// Whether this round must record trace events (canonical order).
    pub traced: bool,
    /// Number of messages in the send grid (after the fault plan).
    pub local_sent: u64,
    /// The program's wire size of one payload,
    /// [`NodeProgram::payload_bytes`](crate::node::NodeProgram::payload_bytes):
    /// the bytes the ledger charges for a message, and, on a wire backend,
    /// the exact length its codec must encode the payload to.
    pub payload_bytes: fn(&M) -> u64,
    /// Per-node halted flags; only the entries of the engine's owned range
    /// are meaningful (a distributed backend exchanges these counts so
    /// every rank can agree on global termination).
    pub halted: &'a [bool],
    /// The send grid, row-major, `⌈node count / column_width⌉` columns
    /// wide: row `r` holds the sends of the engine's `r`-th execute chunk
    /// (an ascending range of owned nodes), and its bucket `c` those
    /// addressed to receivers `c·column_width .. (c + 1)·column_width`, in
    /// (sender, send) order. The backend drains the buckets; one a failed
    /// barrier leaves full is harmless, because the engine clears each row
    /// before refilling it.
    pub grid: &'a mut [Vec<Outgoing<M>>],
    /// Receivers per grid column: the backend's
    /// [`Transport::column_width`], widened by the engine only where small
    /// execute chunks would otherwise multiply the buckets.
    pub column_width: usize,
    /// The mailbox plane, still holding the messages the programs just
    /// read this round. The backend must clear each mailbox before
    /// delivering into it; the programs read the result next round.
    pub mailboxes: &'a mut [Vec<Envelope<M>>],
    /// Execution metrics; local sends are already counted. A distributed
    /// backend merges peer ranks' per-node send counts here.
    pub metrics: &'a mut ExecutionMetrics,
    /// The message ledger to record delivered traffic into.
    pub ledger: &'a mut MessageLedger,
    /// The trace log (only written when `traced`).
    pub trace: &'a mut Trace,
    /// Churn events the engine applied at the top of this round, in
    /// canonical application order (empty when no
    /// [`ChurnPlan`](crate::churn::ChurnPlan) is installed). Purely
    /// observational for in-process backends; wire backends encode them
    /// into the round frame so every rank can verify it applied the
    /// identical topology update.
    pub churn: &'a [ChurnEvent],
}

/// What a [`Transport::deliver`] call reports back to the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierOutcome {
    /// Messages sent network-wide this round (every rank's post-fault
    /// send total). Single-process backends report
    /// [`RoundBarrier::local_sent`]; this feeds
    /// [`Network::pending_messages`](crate::engine::Network::pending_messages).
    pub delivered: u64,
    /// Halted nodes outside the engine's owned range, as exchanged at this
    /// barrier (0 for single-process backends).
    pub remote_halted: usize,
}

impl BarrierOutcome {
    /// The outcome of a single-process barrier: everything sent locally was
    /// delivered and no remote nodes exist.
    pub(crate) fn local(delivered: u64) -> Self {
        BarrierOutcome {
            delivered,
            remote_halted: 0,
        }
    }
}

/// How a distributed barrier reacts when a peer rank stops responding (a
/// dead socket, a liveness deadline blown past `io_timeout`).
///
/// Single-process backends never consult it. Semantics are specified in
/// `docs/RECOVERY.md`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Abort the barrier with a precise
    /// [`RuntimeError::Transport`](crate::error::RuntimeError::Transport)
    /// the moment a peer is declared dead (the default, and the pre-recovery
    /// behavior).
    #[default]
    FailFast,
    /// Block the barrier and wait for the dead rank to relaunch from its
    /// checkpoint and rejoin through the handshake, for up to `attempts`
    /// full liveness windows; abort only if it never comes back.
    Retry {
        /// Number of liveness windows (`io_timeout` each) to wait for the
        /// rejoin before giving up.
        attempts: u32,
    },
}

/// A delivery backend for the round barrier.
///
/// Implementations move one round's grid messages into the receiving
/// mailboxes — in process, over sockets, or through a test double — while
/// keeping every observable of the execution bit-identical to the
/// [`InProcessTransport`] reference (see the [module docs](self) and
/// `docs/TRANSPORT.md`).
pub trait Transport<M>: fmt::Debug + Send {
    /// Delivers one closed round. See [`RoundBarrier`] for the contract.
    ///
    /// # Errors
    ///
    /// Wire backends return
    /// [`RuntimeError::Transport`](crate::error::RuntimeError::Transport)
    /// on I/O failures, timeouts, desynchronized frames, or codec
    /// violations. A failed barrier leaves
    /// the network in an unspecified (but memory-safe) state; callers
    /// should discard it.
    fn deliver(&mut self, barrier: RoundBarrier<'_, M>) -> RuntimeResult<BarrierOutcome>;

    /// Whether this backend can record canonical-order traces.
    /// [`Network::with_transport`](crate::engine::Network::with_transport)
    /// rejects [`TraceMode::Full`](crate::trace::TraceMode::Full) configs
    /// on backends that return `false`.
    fn supports_tracing(&self) -> bool {
        true
    }

    /// The contiguous node range this process steps locally. Single-process
    /// backends own everything; a distributed backend owns its rank's
    /// chunk. Programs outside the range are constructed but never stepped.
    fn owned_range(&self, node_count: usize) -> Range<usize> {
        0..node_count
    }

    /// Receivers per column of the send grid the engine fills for this
    /// backend ([`RoundBarrier::grid`]), asked once when the network is
    /// built. The default, `node_count`, is a single column: the grid's
    /// buckets, in row order, are then the canonical send order.
    fn column_width(&self, node_count: usize, _config: &NetworkConfig) -> usize {
        node_count
    }
}
