//! # freelunch-runtime
//!
//! A synchronous LOCAL-model simulator with exact round and message
//! accounting, used to execute and measure every distributed algorithm in
//! the freelunch workspace.
//!
//! The model matches Section 1.1 of *"Message Reduction in the LOCAL Model
//! Is a Free Lunch"*:
//!
//! * fully synchronous rounds; in each round a node may send one (unbounded)
//!   message over each incident edge and receives all messages addressed to
//!   it in that round;
//! * nodes know an `O(1)`-approximate upper bound on `log n`
//!   ([`knowledge::InitialKnowledge::log_n_upper_bound`]);
//! * edges carry globally unique IDs known to both endpoints
//!   ([`KnowledgeModel::UniqueEdgeIds`]); the classical `KT0` and `KT1`
//!   variants are also available for baselines analysed under those models.
//!
//! Algorithms are written as [`NodeProgram`]s and executed by a [`Network`],
//! which reports a [`CostReport`] (rounds + messages), per-round / per-node
//! metrics, optional message traces, and a [`MessageLedger`] — per-edge and
//! per-round message counts with payload byte sizing, the workspace-wide
//! meter specified in `docs/METRICS.md`.
//!
//! Executions can additionally be subjected to a deterministic, seeded
//! [`FaultPlan`] — message drops, duplications, link cuts, node crashes and
//! delivery-order perturbation, all resolved from a ChaCha stream keyed per
//! message so faulty runs keep every bit-identity guarantee of clean ones.
//! See [`fault`] for the model and `docs/METRICS.md` for how dropped and
//! duplicated traffic is accounted.
//!
//! The communication graph itself can evolve under a seeded [`ChurnPlan`]:
//! edge inserts/deletes and node joins/leaves resolved from the same keyed
//! ChaCha stream discipline, applied in canonical order at the round barrier
//! over a mutable [`freelunch_graph::OverlayGraph`] view of the frozen
//! topology. See [`churn`] for the event model and `docs/CHURN.md` for the
//! repair-vs-rebuild contract.
//!
//! Executions are crash-recoverable: [`Network::checkpoint`] captures the
//! full engine state at a round boundary as a [`NetworkCheckpoint`] (a
//! versioned, checksummed, torn-write-safe file format), and restoring it
//! resumes **bit-identical** to an uninterrupted run — on every backend,
//! including a killed TCP rank rejoining its surviving peers under a
//! [`RecoveryPolicy`]. See [`checkpoint`] and `docs/RECOVERY.md`.
//!
//! Messages move through one zero-allocation mailbox plane. Sends are
//! resolved (validated, receiver looked up) at send time. The round barrier
//! refills the plane only after every program has read it, and sizes each
//! mailbox exactly from a count of its incoming messages. Every buffer is
//! reused across rounds, and per-message trace recording is gated behind
//! [`TraceMode`] (off by default). The engine can run both
//! phases of a round on multiple worker threads
//! ([`NetworkConfig::sharded`]): programs are stepped node-sharded, and
//! delivery runs receiver-sharded through a bucket exchange whose ledger
//! partials merge at the round barrier in canonical order — so every
//! observable of the execution is **bit-identical for every shard count**.
//! See [`engine`] for the design and `docs/PERF.md` for the costs.
//!
//! # Examples
//!
//! ```
//! use freelunch_graph::generators::{cycle_graph, GeneratorConfig};
//! use freelunch_runtime::{Context, Envelope, Network, NetworkConfig, NodeProgram};
//!
//! /// Every node broadcasts its ID once and counts distinct senders heard.
//! struct Census { heard: usize }
//!
//! impl NodeProgram for Census {
//!     type Message = u32;
//!     fn init(&mut self, ctx: &mut Context<'_, u32>) {
//!         let id = ctx.node().raw();
//!         ctx.broadcast(id);
//!     }
//!     fn round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[Envelope<u32>]) {
//!         self.heard += inbox.len();
//!         ctx.halt();
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = cycle_graph(&GeneratorConfig::new(10, 0))?;
//! let mut network = Network::new(&graph, NetworkConfig::with_seed(7), |_, _| Census { heard: 0 })?;
//! network.run_until_halt(5)?;
//! assert_eq!(network.cost().messages, 20); // 10 nodes × degree 2
//! assert!(network.programs().iter().all(|p| p.heard == 2));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod churn;
pub mod engine;
pub mod error;
pub mod fault;
pub mod knowledge;
pub mod metrics;
pub mod node;
pub mod trace;
pub mod transport;

pub use checkpoint::{CheckpointHeader, NetworkCheckpoint, PendingEnvelope};
pub use churn::{ChurnDriver, ChurnEvent, ChurnEventSpec, ChurnPlan, ScheduledChurn};
pub use engine::{Network, NetworkConfig, DEFAULT_CHUNK_SIZE};
pub use error::{RuntimeError, RuntimeResult};
pub use fault::{CrashSchedule, FaultPlan, LinkCut};
pub use knowledge::{InitialKnowledge, KnowledgeModel, Port};
pub use metrics::{
    edge_slot_count, CongestionSnapshot, CostReport, ExecutionMetrics, FaultTotals, MessageLedger,
};
pub use node::{Context, Envelope, NodeProgram, Outgoing};
pub use trace::{Trace, TraceEvent, TraceMode};
pub use transport::{
    BarrierOutcome, CodecError, InProcessTransport, MockTransport, RecoveryPolicy, RejoinHello,
    RoundBarrier, TcpConfig, TcpTransport, Transport, WireCodec,
};
