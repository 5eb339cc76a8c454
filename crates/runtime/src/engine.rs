//! The synchronous execution engine: runs one [`NodeProgram`] per node of a
//! communication graph, round by round, with exact message accounting.
//!
//! This is the (fully synchronous) LOCAL model of Linial / Peleg as used in
//! the paper: in every round each node may send one message over each
//! incident edge (message size is not bounded), receives the messages sent
//! to it in that round, and performs arbitrary local computation.
//!
//! # The message plane
//!
//! Messages live in **one plane of per-node mailboxes** and **one send
//! grid**. The programs read their inboxes from the mailboxes during the
//! execute phase and write their sends into the grid, whose row `r` holds
//! the sends of execute chunk `r` (an ascending range of nodes) and whose
//! column `c` those addressed to receiver range `c`, so every bucket keeps
//! canonical (sender, send) order. Only then does the round barrier clear
//! the mailboxes and drain the grid into them. The barrier counts each
//! receiver's incoming messages first, so a mailbox is allocated once, at
//! its exact size, and later rounds reuse it — in steady state a round
//! performs **no per-message allocation**: grid buckets, the workers'
//! scratch outboxes and the mailboxes are all reused across rounds. Each
//! message is written twice: into its bucket, then into its mailbox.
//! Sends are resolved when the program makes them ([`Context::send_port`]
//! reads the receiver straight off the node's packed CSR incidence slice;
//! [`Context::send`] validates with one dense array read), so the barrier
//! never touches the graph per message.
//!
//! # Sharded parallel execution
//!
//! Every round has two phases, both parallelized over
//! [`NetworkConfig::shards`] workers, the calling thread being one of them:
//!
//! * the *execute* phase steps each node's program against its inbox
//!   snapshot — nodes are mutually independent within a round. The node
//!   range is pre-split into chunks of [`NetworkConfig::chunk_size`] nodes
//!   (at most `⌈owned/shards⌉`, so a small graph still feeds every worker)
//!   and the workers **claim chunks in ascending order off one shared
//!   queue** until none remain, so a skewed workload (scale-free hubs, a
//!   half-halted graph) cannot idle every worker behind one overloaded
//!   range. A chunk size of `⌈owned/shards⌉` gives one contiguous range per
//!   shard. A worker steps each node against its scratch outbox and, while
//!   the sends are in cache, resolves their fault fates, sizes and counts
//!   them and moves them into its chunk's grid row;
//! * the *dispatch* phase delivers at the round barrier with
//!   **receiver-chunked workers**: they claim grid columns, size each
//!   cleared mailbox from a count of its column, and drain the column in
//!   row order, accumulating per-edge ledger partials as they go; the
//!   partials are merged into the [`MessageLedger`] when the barrier
//!   closes. Each receiver's mailbox is filled in ascending sender order
//!   (and, per sender, in send order): the exact order the sequential
//!   engine produces.
//!
//! Work-stealing changes only *which worker* steps a node, and that is
//! unobservable: every node writes only its own pre-allocated slots
//! (program state, RNG position, halted flag and send count, plus its
//! chunk's grid row — chunks are disjoint `&mut` sub-slices each claimed
//! exactly once), each node draws from its own
//! [`ChaCha8Rng`](rand_chacha::ChaCha8Rng) stream keyed by `(seed, node)`
//! (the engine keeps only the stream's position, and [`Context::rng`]
//! rebuilds the generator when a step first draws), fault fates are keyed
//! by the message, not the worker, and the barrier reads everything back
//! in canonical node order. A failing round reports the canonically
//! **first** error (lowest node index): claims are ascending, so each
//! worker keeps the first error it meets, and the lowest of those wins
//! after the join. Hence every observable of an
//! execution — [`ExecutionMetrics`], [`MessageLedger`], [`Trace`], program
//! outputs — is **bit-identical for every shard count and chunk size** at
//! equal seeds. Both are wall-clock knobs, never semantics knobs.
//!
//! Per-message trace recording is priced separately: it is off by default
//! ([`TraceMode::Off`]) and a traced execution ([`NetworkConfig::traced`])
//! runs the barrier serially so events appear in canonical order — see
//! [`TraceMode`].
//!
//! # Pluggable transports
//!
//! The barrier's delivery step is a [`Transport`]: the default
//! [`InProcessTransport`] fills the zero-allocation mailbox plane
//! described above, [`TcpTransport`](crate::transport::TcpTransport) runs
//! the same execution across processes, and
//! [`MockTransport`](crate::transport::MockTransport) is a wire-faithful
//! test double. Send resolution, fault injection, sender-side metrics and
//! the run-loop live here and are backend-independent; each backend states
//! the column width of the grid it is handed
//! ([`Transport::column_width`]), and every backend upholds
//! the bit-identity contract of `docs/TRANSPORT.md`, so the *same* program,
//! workload and seed produce the same outputs, [`ExecutionMetrics`] and
//! [`MessageLedger`] on all of them. Build a network on a non-default
//! backend with [`Network::with_transport`].
//!
//! ```
//! use freelunch_graph::generators::{sparse_connected_erdos_renyi, GeneratorConfig};
//! use freelunch_runtime::{Context, Envelope, Network, NetworkConfig, NodeProgram};
//!
//! /// Two rounds of min-ID flooding.
//! struct MinFlood(u32);
//! impl NodeProgram for MinFlood {
//!     type Message = u32;
//!     fn init(&mut self, ctx: &mut Context<'_, u32>) {
//!         ctx.broadcast(self.0);
//!     }
//!     fn round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[Envelope<u32>]) {
//!         self.0 = inbox.iter().map(|e| e.payload).chain([self.0]).min().unwrap();
//!         if ctx.round() < 2 { ctx.broadcast(self.0); } else { ctx.halt(); }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = sparse_connected_erdos_renyi(&GeneratorConfig::new(64, 3), 4.0)?;
//! let run = |config: NetworkConfig| -> Result<_, Box<dyn std::error::Error>> {
//!     let mut network = Network::new(&graph, config, |v, _| MinFlood(v.raw()))?;
//!     network.run_until_halt(4)?;
//!     Ok((network.cost(), network.metrics().clone()))
//! };
//! let sequential = run(NetworkConfig::with_seed(7))?;
//! let sharded = run(NetworkConfig::with_seed(7).sharded(4))?;
//! assert_eq!(sequential, sharded); // identical CostReport *and* per-round metrics
//! # Ok(())
//! # }
//! ```

use crate::checkpoint::{debug_digest, graph_fingerprint, NetworkCheckpoint, PendingEnvelope};
use crate::churn::{ChurnDriver, ChurnEvent, ChurnPlan};
use crate::error::{RuntimeError, RuntimeResult};
use crate::fault::{FaultPlan, MessageFate, ResolvedFaultPlan};
use crate::knowledge::{InitialKnowledge, KnowledgeModel};
use crate::metrics::{edge_slot_count, CostReport, ExecutionMetrics, FaultCause, MessageLedger};
use crate::node::{Context, Envelope, NodeProgram, Outgoing};
use crate::trace::{Trace, TraceMode};
use crate::transport::{InProcessTransport, RoundBarrier, Transport, WireCodec};
use freelunch_graph::{CsrGraph, EdgeId, IncidentEdge, MultiGraph, NodeId, OverlayGraph};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Mutex;

/// Largest accepted [`NetworkConfig::shards`]: every parallel phase starts
/// up to `shards − 1` threads, so a count read from a config or checkpoint
/// must not reach the thread spawner unbounded.
const MAX_SHARDS: usize = 256;

/// Default [`NetworkConfig::chunk_size`]: small enough that a scale-free
/// hub's chunk cannot dominate the barrier, large enough that a phase
/// makes a few hundred claims at most.
pub const DEFAULT_CHUNK_SIZE: usize = 2048;

fn default_chunk_size() -> usize {
    DEFAULT_CHUNK_SIZE
}

/// Configuration of a synchronous execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Initial-knowledge model handed to the nodes.
    pub knowledge: KnowledgeModel,
    /// Seed from which every node's private random stream is derived.
    pub seed: u64,
    /// Extra slack added to the `log2 n` upper bound the nodes are given
    /// (models the "O(1)-approximate upper bound" of assumption (i)).
    pub log_n_slack: u32,
    /// Per-message trace recording ([`TraceMode::Off`] by default; message
    /// *counts* are always exact regardless). [`TraceMode::Full`] forces
    /// the round barrier onto its serial path so events are recorded in
    /// canonical order.
    ///
    /// Compatibility: configs serialized before this field existed
    /// deserialize as `Off` even if `trace_capacity > 0` — tracing is now
    /// an explicit opt-in, so such configs must also set `trace_mode`
    /// (or be built via [`NetworkConfig::traced`], which sets both).
    #[serde(default)]
    pub trace_mode: TraceMode,
    /// Maximum number of message events stored in the trace under
    /// [`TraceMode::Full`] (events beyond the capacity are counted, not
    /// stored).
    pub trace_capacity: usize,
    /// Number of worker shards each round's execute and dispatch phases are
    /// split into (1 = sequential). Shard counts above the owned node count
    /// are clamped down; 0 and counts above `MAX_SHARDS` (256) are rejected
    /// by [`Network::new`]. Every observable of the execution is
    /// bit-identical for every shard count — see the [module docs](self).
    pub shards: usize,
    /// Target nodes per work-stealing chunk ([`DEFAULT_CHUNK_SIZE`] by
    /// default; 0 is rejected by [`Network::new`]). Smaller chunks balance
    /// skew better but are claimed more often; `⌈n/shards⌉` gives one
    /// contiguous range per shard. Each chunk is one row of the send grid,
    /// whose columns the transport sizes so the grid stays small — see
    /// `docs/PERF.md` §2 for tuning guidance.
    #[serde(default = "default_chunk_size")]
    pub chunk_size: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            knowledge: KnowledgeModel::UniqueEdgeIds,
            seed: 0,
            log_n_slack: 1,
            trace_mode: TraceMode::Off,
            trace_capacity: 0,
            shards: 1,
            chunk_size: default_chunk_size(),
        }
    }
}

impl NetworkConfig {
    /// Configuration with the paper's knowledge model and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        NetworkConfig {
            seed,
            ..NetworkConfig::default()
        }
    }

    /// Returns a copy using the given knowledge model.
    pub fn knowledge(mut self, model: KnowledgeModel) -> Self {
        self.knowledge = model;
        self
    }

    /// Returns a copy that records message traces ([`TraceMode::Full`]),
    /// storing up to `capacity` events. Tracing costs per-message time and
    /// forces the round barrier onto its serial path — see [`TraceMode`].
    pub fn traced(mut self, capacity: usize) -> Self {
        self.trace_mode = TraceMode::Full;
        self.trace_capacity = capacity;
        self
    }

    /// Returns a copy using the given [`TraceMode`] (with the current
    /// capacity; [`NetworkConfig::traced`] sets both at once).
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Returns a copy that executes each round's node programs — and the
    /// round barrier's delivery — on `shards` worker threads. The execution
    /// stays bit-identical to the sequential engine (see the
    /// [module docs](self)); only wall-clock time changes.
    pub fn sharded(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy using the given work-stealing chunk size (nodes per
    /// claimable chunk; 0 is rejected by [`Network::new`]).
    pub fn chunk_size(mut self, nodes: usize) -> Self {
        self.chunk_size = nodes;
        self
    }
}

/// Runs `work` on every item, one worker per entry of `workers` (at least
/// one; each entry is that worker's state), and returns the states. The calling
/// thread is one of the workers, so one worker starts no thread and `k`
/// workers start `k − 1` scoped threads; workers beyond the item count
/// start nothing and come back untouched.
///
/// Workers claim items in ascending order off one shared queue until it
/// runs dry: a worker that drew cheap items keeps claiming while another
/// grinds through a heavy one, and each worker meets its own items in
/// ascending order. If `work` panics, the caller panics with the original
/// payload once every worker has stopped.
pub(crate) fn claim_each<I, A, F>(workers: Vec<A>, items: Vec<I>, work: F) -> Vec<A>
where
    I: Send,
    A: Send,
    F: Fn(&mut A, I) + Sync,
{
    let spawned = workers.len().min(items.len()).saturating_sub(1);
    let queue = Mutex::new(items.into_iter());
    let run = |mut acc: A| {
        loop {
            // The claim is its own statement, so the lock is released
            // before the item's work runs.
            let claimed = queue
                .lock()
                .expect("no worker panics while holding the claim queue")
                .next();
            let Some(item) = claimed else { return acc };
            work(&mut acc, item);
        }
    };
    let mut workers = workers.into_iter();
    let caller = workers
        .next()
        .expect("claim_each needs at least one worker");
    std::thread::scope(|scope| {
        let run = &run;
        let handles: Vec<_> = workers
            .by_ref()
            .take(spawned)
            .map(|acc| scope.spawn(move || run(acc)))
            .collect();
        let mut accs = Vec::with_capacity(handles.len() + 1);
        accs.push(run(caller));
        for handle in handles {
            match handle.join() {
                Ok(acc) => accs.push(acc),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        accs.extend(workers);
        accs
    })
}

/// A synchronous network executing one program instance per node.
///
/// # Examples
///
/// A two-node network where each node greets its neighbor once:
///
/// ```
/// use freelunch_graph::{MultiGraph, NodeId};
/// use freelunch_runtime::{Context, Envelope, Network, NetworkConfig, NodeProgram};
///
/// struct Greeter { greeted: bool, received: usize }
///
/// impl NodeProgram for Greeter {
///     type Message = String;
///     fn init(&mut self, ctx: &mut Context<'_, String>) {
///         ctx.broadcast(format!("hello from {}", ctx.node()));
///         self.greeted = true;
///     }
///     fn round(&mut self, ctx: &mut Context<'_, String>, inbox: &[Envelope<String>]) {
///         self.received += inbox.len();
///         ctx.halt();
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut graph = MultiGraph::new(2);
/// graph.add_edge(NodeId::new(0), NodeId::new(1))?;
/// let mut network = Network::new(&graph, NetworkConfig::default(), |_, _| Greeter {
///     greeted: false,
///     received: 0,
/// })?;
/// network.run_until_halt(10)?;
/// assert_eq!(network.cost().messages, 2);
/// assert!(network.programs().iter().all(|p| p.received == 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Network<
    P: NodeProgram,
    T: Transport<<P as NodeProgram>::Message> = InProcessTransport<<P as NodeProgram>::Message>,
> {
    /// Frozen CSR view of the communication graph: packed incidence arrays
    /// whose per-node slices double as the contexts' port tables and as
    /// every node's [`InitialKnowledge`]. The network never needs the
    /// mutable [`MultiGraph`] after construction, so this is the only copy
    /// it keeps.
    csr: CsrGraph,
    config: NetworkConfig,
    /// The `log n` upper bound every node's [`InitialKnowledge`] carries.
    log_n_upper_bound: u32,
    /// Dense raw-edge-ID → endpoints table
    /// ([`CsrGraph::endpoint_table`]): the single array read that
    /// validates a [`Context::send`].
    edge_endpoints: Vec<[u32; 2]>,
    programs: Vec<P>,
    /// Each node's keystream position in its private RNG stream (keyed by
    /// `(config.seed, node)`): all the RNG state there is between steps.
    rng_positions: Vec<u64>,
    halted: Vec<bool>,
    /// The mailbox plane: `mailboxes[v]` holds the messages delivered to
    /// `v` at the last barrier. Programs read it during the execute phase,
    /// and the next barrier clears and refills it only after every program
    /// has read. Each mailbox keeps its capacity for the whole execution.
    mailboxes: Vec<Vec<Envelope<P::Message>>>,
    /// The send grid, row-major: `grid[row * shape.columns + column]` holds
    /// what the senders of execute chunk `row` sent to the receivers of
    /// `column`, in canonical (sender, send) order. The execute phase fills
    /// it and the transport drains it; every bucket keeps its capacity,
    /// which [`Network::with_plans`] reserves once: the ports its row's
    /// senders have into its column.
    grid: Vec<Vec<Outgoing<P::Message>>>,
    /// The grid's layout, fixed when the network is built.
    shape: GridShape,
    /// One state per execute worker, kept across rounds for the scratch
    /// outbox its programs write into.
    workers: Vec<ExecuteWorker<P::Message>>,
    /// Messages each owned node put into the grid this round (its sends
    /// after the fault plan), written by the execute phase and added to
    /// the metrics at the barrier.
    sent: Vec<u64>,
    /// The delivery backend the round barrier hands the grid to.
    transport: T,
    /// The contiguous node range this engine steps locally
    /// ([`Transport::owned_range`]); the full range on single-process
    /// backends.
    owned: Range<usize>,
    /// Halted nodes outside `owned`, as reported by the transport at the
    /// last barrier (always 0 on single-process backends).
    remote_halted: usize,
    /// Number of messages sent but not yet delivered, network-wide —
    /// maintained at the barrier so [`Network::pending_messages`] is `O(1)`.
    in_flight: usize,
    metrics: ExecutionMetrics,
    ledger: MessageLedger,
    /// Installed fault plan, resolved to dense lookups. `None` on the
    /// failure-free fast path — including when the caller passed an *empty*
    /// plan, which is how "clean plan ≡ no plan" is byte-identical by
    /// construction.
    faults: Option<ResolvedFaultPlan>,
    /// Installed churn driver, holding the plan's keyed event streams and
    /// the mutable [`OverlayGraph`] view of the topology. `None` on the
    /// static fast path — including when the caller passed an *empty*
    /// plan, which is how "empty plan ≡ no plan" is byte-identical by
    /// construction.
    churn: Option<ChurnDriver>,
    /// Churn events applied at the top of the current round, in canonical
    /// order; handed to the transport at the barrier
    /// ([`RoundBarrier::churn`]) and recorded in checkpoints. Always empty
    /// without a driver.
    churn_events: Vec<ChurnEvent>,
    trace: Trace,
    round: u32,
    initialized: bool,
}

/// Which program entry point the execute phase calls.
#[derive(Clone, Copy)]
enum Phase {
    Init,
    Round,
}

/// The layout of the send grid: row `r` is the execute chunk of owned
/// nodes `owned.start + r·chunk ..`, column `c` the receivers
/// `c·width .. (c + 1)·width`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GridShape {
    /// Owned nodes per execute chunk, the unit the workers claim.
    chunk: usize,
    /// Receivers per column.
    width: usize,
    rows: usize,
    columns: usize,
}

impl GridShape {
    /// The one shape function. Execute chunks are `chunk_size` nodes, at
    /// most `⌈owned/shards⌉` so a small graph still feeds every worker.
    /// Columns are the `width` the transport states
    /// ([`Transport::column_width`]), widened only where small chunks would
    /// otherwise hold more buckets than one per owned node or the square
    /// matrix of the stated columns: tiny chunks merge columns rather than
    /// multiply bucket headers.
    fn new(
        owned: usize,
        node_count: usize,
        shards: usize,
        chunk_size: usize,
        width: usize,
    ) -> Self {
        let chunk = chunk_size.min(owned.div_ceil(shards)).max(1);
        let rows = owned.div_ceil(chunk);
        let stated = node_count.div_ceil(width.max(1));
        let budget = owned.max(stated.saturating_mul(stated));
        let columns = stated.min(budget / rows.max(1)).max(1);
        let width = width.max(node_count.div_ceil(columns)).max(1);
        GridShape {
            chunk,
            width,
            rows,
            columns: node_count.div_ceil(width),
        }
    }

    /// The empty grid over the `owned` nodes of `csr`, each bucket reserved
    /// once at its working size: the ports its row's senders have into its
    /// column, counted in one pass over the owned CSR slices. A round that
    /// sends at most one message per port (a broadcast, `LubyMis`, a pulse
    /// exchange) fills the grid without regrowing or copying a bucket; one
    /// that sends more (fault duplicates, edges a churn plan inserted) grows
    /// a bucket as `Vec::push` does.
    fn reserve<T>(&self, csr: &CsrGraph, owned: Range<usize>) -> Vec<Vec<T>> {
        let mut spans = vec![0usize; self.rows * self.columns];
        for (offset, v) in owned.enumerate() {
            let row = &mut spans[offset / self.chunk * self.columns..][..self.columns];
            for incident in csr.incident_edges(NodeId::from_usize(v)) {
                row[incident.neighbor.index() / self.width] += 1;
            }
        }
        spans.into_iter().map(Vec::with_capacity).collect()
    }
}

/// Drops and duplications one execute worker's fates produced this round,
/// charged to the ledger's fault column after the join.
#[derive(Debug, Default, Clone, Copy)]
struct FaultCounts {
    random: u64,
    link_cut: u64,
    crash: u64,
    duplicated: u64,
}

impl FaultCounts {
    /// Resolves the fate of a node's `send`-th message of `round`: link
    /// cut and receiver-crash gates first, then the keyed drop/duplicate
    /// stream. Returns how many copies to deliver (0, 1 or 2) and counts
    /// what the plan did.
    fn copies<M>(
        &mut self,
        faults: &ResolvedFaultPlan,
        round: u32,
        send: usize,
        outgoing: &Outgoing<M>,
    ) -> usize {
        if faults.link_cut_at(outgoing.edge.index(), round) {
            self.link_cut += 1;
            return 0;
        }
        // A message sent in round r is read in round r + 1; a receiver
        // crashed by then never processes it.
        if faults.crashed_at(outgoing.receiver.index(), round + 1) {
            self.crash += 1;
            return 0;
        }
        match faults.fate(round, outgoing.edge, outgoing.sender, send as u32) {
            MessageFate::Deliver => 1,
            MessageFate::Drop => {
                self.random += 1;
                0
            }
            MessageFate::Duplicate => {
                self.duplicated += 1;
                2
            }
        }
    }

    fn charge(self, ledger: &mut MessageLedger) {
        ledger.record_dropped_bulk(FaultCause::Random, self.random);
        ledger.record_dropped_bulk(FaultCause::LinkCut, self.link_cut);
        ledger.record_dropped_bulk(FaultCause::Crash, self.crash);
        ledger.record_duplicated_bulk(self.duplicated);
    }
}

/// One execute worker's state: the scratch outbox the programs it steps
/// write into (kept across rounds, so steady-state sends allocate
/// nothing), the first error it met and its fault counts.
#[derive(Debug)]
struct ExecuteWorker<M> {
    outbox: Vec<Outgoing<M>>,
    first_error: Option<(usize, RuntimeError)>,
    faults: FaultCounts,
}

impl<P: NodeProgram> Network<P> {
    /// Builds a network over `graph`, creating one program per node via
    /// `factory`.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph has no nodes, or an edge ID of
    /// `u32::MAX` or more (per-edge tables are dense up to the largest ID).
    pub fn new(
        graph: &MultiGraph,
        config: NetworkConfig,
        factory: impl FnMut(NodeId, &InitialKnowledge) -> P,
    ) -> RuntimeResult<Self> {
        Network::with_fault_plan(graph, config, FaultPlan::none(), factory)
    }

    /// Builds a network like [`Network::new`], additionally subjecting the
    /// execution to the given deterministic [`FaultPlan`].
    ///
    /// Installing the *empty* plan ([`FaultPlan::is_empty`]) is guaranteed
    /// to be byte-identical to [`Network::new`]: the engine does no fault
    /// work at all in that case. With a non-empty plan, every observable of
    /// the execution remains bit-identical across shard counts and trace
    /// modes at equal `(config.seed, plan.seed)` — see
    /// [`fault`](crate::fault) for the keyed-stream construction behind
    /// this.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph has no nodes, the shard count is zero,
    /// a plan probability is outside `[0, 1]`, or the plan references an
    /// unknown edge or node.
    pub fn with_fault_plan(
        graph: &MultiGraph,
        config: NetworkConfig,
        plan: FaultPlan,
        factory: impl FnMut(NodeId, &InitialKnowledge) -> P,
    ) -> RuntimeResult<Self> {
        Network::with_transport(graph, config, plan, InProcessTransport::new(), factory)
    }
}

impl<P: NodeProgram, T: Transport<P::Message>> Network<P, T> {
    /// Builds a network like [`Network::with_fault_plan`] on an explicit
    /// delivery backend — this is how an execution is put on the TCP or
    /// mock transport (see [`transport`](crate::transport)).
    ///
    /// The engine steps only the nodes of the transport's
    /// [`Transport::owned_range`]; programs outside it are constructed (so
    /// every rank derives identical initial knowledge) but never stepped.
    ///
    /// # Errors
    ///
    /// Returns every error [`Network::with_fault_plan`] can, plus an
    /// invalid-config error if the config demands
    /// [`TraceMode::Full`] on a backend whose
    /// [`Transport::supports_tracing`] is `false`.
    pub fn with_transport(
        graph: &MultiGraph,
        config: NetworkConfig,
        plan: FaultPlan,
        transport: T,
        factory: impl FnMut(NodeId, &InitialKnowledge) -> P,
    ) -> RuntimeResult<Self> {
        Network::with_plans(graph, config, plan, ChurnPlan::none(), transport, factory)
    }

    /// The fully general constructor: an explicit delivery backend plus
    /// *both* deterministic plans — the [`FaultPlan`] of
    /// [`Network::with_fault_plan`] and a [`ChurnPlan`]. Every other
    /// constructor delegates here with the respective empty plan, so an
    /// empty plan is byte-identical to not passing one by construction.
    ///
    /// The churn plan subjects the topology to edge inserts/deletes and
    /// node joins/leaves, applied in canonical order at the top of each
    /// round over a mutable [`OverlayGraph`] view of the frozen graph. See
    /// [`churn`](crate::churn) for the event model and `docs/CHURN.md` for
    /// the full contract. With a non-empty plan, every observable stays
    /// bit-identical across shard counts, trace modes, and transport
    /// backends at equal `(config.seed, plan.seed)`.
    ///
    /// Semantics under churn (the parts visible to programs):
    ///
    /// * [`Context::broadcast`] and [`Context::send_port`] address the
    ///   *live* incidence list (ports shift as edges come and go), while
    ///   [`Context::knowledge`], [`Context::ports`] and [`Context::degree`]
    ///   stay the construction-time snapshot — the paper's
    ///   initial-knowledge assumptions are about round 0;
    /// * messages already in flight when their edge is deleted (or their
    ///   receiver leaves) are still delivered — they were sent while the
    ///   edge existed; a departed node simply never reads its inbox;
    /// * a departed node is not stepped and counts as halted; a rejoining
    ///   node is stepped again from its retained program state.
    ///
    /// Faults and churn compose: churn is applied at the top of the round
    /// (before programs step), faults act on the messages those programs
    /// then send.
    ///
    /// # Errors
    ///
    /// Every error [`Network::with_transport`] and
    /// [`Network::with_fault_plan`] can return; an invalid-config error if
    /// `config.log_n_slack` is so large that the `log n` upper bound
    /// overflows a `u32`, if the churn plan's rates are outside `[0, 1]`,
    /// or if a scheduled churn event references a node outside the graph.
    pub fn with_plans(
        graph: &MultiGraph,
        config: NetworkConfig,
        plan: FaultPlan,
        churn_plan: ChurnPlan,
        transport: T,
        mut factory: impl FnMut(NodeId, &InitialKnowledge) -> P,
    ) -> RuntimeResult<Self> {
        if graph.node_count() == 0 {
            return Err(RuntimeError::invalid_config(
                "the communication graph has no nodes",
            ));
        }
        if config.shards == 0 || config.shards > MAX_SHARDS {
            return Err(RuntimeError::invalid_config(format!(
                "the shard count must be between 1 and {MAX_SHARDS}, got {}",
                config.shards
            )));
        }
        if config.chunk_size == 0 {
            return Err(RuntimeError::invalid_config(
                "the work-stealing chunk size must be at least 1 node",
            ));
        }
        let log_n_upper_bound =
            crate::knowledge::log_n_upper_bound(graph.node_count(), config.log_n_slack)
                .ok_or_else(|| {
                    RuntimeError::invalid_config(format!(
                        "a log_n_slack of {} overflows the u32 upper bound on log2 n",
                        config.log_n_slack
                    ))
                })?;
        if config.trace_mode == TraceMode::Full && !transport.supports_tracing() {
            return Err(RuntimeError::invalid_config(
                "this transport backend cannot record canonical-order traces \
                 (TraceMode::Full); run traced executions on the in-process backend",
            ));
        }
        let owned = transport.owned_range(graph.node_count());
        if owned.start > owned.end || owned.end > graph.node_count() {
            return Err(RuntimeError::invalid_config(format!(
                "the transport claims node range {owned:?}, which is not within the \
                 {}-node graph",
                graph.node_count()
            )));
        }
        let csr = graph.freeze();
        // Every per-edge table (endpoint table, ledger, transport tallies,
        // fault ports) is dense up to the largest edge ID, and a checkpoint
        // stores the slot count as a `u32`: check before allocating any.
        if let Some(edge) = csr.edge_ids().max() {
            if edge.raw() >= u64::from(u32::MAX) {
                return Err(RuntimeError::invalid_config(format!(
                    "edge {edge} does not fit the dense per-edge tables \
                     (edge IDs must be below {})",
                    u32::MAX
                )));
            }
        }
        let edge_slots = edge_slot_count(csr.edge_ids());
        let edge_endpoints = csr.endpoint_table();
        debug_assert_eq!(edge_endpoints.len(), edge_slots);
        let programs: Vec<P> = csr
            .nodes()
            .map(|node| {
                let knowledge =
                    InitialKnowledge::new(&csr, node, config.knowledge, log_n_upper_bound);
                factory(node, &knowledge)
            })
            .collect();
        let node_count = graph.node_count();
        let ledger = MessageLedger::new(edge_slots);
        // Validate before the emptiness shortcut: a plan with (say) a
        // negative probability must be rejected, not silently treated as
        // empty.
        plan.validate().map_err(RuntimeError::invalid_config)?;
        let faults = if plan.is_empty() {
            None
        } else {
            Some(
                ResolvedFaultPlan::resolve(plan, &edge_endpoints, node_count)
                    .map_err(RuntimeError::invalid_config)?,
            )
        };
        churn_plan
            .validate()
            .map_err(RuntimeError::invalid_config)?;
        let churn = if churn_plan.is_empty() {
            None
        } else {
            Some(ChurnDriver::new(churn_plan, &csr)?)
        };
        let shards = config.shards.min(owned.len()).max(1);
        let shape = GridShape::new(
            owned.len(),
            node_count,
            shards,
            config.chunk_size,
            transport.column_width(node_count, &config),
        );
        let grid = shape.reserve(&csr, owned.clone());
        Ok(Network {
            csr,
            config,
            log_n_upper_bound,
            edge_endpoints,
            programs,
            rng_positions: vec![0; node_count],
            halted: vec![false; node_count],
            mailboxes: (0..node_count).map(|_| Vec::new()).collect(),
            grid,
            shape,
            workers: (0..shards)
                .map(|_| ExecuteWorker {
                    outbox: Vec::new(),
                    first_error: None,
                    faults: FaultCounts::default(),
                })
                .collect(),
            sent: vec![0; node_count],
            transport,
            owned,
            remote_halted: 0,
            in_flight: 0,
            metrics: ExecutionMetrics::new(node_count),
            ledger,
            faults,
            churn,
            churn_events: Vec::new(),
            trace: Trace::with_capacity(config.trace_capacity),
            round: 0,
            initialized: false,
        })
    }

    /// The current round number (0 before the first round).
    pub fn current_round(&self) -> u32 {
        self.round
    }

    /// Returns `true` once every node has called [`Context::halt`]. On a
    /// distributed backend, nodes outside the owned range count through the
    /// halt totals the transport exchanges at each barrier.
    pub fn all_halted(&self) -> bool {
        self.halted_count() == self.programs.len()
    }

    /// Number of nodes that have halted so far (network-wide; remote nodes
    /// are counted as of the last barrier).
    pub fn halted_count(&self) -> usize {
        self.halted[self.owned.clone()]
            .iter()
            .filter(|&&h| h)
            .count()
            + self.remote_halted
    }

    /// The contiguous node range this engine steps locally — the transport's
    /// [`Transport::owned_range`]; every node on single-process backends.
    pub fn owned_nodes(&self) -> Range<usize> {
        self.owned.clone()
    }

    /// The delivery backend.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Immutable access to all node programs (indexed by node).
    pub fn programs(&self) -> &[P] {
        &self.programs
    }

    /// Consumes the network and returns the node programs (for extracting
    /// outputs).
    pub fn into_programs(self) -> Vec<P> {
        self.programs
    }

    /// Detailed execution metrics.
    pub fn metrics(&self) -> &ExecutionMetrics {
        &self.metrics
    }

    /// The message-complexity ledger: per-edge and per-round message counts
    /// and payload bytes (see `docs/METRICS.md` for the contract). Like
    /// every other observable, the ledger is bit-identical across shard
    /// counts at equal seeds.
    pub fn ledger(&self) -> &MessageLedger {
        &self.ledger
    }

    /// Round/message summary so far.
    pub fn cost(&self) -> CostReport {
        self.metrics.summary()
    }

    /// The (bounded) message trace. Empty unless the network was configured
    /// with [`TraceMode::Full`] (e.g. via [`NetworkConfig::traced`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of messages currently in flight (sent but not yet delivered).
    /// `O(1)`: the engine maintains the counter at the round barrier.
    pub fn pending_messages(&self) -> usize {
        self.in_flight
    }

    /// The installed [`FaultPlan`], if any. `None` both when no plan was
    /// installed and when an empty one was (the two are indistinguishable by
    /// design: an empty plan injects nothing).
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(ResolvedFaultPlan::plan)
    }

    /// The installed [`ChurnPlan`], if any. `None` both when no plan was
    /// installed and when an empty one was (the two are indistinguishable
    /// by design: an empty plan emits nothing).
    pub(crate) fn churn_plan(&self) -> Option<&ChurnPlan> {
        self.churn.as_ref().map(ChurnDriver::plan)
    }

    /// The live topology under churn: the [`OverlayGraph`] the installed
    /// churn driver maintains. `None` without a (non-empty) churn plan —
    /// the topology is then the frozen graph the network was built on.
    pub fn churn_overlay(&self) -> Option<&OverlayGraph> {
        self.churn.as_ref().map(ChurnDriver::overlay)
    }

    /// Returns `true` if `node` has crashed by the current round (it no
    /// longer participates; its program state is frozen at the pre-crash
    /// value). Always `false` without a fault plan.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.crashed_at(node.index(), self.round))
    }

    /// The nodes that have crashed by the current round, in ascending order.
    pub fn crashed_nodes(&self) -> Vec<NodeId> {
        match &self.faults {
            None => Vec::new(),
            Some(faults) => (0..self.programs.len())
                .filter(|&v| faults.crashed_at(v, self.round))
                .map(NodeId::from_usize)
                .collect(),
        }
    }

    /// Number of nodes that have crashed by the current round.
    pub fn crashed_count(&self) -> usize {
        match &self.faults {
            None => 0,
            Some(faults) => (0..self.programs.len())
                .filter(|&v| faults.crashed_at(v, self.round))
                .count(),
        }
    }

    /// Effective shard count: the configured value clamped to the number of
    /// locally owned nodes (a shard with no nodes would be a useless
    /// thread).
    pub(crate) fn shard_count(&self) -> usize {
        self.config.shards.min(self.owned.len()).max(1)
    }

    /// Execute phase: steps every program once (init or round) against its
    /// inbox snapshot and fills the send grid. The owned range is split into
    /// the grid's rows, chunks of [`NetworkConfig::chunk_size`] nodes at
    /// most, which the shard workers claim through [`claim_each`], so skewed
    /// per-node costs cannot leave workers idle at the barrier.
    ///
    /// A worker runs each node's program against its scratch outbox, then,
    /// while those sends are still in cache, resolves the fault plan's fate
    /// of each in send order, counts the survivors and moves them into its
    /// row's buckets by receiver column. A row is cleared when it is
    /// claimed, so a grid left full by an aborted round never leaks into the
    /// next. The workers' drop and duplicate counts are charged to the
    /// ledger's fault column after the join.
    ///
    /// An invalid send (unknown or non-incident edge) aborts the round after
    /// the join — before anything is charged, counted or delivered —
    /// reporting the canonically first error (lowest node, earliest send):
    /// each worker keeps the first error it meets, which is its lowest node
    /// because claims are ascending, and the lowest of those wins.
    fn execute_phase(&mut self, round: u32, phase: Phase) -> RuntimeResult<()> {
        let csr = &self.csr;
        let model = self.config.knowledge;
        let log_n_upper_bound = self.log_n_upper_bound;
        let edge_endpoints = &self.edge_endpoints;
        let mailboxes = &self.mailboxes;
        let faults = self.faults.as_ref();
        let message_faults = faults.filter(|faults| faults.affects_messages());
        let overlay = self.churn.as_ref().map(ChurnDriver::overlay);
        let seed = self.config.seed;

        let step = |index: usize,
                    program: &mut P,
                    rng_pos: &mut u64,
                    outbox: &mut Vec<Outgoing<P::Message>>,
                    halted: &mut bool|
         -> Option<RuntimeError> {
            let node = NodeId::from_usize(index);
            if let Some(faults) = faults {
                // A crashed node is never stepped: its program state stays
                // frozen, it sends nothing, and it counts as halted so
                // executions still terminate.
                if faults.crashed_at(index, round) {
                    *halted = true;
                    return None;
                }
            }
            // Under churn, a departed node is not stepped either — but its
            // program state is retained, so a later NodeJoin resumes it.
            if let Some(overlay) = overlay {
                if !overlay.is_active(node) {
                    *halted = true;
                    return None;
                }
            }
            // The incidence slice programs address ports against: the live
            // overlay view under churn, the frozen CSR otherwise. The
            // knowledge view always reads the frozen CSR.
            let ports: &[IncidentEdge] = match overlay {
                Some(overlay) => overlay.incident_edges(node),
                None => csr.incident_edges(node),
            };
            let mut ctx = Context::new(
                InitialKnowledge::new(csr, node, model, log_n_upper_bound),
                ports,
                edge_endpoints,
                round,
                seed,
                *rng_pos,
                outbox,
            );
            match phase {
                Phase::Init => program.init(&mut ctx),
                Phase::Round => program.round(&mut ctx, &mailboxes[index]),
            }
            *rng_pos = ctx.rng_position();
            if ctx.halted {
                *halted = true;
            }
            ctx.error.take()
        };

        let owned = self.owned.clone();
        let GridShape {
            chunk,
            width,
            columns,
            ..
        } = self.shape;
        let chunks: Vec<_> = self.programs[owned.clone()]
            .chunks_mut(chunk)
            .zip(self.rng_positions[owned.clone()].chunks_mut(chunk))
            .zip(self.halted[owned.clone()].chunks_mut(chunk))
            .zip(self.sent[owned.clone()].chunks_mut(chunk))
            .zip(self.grid.chunks_mut(columns))
            .enumerate()
            .collect();
        let workers = claim_each(
            std::mem::take(&mut self.workers),
            chunks,
            |worker: &mut ExecuteWorker<P::Message>,
             (slot, ((((programs, rng_positions), halted), sent), row))| {
                for bucket in row.iter_mut() {
                    bucket.clear();
                }
                let base = owned.start + slot * chunk;
                for (offset, (((program, rng_pos), halted), sent)) in programs
                    .iter_mut()
                    .zip(rng_positions)
                    .zip(halted)
                    .zip(sent)
                    .enumerate()
                {
                    let index = base + offset;
                    let error = step(index, program, rng_pos, &mut worker.outbox, halted);
                    if worker.first_error.is_none() {
                        worker.first_error = error.map(|error| (index, error));
                    }
                    let mut placed = 0;
                    for (send, outgoing) in worker.outbox.drain(..).enumerate() {
                        let copies = message_faults.map_or(1, |faults| {
                            worker.faults.copies(faults, round, send, &outgoing)
                        });
                        if copies == 0 {
                            continue;
                        }
                        let bucket = &mut row[outgoing.receiver.index() / width];
                        if copies == 2 {
                            // A duplicate sits next to its original.
                            bucket.push(outgoing.clone());
                        }
                        bucket.push(outgoing);
                        placed += copies as u64;
                    }
                    *sent = placed;
                }
            },
        );
        self.workers = workers;
        let first_error = self
            .workers
            .iter_mut()
            .filter_map(|worker| worker.first_error.take())
            .min_by_key(|&(index, _)| index);
        for worker in &mut self.workers {
            let faults = std::mem::take(&mut worker.faults);
            if first_error.is_none() {
                faults.charge(&mut self.ledger);
            }
        }
        match first_error {
            Some((_, error)) => Err(error),
            None => Ok(()),
        }
    }

    /// Dispatch phase: the round barrier. Counts every node's grid messages
    /// into the metrics (sender-side, canonical node order), then hands the
    /// grid to the [`Transport`] to drain into the cleared mailbox plane,
    /// and finally applies the plan's delivery perturbation. All sends were
    /// validated at send time, so on the in-process backend this phase
    /// cannot fail; wire backends can surface transport errors.
    fn dispatch_phase(&mut self, round: u32) -> RuntimeResult<()> {
        let mut round_total = 0u64;
        for (index, &count) in self.sent.iter().enumerate() {
            if count > 0 {
                self.metrics.record_sends(index, count);
            }
            round_total += count;
        }

        let traced = self.config.trace_mode == TraceMode::Full;
        let outcome = self.transport.deliver(RoundBarrier {
            round,
            shards: self.shard_count(),
            traced,
            local_sent: round_total,
            payload_bytes: P::payload_bytes,
            halted: &self.halted,
            grid: &mut self.grid,
            column_width: self.shape.width,
            mailboxes: &mut self.mailboxes,
            metrics: &mut self.metrics,
            ledger: &mut self.ledger,
            trace: &mut self.trace,
            churn: &self.churn_events,
        })?;
        self.in_flight = outcome.delivered as usize;
        self.remote_halted = outcome.remote_halted;
        self.perturb_deliveries(round);
        Ok(())
    }

    /// Applies the plan's seeded delivery permutation to every freshly
    /// filled mailbox. The mailboxes are in canonical order at this point
    /// whatever the shard count or trace mode, and the permutation is keyed
    /// by `(plan seed, round, receiver)` alone — so perturbed executions
    /// stay bit-identical across shard counts, and the trace (recorded
    /// before this step) keeps its canonical send order.
    fn perturb_deliveries(&mut self, round: u32) {
        let Some(faults) = &self.faults else { return };
        if !faults.perturbs() {
            return;
        }
        for (receiver, mailbox) in self.mailboxes.iter_mut().enumerate() {
            faults
                .plan()
                .perturb_mailbox(round, NodeId::from_usize(receiver), mailbox);
        }
    }

    /// Churn pass of the round: draws and applies this round's events from
    /// the installed plan (a no-op without one) and updates the engine's
    /// dense edge tables and halted flags. Runs at the top of the round, *before* the execute phase, so programs already see
    /// the updated topology; messages sent in the previous round are still
    /// delivered this round even if their edge just vanished (they were in
    /// flight at the barrier).
    fn apply_churn(&mut self, round: u32) -> RuntimeResult<()> {
        self.churn_events.clear();
        let Some(churn) = &mut self.churn else {
            return Ok(());
        };
        let events = churn.apply_round(round)?;
        for &event in &events {
            match event {
                ChurnEvent::EdgeInsert { edge, u, v } => {
                    let slot = edge.index();
                    if slot >= self.edge_endpoints.len() {
                        self.edge_endpoints
                            .resize(slot + 1, [CsrGraph::NO_ENDPOINT; 2]);
                    }
                    self.edge_endpoints[slot] = [u.raw(), v.raw()];
                    // The ledger gains a counter for the new edge; existing
                    // counters (and history) are untouched.
                    self.ledger.ensure_edge_slots(slot + 1);
                }
                ChurnEvent::EdgeDelete { edge } => {
                    // A deleted edge becomes unknown to `Context::send`;
                    // its ledger counters keep their history.
                    self.edge_endpoints[edge.index()] = [CsrGraph::NO_ENDPOINT; 2];
                }
                ChurnEvent::NodeLeave { node } => {
                    // Departed nodes count as halted so executions still
                    // terminate (mirrors crashed nodes).
                    self.halted[node.index()] = true;
                }
                ChurnEvent::NodeJoin { node } => {
                    self.halted[node.index()] = false;
                }
            }
        }
        self.churn_events = events;
        Ok(())
    }

    /// Runs the initialization phase (safe to call multiple times; only the
    /// first call has an effect). Messages sent during initialization are
    /// delivered in round 1 and counted in the round-0 slot of the metrics.
    ///
    /// # Errors
    ///
    /// Returns an error if a program sends over a non-incident or unknown
    /// edge.
    pub fn initialize(&mut self) -> RuntimeResult<()> {
        if self.initialized {
            return Ok(());
        }
        self.apply_churn(0)?;
        self.execute_phase(0, Phase::Init)?;
        self.dispatch_phase(0)?;
        self.initialized = true;
        Ok(())
    }

    /// Executes one synchronous round: delivers every pending message and
    /// calls each node's [`NodeProgram::round`].
    ///
    /// # Errors
    ///
    /// Returns an error if a program sends over a non-incident or unknown
    /// edge.
    pub fn run_round(&mut self) -> RuntimeResult<()> {
        self.initialize()?;
        self.round += 1;
        self.metrics.start_round();
        self.ledger.start_round();
        // This round reads what the last barrier delivered; the dispatch
        // phase clears and refills the plane (capacity kept) afterwards.
        self.in_flight = 0;
        let round = self.round;
        let stepped = self
            .apply_churn(round)
            .and_then(|()| self.execute_phase(round, Phase::Round));
        if let Err(error) = stepped {
            // The barrier never runs, so the plane still holds this round's
            // (already delivered) envelopes. Drop them: a caller that
            // continues past the error must not see them delivered again.
            for mailbox in &mut self.mailboxes {
                mailbox.clear();
            }
            return Err(error);
        }
        self.dispatch_phase(round)
    }

    /// Runs exactly `rounds` synchronous rounds.
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Network::run_round`].
    pub fn run_rounds(&mut self, rounds: u32) -> RuntimeResult<()> {
        for _ in 0..rounds {
            self.run_round()?;
        }
        Ok(())
    }

    /// Runs rounds until every node has halted, up to `budget` rounds.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RoundBudgetExceeded`] if some node is still
    /// running after `budget` rounds, or any error from
    /// [`Network::run_round`].
    pub fn run_until_halt(&mut self, budget: u32) -> RuntimeResult<()> {
        self.initialize()?;
        let mut executed = 0;
        while !self.all_halted() {
            if executed >= budget {
                return Err(RuntimeError::RoundBudgetExceeded { budget });
            }
            self.run_round()?;
            executed += 1;
        }
        Ok(())
    }
}

impl<P: NodeProgram, T: Transport<P::Message>> Network<P, T>
where
    P::Message: WireCodec,
{
    /// Captures a [`NetworkCheckpoint`] of the execution at the current
    /// round boundary (call it between [`Network::run_round`] calls, never
    /// mid-round — the engine offers no mid-round entry point anyway).
    ///
    /// Restoring the checkpoint into a fresh network over the same graph,
    /// plans, and a factory producing the same programs resumes the
    /// execution **bit-identical** to never having stopped: outputs,
    /// metrics, ledger, and remaining trace all match the uninterrupted run
    /// (`tests/recovery_matrix.rs` pins this across shard counts, backends,
    /// and composed fault+churn plans). Programs that carry cross-round
    /// state must implement [`NodeProgram::save_state`] /
    /// [`NodeProgram::load_state`] for the guarantee to hold. See
    /// `docs/RECOVERY.md` for the full contract and the file format.
    ///
    /// On a distributed backend the checkpoint describes this rank: only
    /// the owned range's program and RNG state is meaningful, and a rank
    /// restores its *own* checkpoint (cross-rank restore is out of scope).
    pub fn checkpoint(&self) -> NetworkCheckpoint {
        let fault_totals = self.ledger.fault_totals();
        let mut program_states = Vec::with_capacity(self.programs.len());
        for program in &self.programs {
            let mut state = Vec::new();
            program.save_state(&mut state);
            program_states.push(state);
        }
        let mut pending = Vec::with_capacity(self.mailboxes.len());
        for mailbox in &self.mailboxes {
            let mut envelopes = Vec::with_capacity(mailbox.len());
            for envelope in mailbox {
                let mut payload = Vec::new();
                envelope.payload.encode(&mut payload);
                envelopes.push(PendingEnvelope {
                    edge: envelope.edge.raw(),
                    from: envelope.from.raw(),
                    payload,
                });
            }
            pending.push(envelopes);
        }
        NetworkCheckpoint {
            config: self.config,
            round: self.round,
            initialized: self.initialized,
            in_flight: self.in_flight as u64,
            remote_halted: self.remote_halted as u64,
            node_count: self.programs.len() as u32,
            edge_slots: self.ledger.edge_slots() as u32,
            graph_digest: graph_fingerprint(self.programs.len(), &self.csr.endpoint_table()),
            fault_digest: debug_digest(&self.fault_plan()),
            churn_digest: debug_digest(&self.churn_plan()),
            halted: self.halted.clone(),
            rng_positions: self.rng_positions.clone(),
            program_states,
            pending,
            churn_events: self.churn_events.clone(),
            metrics_messages_per_round: self.metrics.messages_per_round.clone(),
            metrics_messages_per_node: self.metrics.messages_per_node.clone(),
            ledger_messages_per_edge: self.ledger.messages_per_edge().to_vec(),
            ledger_bytes_per_edge: self.ledger.bytes_per_edge().to_vec(),
            ledger_messages_per_round: self.ledger.messages_per_round().to_vec(),
            ledger_bytes_per_round: self.ledger.bytes_per_round().to_vec(),
            ledger_max_edge_messages_per_round: self.ledger.max_edge_messages_per_round().to_vec(),
            ledger_dropped_per_round: self.ledger.dropped_per_round().to_vec(),
            ledger_duplicated_per_round: self.ledger.duplicated_per_round().to_vec(),
            ledger_dropped_random: fault_totals.dropped_random,
            ledger_dropped_link_cut: fault_totals.dropped_link_cut,
            ledger_dropped_crash: fault_totals.dropped_crash,
            trace_capacity: self.trace.capacity() as u64,
            trace_dropped: self.trace.dropped(),
            trace_events: self.trace.events().to_vec(),
        }
    }

    /// Rebuilds a network from `checkpoint`, resuming the execution at the
    /// captured round boundary. It mirrors [`Network::with_plans`]: the
    /// caller re-supplies the graph, both plans (the empty ones for a
    /// network built with [`Network::new`]), the transport, and a factory
    /// producing the same programs as the original run (the factory runs
    /// first, then [`NodeProgram::load_state`] overwrites each program's
    /// state).
    ///
    /// The supplied graph and plans are validated against the checkpoint's
    /// fingerprints, and the churn history is *replayed* (rounds `0..=r`)
    /// rather than deserialized — both planes are keyed streams, so the
    /// replay is exact and doubles as an integrity check: the replayed
    /// events of the capture round must equal the recorded ones.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Checkpoint`] if the graph, fault plan, or churn plan
    /// differs from what the checkpoint was taken under, a section has the
    /// wrong shape, a program or pending payload fails to decode, a pending
    /// message names an edge beyond the replayed graph's edge slots, or the
    /// churn replay diverges — plus every error [`Network::with_plans`] can
    /// return for the checkpoint's config.
    pub fn restore_with_plans(
        graph: &MultiGraph,
        plan: FaultPlan,
        churn_plan: ChurnPlan,
        transport: T,
        checkpoint: &NetworkCheckpoint,
        factory: impl FnMut(NodeId, &InitialKnowledge) -> P,
    ) -> RuntimeResult<Self> {
        let mut network = Network::with_plans(
            graph,
            checkpoint.config,
            plan,
            churn_plan,
            transport,
            factory,
        )?;
        let node_count = network.programs.len();
        if checkpoint.node_count as usize != node_count {
            return Err(RuntimeError::checkpoint(format!(
                "checkpoint was taken on a {}-node graph, the supplied graph has {} node(s)",
                checkpoint.node_count, node_count
            )));
        }
        let graph_digest = graph_fingerprint(node_count, &network.csr.endpoint_table());
        if graph_digest != checkpoint.graph_digest {
            return Err(RuntimeError::checkpoint(format!(
                "the supplied graph (fingerprint {graph_digest:#018x}) is not the graph the \
                 checkpoint was taken on (fingerprint {:#018x})",
                checkpoint.graph_digest
            )));
        }
        let fault_digest = debug_digest(&network.fault_plan());
        if fault_digest != checkpoint.fault_digest {
            return Err(RuntimeError::checkpoint(format!(
                "the supplied fault plan (digest {fault_digest:#018x}) is not the plan the \
                 checkpoint was taken under (digest {:#018x})",
                checkpoint.fault_digest
            )));
        }
        let churn_digest = debug_digest(&network.churn_plan());
        if churn_digest != checkpoint.churn_digest {
            return Err(RuntimeError::checkpoint(format!(
                "the supplied churn plan (digest {churn_digest:#018x}) is not the plan the \
                 checkpoint was taken under (digest {:#018x})",
                checkpoint.churn_digest
            )));
        }
        let shape = |name: &str, got: usize, want: usize| -> RuntimeResult<()> {
            if got == want {
                Ok(())
            } else {
                Err(RuntimeError::checkpoint(format!(
                    "checkpoint section {name} has {got} entr(ies), expected {want}"
                )))
            }
        };
        shape("halted", checkpoint.halted.len(), node_count)?;
        shape("rng_positions", checkpoint.rng_positions.len(), node_count)?;
        shape(
            "program_states",
            checkpoint.program_states.len(),
            node_count,
        )?;
        shape("pending", checkpoint.pending.len(), node_count)?;
        shape(
            "metrics.messages_per_node",
            checkpoint.metrics_messages_per_node.len(),
            node_count,
        )?;
        if !checkpoint.initialized {
            if checkpoint.round != 0 {
                return Err(RuntimeError::checkpoint(format!(
                    "an uninitialized checkpoint cannot be at round {}",
                    checkpoint.round
                )));
            }
            if !checkpoint.churn_events.is_empty() {
                return Err(RuntimeError::checkpoint(
                    "an uninitialized checkpoint cannot carry churn events",
                ));
            }
        }
        let expected_rounds = checkpoint.round as usize + 1;
        shape(
            "metrics.messages_per_round",
            checkpoint.metrics_messages_per_round.len(),
            expected_rounds,
        )?;
        shape(
            "ledger.messages_per_round",
            checkpoint.ledger_messages_per_round.len(),
            expected_rounds,
        )?;
        shape(
            "ledger.bytes_per_round",
            checkpoint.ledger_bytes_per_round.len(),
            expected_rounds,
        )?;
        shape(
            "ledger.max_edge_messages_per_round",
            checkpoint.ledger_max_edge_messages_per_round.len(),
            expected_rounds,
        )?;
        shape(
            "ledger.dropped_per_round",
            checkpoint.ledger_dropped_per_round.len(),
            expected_rounds,
        )?;
        shape(
            "ledger.duplicated_per_round",
            checkpoint.ledger_duplicated_per_round.len(),
            expected_rounds,
        )?;
        shape(
            "ledger.messages_per_edge",
            checkpoint.ledger_messages_per_edge.len(),
            checkpoint.edge_slots as usize,
        )?;
        shape(
            "ledger.bytes_per_edge",
            checkpoint.ledger_bytes_per_edge.len(),
            checkpoint.edge_slots as usize,
        )?;
        // Replay the churn history: the plan is a keyed stream, so applying
        // rounds 0..=r reproduces the capture-time topology (growing the
        // ledger's edge slots on the way) — and the capture round's events
        // double as a divergence check.
        if checkpoint.initialized {
            for round in 0..=checkpoint.round {
                network.apply_churn(round)?;
            }
            if network.churn_events != checkpoint.churn_events {
                return Err(RuntimeError::checkpoint(format!(
                    "churn replay diverged at round {}: the supplied plan produced {:?}, the \
                     checkpoint recorded {:?}",
                    checkpoint.round, network.churn_events, checkpoint.churn_events
                )));
            }
        }
        if network.ledger.edge_slots() != checkpoint.edge_slots as usize {
            return Err(RuntimeError::checkpoint(format!(
                "after churn replay the ledger has {} edge slot(s), the checkpoint was taken \
                 with {}",
                network.ledger.edge_slots(),
                checkpoint.edge_slots
            )));
        }
        network.round = checkpoint.round;
        network.initialized = checkpoint.initialized;
        network.in_flight = checkpoint.in_flight as usize;
        network.remote_halted = checkpoint.remote_halted as usize;
        network.halted.copy_from_slice(&checkpoint.halted);
        network
            .rng_positions
            .copy_from_slice(&checkpoint.rng_positions);
        for (index, state) in checkpoint.program_states.iter().enumerate() {
            network.programs[index].load_state(state).map_err(|e| {
                RuntimeError::checkpoint(format!(
                    "program state of node {index} failed to load: {e}"
                ))
            })?;
        }
        for (index, mailbox) in checkpoint.pending.iter().enumerate() {
            let target = &mut network.mailboxes[index];
            target.clear();
            target.reserve(mailbox.len());
            for (slot, envelope) in mailbox.iter().enumerate() {
                // Bound the edge by the replayed endpoint table; incidence
                // is not required, because an envelope over an edge deleted
                // in the capture round is still delivered.
                if envelope.edge >= network.edge_endpoints.len() as u64 {
                    return Err(RuntimeError::checkpoint(format!(
                        "pending message {slot} of node {index} is on edge {}, beyond the \
                         graph's {} edge slot(s)",
                        envelope.edge,
                        network.edge_endpoints.len()
                    )));
                }
                let payload =
                    <P::Message as WireCodec>::decode(&envelope.payload).map_err(|e| {
                        RuntimeError::checkpoint(format!(
                            "pending message {slot} of node {index} failed to decode: {e}"
                        ))
                    })?;
                target.push(Envelope {
                    edge: EdgeId::new(envelope.edge),
                    from: NodeId::new(envelope.from),
                    payload,
                });
            }
        }
        network.metrics = ExecutionMetrics {
            messages_per_round: checkpoint.metrics_messages_per_round.clone(),
            messages_per_node: checkpoint.metrics_messages_per_node.clone(),
        };
        network.ledger = MessageLedger::from_checkpoint_parts(
            checkpoint.ledger_messages_per_edge.clone(),
            checkpoint.ledger_bytes_per_edge.clone(),
            checkpoint.ledger_messages_per_round.clone(),
            checkpoint.ledger_bytes_per_round.clone(),
            checkpoint.ledger_max_edge_messages_per_round.clone(),
            checkpoint.ledger_dropped_per_round.clone(),
            checkpoint.ledger_duplicated_per_round.clone(),
            checkpoint.ledger_dropped_random,
            checkpoint.ledger_dropped_link_cut,
            checkpoint.ledger_dropped_crash,
        );
        network.trace = Trace::from_checkpoint_parts(
            checkpoint.trace_events.clone(),
            checkpoint.trace_capacity as usize,
            checkpoint.trace_dropped,
        );
        Ok(network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::node_seed;
    use freelunch_graph::generators::{cycle_graph, GeneratorConfig};
    use freelunch_graph::EdgeId;

    /// Floods a token: node 0 starts with it, everyone forwards it the round
    /// after first hearing it, then halts.
    struct Flood {
        has_token: bool,
        forwarded: bool,
        heard_in_round: Option<u32>,
    }

    impl Flood {
        fn new(node: NodeId) -> Self {
            Flood {
                has_token: node == NodeId::new(0),
                forwarded: false,
                heard_in_round: None,
            }
        }
    }

    impl NodeProgram for Flood {
        type Message = ();

        fn init(&mut self, ctx: &mut Context<'_, ()>) {
            if self.has_token {
                self.heard_in_round = Some(0);
                ctx.broadcast(());
                self.forwarded = true;
            }
        }

        fn round(&mut self, ctx: &mut Context<'_, ()>, inbox: &[Envelope<()>]) {
            if !inbox.is_empty() && self.heard_in_round.is_none() {
                self.heard_in_round = Some(ctx.round());
                self.has_token = true;
            }
            if self.has_token && !self.forwarded {
                ctx.broadcast(());
                self.forwarded = true;
            }
            if self.has_token {
                ctx.halt();
            }
        }
    }

    fn cycle(n: usize) -> MultiGraph {
        cycle_graph(&GeneratorConfig::new(n, 0)).unwrap()
    }

    #[test]
    fn flooding_reaches_every_node_in_diameter_rounds() {
        let graph = cycle(8);
        let mut network = Network::new(&graph, NetworkConfig::with_seed(1), |node, _| {
            Flood::new(node)
        })
        .unwrap();
        network.run_until_halt(20).unwrap();
        assert!(network.all_halted());
        // On a cycle of 8 the farthest node hears the token in round 4.
        let max_heard = network
            .programs()
            .iter()
            .map(|p| p.heard_in_round.expect("every node heard the token"))
            .max()
            .unwrap();
        assert_eq!(max_heard, 4);
        // Every node broadcasts exactly once: 8 nodes × degree 2.
        assert_eq!(network.cost().messages, 16);
        assert!(network.cost().rounds >= 4);
    }

    #[test]
    fn run_rounds_counts_rounds_exactly() {
        let graph = cycle(5);
        let mut network =
            Network::new(&graph, NetworkConfig::default(), |node, _| Flood::new(node)).unwrap();
        network.run_rounds(3).unwrap();
        assert_eq!(network.current_round(), 3);
        assert_eq!(network.cost().rounds, 3);
    }

    #[test]
    fn budget_exceeded_reported() {
        /// A program that never halts.
        struct Busy;
        impl NodeProgram for Busy {
            type Message = ();
            fn round(&mut self, _ctx: &mut Context<'_, ()>, _inbox: &[Envelope<()>]) {}
        }
        let graph = cycle(4);
        let mut network = Network::new(&graph, NetworkConfig::default(), |_, _| Busy).unwrap();
        assert_eq!(
            network.run_until_halt(3),
            Err(RuntimeError::RoundBudgetExceeded { budget: 3 })
        );
    }

    #[test]
    fn sending_over_foreign_edge_is_rejected() {
        /// Sends over an edge that is not incident to it.
        struct Rogue;
        impl NodeProgram for Rogue {
            type Message = ();
            fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: &[Envelope<()>]) {
                if ctx.node() == NodeId::new(0) {
                    // Edge 1 of the cycle connects nodes 1 and 2.
                    ctx.send(EdgeId::new(1), ());
                }
            }
        }
        let graph = cycle(4);
        let mut network = Network::new(&graph, NetworkConfig::default(), |_, _| Rogue).unwrap();
        let err = network.run_round().unwrap_err();
        assert_eq!(
            err,
            RuntimeError::NotIncident {
                node: NodeId::new(0),
                edge: EdgeId::new(1)
            }
        );
    }

    #[test]
    fn sending_over_unknown_edge_is_rejected() {
        struct Rogue;
        impl NodeProgram for Rogue {
            type Message = ();
            fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: &[Envelope<()>]) {
                ctx.send(EdgeId::new(999), ());
            }
        }
        let graph = cycle(4);
        let mut network = Network::new(&graph, NetworkConfig::default(), |_, _| Rogue).unwrap();
        let err = network.run_round().unwrap_err();
        assert_eq!(
            err,
            RuntimeError::UnknownEdge {
                edge: EdgeId::new(999)
            }
        );
    }

    #[test]
    fn invalid_send_aborts_before_any_delivery_and_network_stays_usable() {
        /// Node 0 sends a valid message and then an invalid one — but only
        /// in round 1, and only when `rogue`, so the network can prove it
        /// survives the abort.
        struct HalfRogue {
            rogue: bool,
            received: usize,
        }
        impl NodeProgram for HalfRogue {
            type Message = ();
            fn round(&mut self, ctx: &mut Context<'_, ()>, inbox: &[Envelope<()>]) {
                self.received += inbox.len();
                if self.rogue && ctx.round() == 1 && ctx.node() == NodeId::new(0) {
                    ctx.send_port(0, ());
                    ctx.send(EdgeId::new(999), ());
                }
                if ctx.round() == 3 {
                    ctx.broadcast(());
                }
            }
        }
        // The second plan draws drops and duplicates and cuts the edge
        // node 0's valid round-1 send travels over: none of it may be
        // charged for the aborted round.
        let plans = [
            FaultPlan::none(),
            FaultPlan::new(11)
                .with_drop_probability(0.3)
                .with_duplicate_probability(0.3)
                .with_link_cut(EdgeId::new(0), 1),
        ];
        for plan in plans {
            // Parallel dispatch coverage: the abort must hold on the
            // receiver-sharded barrier too, not just serially.
            for shards in [1usize, 2, 8] {
                let graph = cycle(8);
                let config = NetworkConfig::default().sharded(shards);
                let build = |rogue: bool| {
                    Network::with_fault_plan(&graph, config, plan.clone(), move |_, _| HalfRogue {
                        rogue,
                        received: 0,
                    })
                    .unwrap()
                };
                let mut network = build(true);
                assert!(network.run_round().is_err(), "at {shards} shards");
                // The round aborted: nothing was delivered, counted or
                // charged, not even the valid send that preceded the
                // invalid one, nor its fault fate.
                assert_eq!(network.pending_messages(), 0, "at {shards} shards");
                assert_eq!(network.cost().messages, 0, "at {shards} shards");
                assert_eq!(network.metrics().total_messages(), 0, "at {shards} shards");
                assert_eq!(
                    network.ledger().fault_totals(),
                    crate::metrics::FaultTotals::default(),
                    "at {shards} shards"
                );
                // The network is reusable: later rounds behave exactly as
                // if round 1 had been silent.
                network.run_rounds(3).unwrap(); // rounds 2-4
                let mut silent = build(false);
                silent.run_rounds(4).unwrap();
                assert_eq!(network.ledger(), silent.ledger(), "at {shards} shards");
                assert_eq!(network.metrics(), silent.metrics(), "at {shards} shards");
                assert_eq!(network.pending_messages(), 0, "at {shards} shards");
                let received = |network: &Network<HalfRogue>| -> usize {
                    network.programs().iter().map(|p| p.received).sum()
                };
                assert_eq!(received(&network), received(&silent), "at {shards} shards");
                if network.fault_plan().is_none() {
                    // Exactly the round-3 broadcasts arrived (in round 4).
                    assert_eq!(network.cost().messages, 16, "at {shards} shards");
                    assert_eq!(received(&network), 16, "at {shards} shards");
                } else {
                    // The cut alone drops the round-3 sends over edge 0.
                    assert!(network.ledger().fault_totals().dropped_link_cut >= 2);
                }
            }
        }
    }

    #[test]
    fn aborted_round_does_not_redeliver_stale_messages() {
        /// Everyone broadcasts in round 1; node 0 additionally sends over an
        /// unknown edge in round 2, aborting that round. A program records
        /// how many messages it saw each round.
        struct FlakyRogue {
            seen: Vec<usize>,
        }
        impl NodeProgram for FlakyRogue {
            type Message = ();
            fn round(&mut self, ctx: &mut Context<'_, ()>, inbox: &[Envelope<()>]) {
                self.seen.push(inbox.len());
                if ctx.round() == 1 {
                    ctx.broadcast(());
                }
                if ctx.round() == 2 && ctx.node() == NodeId::new(0) {
                    ctx.send(EdgeId::new(999), ());
                }
            }
        }
        // Shards 2 and 8 route the back buffer through the parallel
        // barrier, pinning the back-buffer clearing on that path as well.
        for shards in [1, 2, 8] {
            let graph = cycle(12);
            let config = NetworkConfig::default().sharded(shards);
            let mut network =
                Network::new(&graph, config, |_, _| FlakyRogue { seen: Vec::new() }).unwrap();
            network.run_round().unwrap(); // round 1: everyone broadcasts
            assert!(network.run_round().is_err()); // round 2 aborts
            network.run_round().unwrap(); // round 3 continues past the error
            for program in network.programs() {
                // Round 1 empty, round 2 delivers the broadcasts, round 3
                // must NOT re-deliver them (the aborted round's back buffer
                // held them as stale two-round-old envelopes).
                assert_eq!(program.seen, vec![0, 2, 0], "at {shards} shards");
            }
        }
    }

    #[test]
    fn empty_graph_is_rejected() {
        struct Noop;
        impl NodeProgram for Noop {
            type Message = ();
            fn round(&mut self, _ctx: &mut Context<'_, ()>, _inbox: &[Envelope<()>]) {}
        }
        let graph = MultiGraph::new(0);
        assert!(Network::new(&graph, NetworkConfig::default(), |_, _| Noop).is_err());
    }

    #[test]
    fn trace_records_message_events() {
        let graph = cycle(4);
        let config = NetworkConfig::with_seed(3).traced(100);
        let mut network = Network::new(&graph, config, |node, _| Flood::new(node)).unwrap();
        network.run_until_halt(10).unwrap();
        assert_eq!(network.trace().total(), network.cost().messages);
        assert!(network.trace().events().iter().any(|e| e.round == 0));
    }

    #[test]
    fn trace_is_off_by_default_but_counts_stay_exact() {
        let graph = cycle(4);
        assert_eq!(NetworkConfig::default().trace_mode, TraceMode::Off);
        let mut network = Network::new(&graph, NetworkConfig::with_seed(3), |node, _| {
            Flood::new(node)
        })
        .unwrap();
        network.run_until_halt(10).unwrap();
        assert_eq!(network.trace().total(), 0);
        assert_eq!(network.cost().messages, 8);
        assert_eq!(network.ledger().total_messages(), 8);
    }

    #[test]
    fn identical_seeds_give_identical_executions() {
        use rand::Rng;

        /// Each node draws a random number and broadcasts it once.
        struct RandomOnce {
            drawn: Option<u64>,
            received: Vec<u64>,
        }
        impl NodeProgram for RandomOnce {
            type Message = u64;
            fn init(&mut self, ctx: &mut Context<'_, u64>) {
                let value = ctx.rng().gen();
                self.drawn = Some(value);
                ctx.broadcast(value);
            }
            fn round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[Envelope<u64>]) {
                self.received.extend(inbox.iter().map(|e| e.payload));
                ctx.halt();
            }
        }

        let graph = cycle(6);
        let run = |seed: u64| {
            let mut network =
                Network::new(&graph, NetworkConfig::with_seed(seed), |_, _| RandomOnce {
                    drawn: None,
                    received: Vec::new(),
                })
                .unwrap();
            network.run_until_halt(5).unwrap();
            network
                .into_programs()
                .into_iter()
                .map(|p| (p.drawn, p.received))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn per_node_streams_are_independent() {
        // Different nodes with the same network seed draw different values.
        assert_ne!(node_seed(7, 0), node_seed(7, 1));
        assert_ne!(node_seed(7, 1), node_seed(8, 1));
    }

    /// Words each step of a [`Drawer`] draws, by round (initialization
    /// first): successive steps start mid-block and cross 16-word blocks.
    const DRAWS: [usize; 5] = [0, 1, 3, 16, 17];

    /// Logs the words it draws from its stream, [`DRAWS`] per step; halts
    /// after the last.
    struct Drawer {
        words: Vec<u32>,
    }

    impl Drawer {
        fn draw(&mut self, ctx: &mut Context<'_, u64>) {
            use rand::RngCore;
            for _ in 0..DRAWS[ctx.round() as usize] {
                self.words.push(ctx.rng().next_u32());
            }
        }
    }

    impl NodeProgram for Drawer {
        type Message = u64;
        fn init(&mut self, ctx: &mut Context<'_, u64>) {
            self.draw(ctx);
        }
        fn round(&mut self, ctx: &mut Context<'_, u64>, _inbox: &[Envelope<u64>]) {
            self.draw(ctx);
            if ctx.round() as usize == DRAWS.len() - 1 {
                ctx.halt();
            }
        }
    }

    #[test]
    fn node_streams_continue_across_steps_and_checkpoints() {
        use rand::{RngCore, SeedableRng};
        let graph = cycle(10);
        let seed = 31;
        // Node `v`'s words from one generator drawn consecutively, after
        // the first `skip`.
        let reference = |v: usize, skip: usize| -> Vec<u32> {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(node_seed(seed, v));
            let total: usize = DRAWS.iter().sum();
            (0..total).map(|_| rng.next_u32()).skip(skip).collect()
        };
        let drawer = |_: NodeId, _: &InitialKnowledge| Drawer { words: Vec::new() };
        for shards in [1, 2, 8] {
            let config = NetworkConfig::with_seed(seed).sharded(shards).chunk_size(3);
            let mut network = Network::new(&graph, config, drawer).unwrap();
            network.run_until_halt(DRAWS.len() as u32).unwrap();
            for (v, program) in network.programs().iter().enumerate() {
                assert_eq!(program.words, reference(v, 0), "node {v}, {shards} shards");
            }
            // After round 2 every stream stands 4 words into its first
            // block; the checkpoint carries the positions through its byte
            // form, and the restored run draws the rest of the stream.
            let mut network = Network::new(&graph, config, drawer).unwrap();
            network.run_rounds(2).unwrap();
            assert!(network.rng_positions.iter().all(|&pos| pos == 4));
            let bytes = network.checkpoint().to_bytes();
            let checkpoint = NetworkCheckpoint::from_bytes(&bytes).unwrap();
            let mut restored = Network::restore_with_plans(
                &graph,
                FaultPlan::none(),
                ChurnPlan::none(),
                InProcessTransport::new(),
                &checkpoint,
                drawer,
            )
            .unwrap();
            restored.run_until_halt(DRAWS.len() as u32).unwrap();
            for (v, program) in restored.programs().iter().enumerate() {
                assert_eq!(
                    program.words,
                    reference(v, 4),
                    "node {v} after restore, {shards} shards"
                );
            }
        }
    }

    /// Every node draws random values each round and gossips them; the
    /// drawn values, message pattern and halting round all depend on the
    /// per-node RNG streams, making this a sharp determinism probe.
    struct NoisyGossip {
        sum: u64,
    }

    impl NodeProgram for NoisyGossip {
        type Message = u64;
        fn init(&mut self, ctx: &mut Context<'_, u64>) {
            use rand::Rng;
            let value: u64 = ctx.rng().gen();
            self.sum = value;
            ctx.broadcast(value);
        }
        fn round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[Envelope<u64>]) {
            use rand::Rng;
            for envelope in inbox {
                self.sum = self.sum.wrapping_add(envelope.payload);
            }
            if ctx.round() < 3 {
                // A randomized subset of ports each round.
                for port in 0..ctx.degree() {
                    if ctx.rng().gen_bool(0.5) {
                        let value = self.sum.wrapping_add(port as u64);
                        ctx.send_port(port, value);
                    }
                }
            } else {
                ctx.halt();
            }
        }
    }

    fn noisy_run(
        graph: &MultiGraph,
        shards: usize,
        trace_mode: TraceMode,
    ) -> (Vec<u64>, ExecutionMetrics, Trace, MessageLedger) {
        let config = NetworkConfig::with_seed(99)
            .traced(10_000)
            .trace_mode(trace_mode)
            .sharded(shards);
        let mut network = Network::new(graph, config, |_, _| NoisyGossip { sum: 0 }).unwrap();
        network.run_until_halt(10).unwrap();
        let metrics = network.metrics().clone();
        let trace = network.trace().clone();
        let ledger = network.ledger().clone();
        let sums = network.into_programs().into_iter().map(|p| p.sum).collect();
        (sums, metrics, trace, ledger)
    }

    #[test]
    fn sharded_execution_is_bit_identical_to_sequential() {
        use freelunch_graph::generators::sparse_connected_erdos_renyi;
        let graph = sparse_connected_erdos_renyi(&GeneratorConfig::new(61, 2), 5.0).unwrap();
        for trace_mode in [TraceMode::Full, TraceMode::Off] {
            let sequential = noisy_run(&graph, 1, trace_mode);
            for shards in [2, 3, 8, 61, 200] {
                let sharded = noisy_run(&graph, shards, trace_mode);
                assert_eq!(sequential.0, sharded.0, "outputs differ at {shards} shards");
                assert_eq!(sequential.1, sharded.1, "metrics differ at {shards} shards");
                assert_eq!(sequential.2, sharded.2, "traces differ at {shards} shards");
                assert_eq!(sequential.3, sharded.3, "ledgers differ at {shards} shards");
            }
        }
    }

    #[test]
    fn trace_mode_changes_only_the_trace() {
        use freelunch_graph::generators::sparse_connected_erdos_renyi;
        let graph = sparse_connected_erdos_renyi(&GeneratorConfig::new(61, 2), 5.0).unwrap();
        for shards in [1, 4] {
            let full = noisy_run(&graph, shards, TraceMode::Full);
            let off = noisy_run(&graph, shards, TraceMode::Off);
            assert_eq!(full.0, off.0, "outputs differ at {shards} shards");
            assert_eq!(full.1, off.1, "metrics differ at {shards} shards");
            assert_eq!(full.3, off.3, "ledgers differ at {shards} shards");
            assert_eq!(full.2.total(), full.1.total_messages());
            assert_eq!(off.2.total(), 0);
        }
    }

    #[test]
    fn mailboxes_and_grid_buckets_are_reused_across_rounds() {
        /// Broadcasts every round for 6 rounds.
        struct Chatter;
        impl NodeProgram for Chatter {
            type Message = u64;
            fn init(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.broadcast(1);
            }
            fn round(&mut self, ctx: &mut Context<'_, u64>, _inbox: &[Envelope<u64>]) {
                if ctx.round() < 6 {
                    ctx.broadcast(ctx.round() as u64);
                } else {
                    ctx.halt();
                }
            }
        }
        let capacities = |network: &Network<Chatter>| -> (Vec<usize>, Vec<usize>) {
            (
                network.mailboxes.iter().map(Vec::capacity).collect(),
                network.grid.iter().map(Vec::capacity).collect(),
            )
        };
        // Chunks of 3 nodes: one column of three rows at 1 shard, a 3 × 3
        // grid drained on the workers at 3 shards.
        for (shards, columns) in [(1, 1), (3, 3)] {
            let graph = cycle(9);
            let config = NetworkConfig::with_seed(5).sharded(shards).chunk_size(3);
            let mut network = Network::new(&graph, config, |_, _| Chatter).unwrap();
            assert_eq!((network.shape.rows, network.shape.columns), (3, columns));
            network.run_rounds(3).unwrap();
            let before = capacities(&network);
            // On the cycle every row sends into every column.
            assert!(before.1.iter().all(|&capacity| capacity > 0), "{shards}");
            assert!(network.grid.iter().all(Vec::is_empty), "{shards}");
            network.run_rounds(3).unwrap();
            // Steady state: three more identical rounds grow no buffer, and
            // the barrier leaves every bucket drained.
            assert_eq!(capacities(&network), before, "{shards}");
            assert!(network.grid.iter().all(Vec::is_empty), "{shards}");
        }
    }

    /// The in-process backend, noting each bucket's length and capacity as
    /// the engine hands it the grid.
    #[derive(Debug, Default)]
    struct GridProbe {
        inner: InProcessTransport<u64>,
        buckets: Vec<(usize, usize)>,
    }

    impl Transport<u64> for GridProbe {
        fn deliver(
            &mut self,
            barrier: RoundBarrier<'_, u64>,
        ) -> RuntimeResult<crate::transport::BarrierOutcome> {
            self.buckets = barrier
                .grid
                .iter()
                .map(|bucket| (bucket.len(), bucket.capacity()))
                .collect();
            self.inner.deliver(barrier)
        }

        fn column_width(&self, node_count: usize, config: &NetworkConfig) -> usize {
            self.inner.column_width(node_count, config)
        }
    }

    #[test]
    fn mailboxes_are_sized_exactly_to_their_incoming_messages() {
        /// Broadcasts at initialization and in every round.
        struct Chatter;
        impl NodeProgram for Chatter {
            type Message = u64;
            fn init(&mut self, ctx: &mut Context<'_, u64>) {
                ctx.broadcast(0);
            }
            fn round(&mut self, ctx: &mut Context<'_, u64>, _inbox: &[Envelope<u64>]) {
                ctx.broadcast(u64::from(ctx.round()));
            }
        }
        // Mixed degrees: a 6-node path (degrees 1 and 2) beside an 11-leaf
        // star (degrees 11 and 1). Growing a mailbox one push at a time
        // would round these capacities up to 4 and 16.
        let mut graph = MultiGraph::new(18);
        for v in 0..5 {
            graph.add_edge(NodeId::new(v), NodeId::new(v + 1)).unwrap();
        }
        for leaf in 7..18 {
            graph.add_edge(NodeId::new(6), NodeId::new(leaf)).unwrap();
        }
        let degrees: Vec<usize> = [1, 2, 2, 2, 2, 1, 11].into_iter().chain([1; 11]).collect();
        for shards in [1, 2, 8] {
            // Chunks of 4 nodes give the barrier several receiver chunks;
            // ⌈18/shards⌉ gives one per shard.
            for chunk in [4, 18usize.div_ceil(shards)] {
                let config = NetworkConfig::with_seed(5)
                    .sharded(shards)
                    .chunk_size(chunk);
                let mut network = Network::with_transport(
                    &graph,
                    config,
                    FaultPlan::none(),
                    GridProbe::default(),
                    |_, _| Chatter,
                )
                .unwrap();
                // The ports each bucket spans: one per edge direction, in
                // the sender's row and the receiver's column.
                let GridShape {
                    chunk: row_nodes,
                    width,
                    columns,
                    ..
                } = network.shape;
                let mut spans = vec![0; network.grid.len()];
                for edge in graph.edges() {
                    for (from, to) in [(edge.u, edge.v), (edge.v, edge.u)] {
                        spans[from.index() / row_nodes * columns + to.index() / width] += 1;
                    }
                }
                let full: Vec<(usize, usize)> = spans.iter().map(|&span| (span, span)).collect();
                // A broadcast round, then three more identical ones: every
                // mailbox holds one message per port, at exactly that
                // capacity, and keeps it; every bucket reaches the barrier
                // filled to the capacity reserved when the network was
                // built, never regrown.
                for round in 0..=4 {
                    if round == 0 {
                        network.initialize().unwrap();
                    } else {
                        network.run_round().unwrap();
                    }
                    for (v, mailbox) in network.mailboxes.iter().enumerate() {
                        assert_eq!(
                            (mailbox.len(), mailbox.capacity()),
                            (degrees[v], degrees[v]),
                            "node {v} after round {round} at {shards} shards, chunk {chunk}"
                        );
                    }
                    assert_eq!(
                        network.transport().buckets,
                        full,
                        "grid of round {round} at {shards} shards, chunk {chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn pending_message_counter_tracks_dispatch_and_delivery() {
        let graph = cycle(6);
        let mut network = Network::new(&graph, NetworkConfig::with_seed(4), |node, _| {
            Flood::new(node)
        })
        .unwrap();
        assert_eq!(network.pending_messages(), 0);
        network.initialize().unwrap();
        // Node 0 broadcast over its 2 incident edges during initialization.
        assert_eq!(network.pending_messages(), 2);
        network.run_until_halt(10).unwrap();
        // The last node to hear the token (node 3, opposite on the cycle)
        // broadcast in the final round; its wave is still in flight.
        assert_eq!(network.pending_messages(), 2);
        network.run_round().unwrap();
        // Delivered, and every node is halted: nothing new was sent.
        assert_eq!(network.pending_messages(), 0);
    }

    #[test]
    fn ledger_matches_metrics_and_sizes_payloads() {
        let graph = cycle(6);
        let mut network = Network::new(&graph, NetworkConfig::with_seed(4), |node, _| {
            Flood::new(node)
        })
        .unwrap();
        network.run_until_halt(10).unwrap();
        let ledger = network.ledger();
        // The ledger and the per-round metrics count the same messages.
        assert_eq!(
            ledger.messages_per_round(),
            &network.metrics().messages_per_round[..]
        );
        assert_eq!(ledger.total_messages(), network.cost().messages);
        // Every node broadcast exactly once over each of its 2 edges, so each
        // of the 6 cycle edges carried exactly 2 messages in total.
        assert_eq!(ledger.messages_per_edge(), &[2u64; 6][..]);
        assert!(ledger.max_congestion() <= 2);
        // `Flood` sends `()` payloads: zero bytes under the default sizing.
        assert_eq!(ledger.total_bytes(), 0);
    }

    /// A program with an overridden wire size: every message is charged as
    /// its little-endian byte length.
    struct SizedBeacon;
    impl NodeProgram for SizedBeacon {
        type Message = u64;
        fn init(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(7);
        }
        fn round(&mut self, ctx: &mut Context<'_, u64>, _inbox: &[Envelope<u64>]) {
            ctx.halt();
        }
        fn payload_bytes(message: &u64) -> u64 {
            u64::from(message.count_ones().max(1)) // custom rule: popcount bytes
        }
    }

    #[test]
    fn payload_bytes_override_is_respected() {
        for shards in [1, 2] {
            let graph = cycle(4);
            let config = NetworkConfig::default().sharded(shards);
            let mut network = Network::new(&graph, config, |_, _| SizedBeacon).unwrap();
            network.run_until_halt(3).unwrap();
            // 4 nodes × 2 edges, each message charged popcount(7) = 3 bytes.
            assert_eq!(network.ledger().total_messages(), 8);
            assert_eq!(network.ledger().total_bytes(), 24);
        }
    }

    #[test]
    fn shard_count_is_clamped_and_zero_rejected() {
        let graph = cycle(4);
        let network = Network::new(&graph, NetworkConfig::default().sharded(100), |node, _| {
            Flood::new(node)
        })
        .unwrap();
        assert_eq!(network.shard_count(), 4);
        for shards in [0, MAX_SHARDS + 1, usize::MAX] {
            let built = Network::new(
                &graph,
                NetworkConfig::default().sharded(shards),
                |node, _| Flood::new(node),
            );
            assert!(
                matches!(built, Err(RuntimeError::InvalidConfig { .. })),
                "{shards} shards"
            );
        }
        // A checkpoint file carries the shard count as a raw u64: restore
        // must reject it before any round runs.
        let mut checkpoint = network.checkpoint();
        checkpoint.config.shards = usize::MAX;
        let checkpoint = NetworkCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
        assert!(matches!(
            Network::restore_with_plans(
                &graph,
                FaultPlan::none(),
                ChurnPlan::none(),
                InProcessTransport::new(),
                &checkpoint,
                |node, _| Flood::new(node)
            ),
            Err(RuntimeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn oversized_log_n_slack_is_rejected() {
        let graph = cycle(4);
        let mut config = NetworkConfig {
            log_n_slack: u32::MAX,
            ..NetworkConfig::default()
        };
        assert!(matches!(
            Network::new(&graph, config, |node, _| Flood::new(node)),
            Err(RuntimeError::InvalidConfig { .. })
        ));
        // The largest slack that fits: ceil(log2 4) = 2.
        config.log_n_slack = u32::MAX - 2;
        let network = Network::new(&graph, config, |node, knowledge| {
            assert_eq!(knowledge.log_n_upper_bound, u32::MAX);
            Flood::new(node)
        })
        .unwrap();
        // A checkpoint file carries the slack as a raw u32: restore must
        // reject an overflowing one like the constructor does.
        let mut checkpoint = network.checkpoint();
        checkpoint.config.log_n_slack = u32::MAX;
        let checkpoint = NetworkCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
        assert!(matches!(
            Network::restore_with_plans(
                &graph,
                FaultPlan::none(),
                ChurnPlan::none(),
                InProcessTransport::new(),
                &checkpoint,
                |node, _| Flood::new(node)
            ),
            Err(RuntimeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn sharded_dispatch_errors_match_sequential() {
        /// Sends over an edge that is not incident to it.
        struct Rogue;
        impl NodeProgram for Rogue {
            type Message = ();
            fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: &[Envelope<()>]) {
                if ctx.node() == NodeId::new(2) {
                    ctx.send(EdgeId::new(0), ());
                }
            }
        }
        let graph = cycle(8);
        for shards in [1, 4] {
            let mut network =
                Network::new(&graph, NetworkConfig::default().sharded(shards), |_, _| {
                    Rogue
                })
                .unwrap();
            assert_eq!(
                network.run_round().unwrap_err(),
                RuntimeError::NotIncident {
                    node: NodeId::new(2),
                    edge: EdgeId::new(0)
                },
                "at {shards} shards"
            );
        }
    }

    #[test]
    fn two_bad_senders_report_the_canonically_first_error() {
        /// Two nodes in far-apart chunks both send over a non-incident edge.
        struct TwinRogue;
        impl NodeProgram for TwinRogue {
            type Message = ();
            fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: &[Envelope<()>]) {
                // Node 90's edge 0 is not incident; neither is node 3's
                // edge 50. Under work-stealing a worker may step node 90
                // first, but the reported error must still be node 3's.
                if ctx.node() == NodeId::new(3) {
                    ctx.send(EdgeId::new(50), ());
                }
                if ctx.node() == NodeId::new(90) {
                    ctx.send(EdgeId::new(0), ());
                }
            }
        }
        let graph = cycle(96);
        let first = RuntimeError::NotIncident {
            node: NodeId::new(3),
            edge: EdgeId::new(50),
        };
        for shards in [1, 2, 8] {
            // chunk_size(1) maximizes chunk count, so the two rogues land
            // in different chunks and are claimed by racing workers in a
            // nondeterministic order; ⌈96/shards⌉ gives one range per
            // shard.
            for chunk in [1, 96usize.div_ceil(shards)] {
                let config = NetworkConfig::default().sharded(shards).chunk_size(chunk);
                let mut network = Network::new(&graph, config, |_, _| TwinRogue).unwrap();
                assert_eq!(
                    network.run_round().unwrap_err(),
                    first,
                    "at {shards} shards, chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_program_panics_the_round() {
        /// The payload node 90 panics with.
        #[derive(Debug, PartialEq)]
        struct NodePanic(u32);
        struct Bomb;
        impl NodeProgram for Bomb {
            type Message = ();
            fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: &[Envelope<()>]) {
                if ctx.node() == NodeId::new(90) {
                    std::panic::panic_any(NodePanic(90));
                }
            }
        }
        let graph = cycle(96);
        for shards in [1, 2, 8] {
            for chunk in [1, 96usize.div_ceil(shards)] {
                let config = NetworkConfig::default().sharded(shards).chunk_size(chunk);
                let mut network = Network::new(&graph, config, |_, _| Bomb).unwrap();
                network.initialize().unwrap();
                let payload =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| network.run_round()))
                        .expect_err("node 90 panics in round 1");
                assert_eq!(
                    payload.downcast_ref::<NodePanic>(),
                    Some(&NodePanic(90)),
                    "at {shards} shards, chunk {chunk}"
                );
            }
        }
    }

    /// Runs `NoisyGossip` under a fault plan and returns every observable.
    fn noisy_faulty_run(
        graph: &MultiGraph,
        shards: usize,
        trace_mode: TraceMode,
        plan: FaultPlan,
    ) -> (Vec<u64>, ExecutionMetrics, Trace, MessageLedger) {
        let config = NetworkConfig::with_seed(99)
            .traced(10_000)
            .trace_mode(trace_mode)
            .sharded(shards);
        let mut network =
            Network::with_fault_plan(graph, config, plan, |_, _| NoisyGossip { sum: 0 }).unwrap();
        network.run_until_halt(10).unwrap();
        let metrics = network.metrics().clone();
        let trace = network.trace().clone();
        let ledger = network.ledger().clone();
        let sums = network.into_programs().into_iter().map(|p| p.sum).collect();
        (sums, metrics, trace, ledger)
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        use freelunch_graph::generators::sparse_connected_erdos_renyi;
        let graph = sparse_connected_erdos_renyi(&GeneratorConfig::new(61, 2), 5.0).unwrap();
        for shards in [1, 4] {
            let clean = noisy_faulty_run(&graph, shards, TraceMode::Full, FaultPlan::none());
            let none = noisy_run(&graph, shards, TraceMode::Full);
            assert_eq!(clean, none, "at {shards} shards");
        }
        // An empty plan is not even observable through the accessor.
        let network = Network::with_fault_plan(
            &graph,
            NetworkConfig::default(),
            FaultPlan::new(7),
            |_, _| NoisyGossip { sum: 0 },
        )
        .unwrap();
        assert!(network.fault_plan().is_none());
    }

    #[test]
    fn faulty_execution_is_bit_identical_across_shards_and_trace_modes() {
        use freelunch_graph::generators::sparse_connected_erdos_renyi;
        let graph = sparse_connected_erdos_renyi(&GeneratorConfig::new(61, 2), 5.0).unwrap();
        let plan = || {
            FaultPlan::new(31)
                .with_drop_probability(0.2)
                .with_duplicate_probability(0.2)
                .with_link_cut(EdgeId::new(3), 1)
                .with_crash(NodeId::new(17), 2)
                .with_delivery_perturbation()
        };
        let reference = noisy_faulty_run(&graph, 1, TraceMode::Full, plan());
        assert!(reference.3.fault_totals().dropped > 0);
        assert!(reference.3.fault_totals().duplicated > 0);
        for trace_mode in [TraceMode::Full, TraceMode::Off] {
            for shards in [1, 2, 8, 61] {
                let faulty = noisy_faulty_run(&graph, shards, trace_mode, plan());
                let where_ = format!("{shards} shards ({trace_mode:?})");
                assert_eq!(reference.0, faulty.0, "outputs differ at {where_}");
                assert_eq!(reference.1, faulty.1, "metrics differ at {where_}");
                assert_eq!(reference.3, faulty.3, "ledgers differ at {where_}");
                if trace_mode == TraceMode::Full {
                    assert_eq!(reference.2, faulty.2, "traces differ at {where_}");
                }
            }
        }
    }

    #[test]
    fn crashed_node_goes_silent_frozen_and_halted() {
        // The token leaves node 0 at initialization, and nodes 2 and 4 send
        // it towards node 3 in round 2, for reading in round 3. A message
        // sent in round r is dropped when its receiver is down in round
        // r + 1, so a crash at round 3 loses both sends exactly like a crash
        // before the start, and a crash at round 4 loses neither.
        // (crash round, crash drops, messages, round node 3 first hears in)
        for (crash_round, drops, messages, heard) in
            [(0, 2, 8, None), (3, 2, 8, None), (4, 0, 12, Some(3))]
        {
            let graph = cycle(6);
            let plan = FaultPlan::new(1).with_crash(NodeId::new(3), crash_round);
            let mut network =
                Network::with_fault_plan(&graph, NetworkConfig::with_seed(1), plan, |node, _| {
                    Flood::new(node)
                })
                .unwrap();
            network.run_until_halt(20).unwrap();
            let row = format!("crash at round {crash_round}");
            // The run ends by round 3, so a crash scheduled for round 4 has
            // not happened yet.
            let crashed = crash_round <= network.current_round();
            assert_eq!(network.is_crashed(NodeId::new(3)), crashed, "{row}");
            let expected = if crashed {
                vec![NodeId::new(3)]
            } else {
                Vec::new()
            };
            assert_eq!(network.crashed_nodes(), expected, "{row}");
            assert_eq!(network.crashed_count(), usize::from(crashed), "{row}");
            assert!(!network.is_crashed(NodeId::new(0)), "{row}");
            // A crashed node's program state is frozen where the crash
            // found it.
            assert_eq!(network.programs()[3].heard_in_round, heard, "{row}");
            // Every live node still hears the token (the cycle minus one
            // node is a path).
            for v in [0usize, 1, 2, 4, 5] {
                assert!(
                    network.programs()[v].heard_in_round.is_some(),
                    "{row}: node {v}"
                );
            }
            assert_eq!(network.cost().messages, messages, "{row}");
            let totals = network.ledger().fault_totals();
            assert_eq!(totals.dropped_crash, drops, "{row}");
            assert_eq!(totals.dropped, drops, "{row}");
            assert_eq!(totals.duplicated, 0, "{row}");
        }
    }

    #[test]
    fn link_cut_silences_both_directions_from_its_round() {
        /// Broadcasts every round; counts arrivals per round.
        struct Meter {
            seen: Vec<usize>,
        }
        impl NodeProgram for Meter {
            type Message = ();
            fn init(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.broadcast(());
            }
            fn round(&mut self, ctx: &mut Context<'_, ()>, inbox: &[Envelope<()>]) {
                self.seen.push(inbox.len());
                if ctx.round() < 4 {
                    ctx.broadcast(());
                } else {
                    ctx.halt();
                }
            }
        }
        // Cut the cycle edge between nodes 0 and 1 from round 2 on.
        let graph = cycle(4);
        let plan = FaultPlan::new(0).with_link_cut(EdgeId::new(0), 2);
        let mut network =
            Network::with_fault_plan(&graph, NetworkConfig::default(), plan, |_, _| Meter {
                seen: Vec::new(),
            })
            .unwrap();
        network.run_until_halt(5).unwrap();
        // Rounds 0 and 1 are unaffected (arrivals in rounds 1 and 2); the
        // cut eats one message per direction in each of rounds 2 and 3.
        assert_eq!(network.programs()[0].seen, vec![2, 2, 1, 1]);
        assert_eq!(network.programs()[1].seen, vec![2, 2, 1, 1]);
        assert_eq!(network.programs()[2].seen, vec![2, 2, 2, 2]);
        let totals = network.ledger().fault_totals();
        assert_eq!(totals.dropped_link_cut, 4);
        assert_eq!(network.ledger().dropped_per_round(), &[0, 0, 2, 2, 0]);
    }

    #[test]
    fn certain_duplication_doubles_every_delivery() {
        let graph = cycle(4);
        let plan = FaultPlan::new(5).with_duplicate_probability(1.0);
        let mut network =
            Network::with_fault_plan(&graph, NetworkConfig::with_seed(3), plan, |node, _| {
                Flood::new(node)
            })
            .unwrap();
        network.run_until_halt(10).unwrap();
        // Every node broadcast exactly once (8 program sends); each message
        // was duplicated, so 16 crossed the wire and the ledger counts them.
        assert_eq!(network.cost().messages, 16);
        assert_eq!(network.ledger().total_messages(), 16);
        assert_eq!(network.ledger().fault_totals().duplicated, 8);
        assert_eq!(network.ledger().fault_totals().dropped, 0);
    }

    #[test]
    fn certain_drop_loses_everything() {
        let graph = cycle(4);
        let plan = FaultPlan::new(5).with_drop_probability(1.0);
        let mut network =
            Network::with_fault_plan(&graph, NetworkConfig::with_seed(3), plan, |node, _| {
                Flood::new(node)
            })
            .unwrap();
        // Only node 0 ever holds the token: nobody else hears anything, so
        // the flood never completes within the budget.
        assert!(network.run_until_halt(10).is_err());
        assert_eq!(network.cost().messages, 0);
        assert_eq!(network.ledger().total_messages(), 0);
        let totals = network.ledger().fault_totals();
        assert_eq!(totals.dropped, totals.dropped_random);
        assert_eq!(totals.dropped, 2); // node 0's two init broadcasts
        assert_eq!(network.halted_count(), 1); // node 0 halted after forwarding
    }

    #[test]
    fn a_crashed_neighbor_is_observed_as_silence() {
        /// Broadcasts every round and counts, per port, the consecutive
        /// rounds in which nothing arrived over it, from its own inbox.
        struct SilenceWatcher {
            silence: Vec<u32>,
        }
        impl NodeProgram for SilenceWatcher {
            type Message = ();
            fn init(&mut self, ctx: &mut Context<'_, ()>) {
                self.silence = vec![0; ctx.degree()];
                ctx.broadcast(());
            }
            fn round(&mut self, ctx: &mut Context<'_, ()>, inbox: &[Envelope<()>]) {
                for port in ctx.ports() {
                    let heard = inbox.iter().any(|e| Some(e.edge) == port.edge_id);
                    self.silence[port.port] = if heard {
                        0
                    } else {
                        self.silence[port.port] + 1
                    };
                }
                if ctx.round() < 4 {
                    ctx.broadcast(());
                } else {
                    ctx.halt();
                }
            }
        }
        let graph = cycle(4);
        let plan = FaultPlan::new(0).with_crash(NodeId::new(2), 0);
        let mut network =
            Network::with_fault_plan(&graph, NetworkConfig::default(), plan, |_, _| {
                SilenceWatcher {
                    silence: Vec::new(),
                }
            })
            .unwrap();
        network.run_until_halt(5).unwrap();
        // Node 1's ports: port 0 towards node 0 (chatty), port 1 towards the
        // crashed node 2, silent since round 1, so by round 4 its count has
        // grown 4 times without ever resetting.
        assert_eq!(network.programs()[1].silence, vec![0, 4]);
        // Node 0 has two live neighbors: all-zero silence.
        assert_eq!(network.programs()[0].silence, vec![0, 0]);
    }

    #[test]
    fn a_checkpoint_restored_under_another_fault_plan_is_rejected() {
        let graph = cycle(6);
        let plan = FaultPlan::new(0).with_crash(NodeId::new(3), 0);
        let mut network =
            Network::with_fault_plan(&graph, NetworkConfig::default(), plan, |node, _| {
                Flood::new(node)
            })
            .unwrap();
        network.run_rounds(2).unwrap();
        let checkpoint = network.checkpoint();
        // No plan, and a plan crashing another node: the digest tells both.
        for other in [
            FaultPlan::none(),
            FaultPlan::new(0).with_crash(NodeId::new(4), 0),
        ] {
            let restored = Network::restore_with_plans(
                &graph,
                other,
                ChurnPlan::none(),
                InProcessTransport::new(),
                &checkpoint,
                |node, _| Flood::new(node),
            );
            let Err(err) = restored else {
                panic!("a checkpoint restored under another fault plan");
            };
            assert!(
                matches!(&err, RuntimeError::Checkpoint { reason } if reason.contains("fault plan")),
                "{err}"
            );
        }
    }

    #[test]
    fn pending_envelope_beyond_the_edge_slots_is_rejected() {
        let graph = cycle(6);
        let plan = || FaultPlan::new(0).with_crash(NodeId::new(3), 0);
        let mut network =
            Network::with_fault_plan(&graph, NetworkConfig::default(), plan(), |node, _| {
                Flood::new(node)
            })
            .unwrap();
        network.run_rounds(2).unwrap();
        let mut checkpoint = network.checkpoint();
        // Node 1 holds the token node 2 forwarded; a copy of it claims an
        // edge far beyond the cycle's six.
        let mut forged = checkpoint.pending[1][0].clone();
        forged.edge = 1_000_000;
        checkpoint.pending[1].push(forged);
        let checkpoint = NetworkCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
        let restored = Network::restore_with_plans(
            &graph,
            plan(),
            ChurnPlan::none(),
            InProcessTransport::new(),
            &checkpoint,
            |node, _| Flood::new(node),
        );
        let Err(err) = restored else {
            panic!("a checkpoint with a pending message on edge 1000000 restored");
        };
        assert!(
            matches!(&err, RuntimeError::Checkpoint { reason }
                if reason.contains("pending message 1 of node 1") && reason.contains("1000000")),
            "{err}"
        );
    }

    #[test]
    fn grid_shape_keeps_the_chunks_and_bounds_the_buckets() {
        let n = 1 << 20;
        let shape = |shards: usize, chunk_size: usize| {
            let config = NetworkConfig::default()
                .sharded(shards)
                .chunk_size(chunk_size);
            let width = Transport::<u64>::column_width(&InProcessTransport::new(), n, &config);
            GridShape::new(n, n, shards, chunk_size, width)
        };
        // The defaults on a 2^20-node graph at 2 shards: 2048-node execute
        // chunks and 16 columns per worker.
        assert_eq!(
            shape(2, DEFAULT_CHUNK_SIZE),
            GridShape {
                chunk: 2048,
                width: 1 << 15,
                rows: 512,
                columns: 32,
            }
        );
        // One-node chunks keep their size but merge columns, so the grid
        // holds O(owned + (16·shards)²) buckets, not 2^20 · 16·shards.
        for (shards, columns) in [(8, 1), (256, 16)] {
            let shape = shape(shards, 1);
            assert_eq!((shape.chunk, shape.rows), (1, n), "{shards}");
            assert_eq!(shape.columns, columns, "{shards}");
            assert!(
                shape.rows * shape.columns <= n + (16 * shards).pow(2),
                "{shards} shards: {shape:?}"
            );
            assert!(
                shape.columns * shape.width >= n,
                "{shards} shards: {shape:?}"
            );
        }
        // A single shard, and any backend that keeps the default, gets one
        // column: the canonical send order.
        assert_eq!(shape(1, DEFAULT_CHUNK_SIZE).columns, 1);
        let mock = crate::transport::MockTransport::new();
        let width = Transport::<u64>::column_width(&mock, n, &NetworkConfig::default());
        assert_eq!(
            GridShape::new(n, n, 2, DEFAULT_CHUNK_SIZE, width).columns,
            1
        );
    }

    #[test]
    fn churn_leaves_knowledge_ports_and_degree_at_round_0() {
        /// What a node reads of its own adjacency: degree, edge IDs,
        /// neighbor IDs, and `(port, edge, neighbor)` per port.
        type View = (
            usize,
            Option<Vec<EdgeId>>,
            Option<Vec<NodeId>>,
            Vec<(usize, Option<EdgeId>, Option<NodeId>)>,
        );
        fn view(ctx: &Context<'_, ()>) -> View {
            let mut ports = Vec::new();
            for port in ctx.ports() {
                ports.push((port.port, port.edge_id, port.neighbor));
            }
            let knowledge = ctx.knowledge();
            (
                ctx.degree(),
                knowledge.incident_edge_ids(),
                knowledge.neighbor_ids(),
                ports,
            )
        }
        /// Node 1 records its view at init and in round 1, when it also
        /// broadcasts; every other node stays silent.
        #[derive(Default)]
        struct Probe {
            views: Vec<View>,
            broadcast: usize,
        }
        impl NodeProgram for Probe {
            type Message = ();
            fn init(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node() == NodeId::new(1) {
                    self.views.push(view(ctx));
                }
            }
            fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: &[Envelope<()>]) {
                if ctx.node() == NodeId::new(1) && ctx.round() == 1 {
                    self.views.push(view(ctx));
                    self.broadcast = ctx.broadcast(());
                }
            }
        }
        // Node 1's round-0 ports on cycle(4) are e0 (to node 0) and e1 (to
        // node 2). At the top of round 1, churn deletes e0 and inserts
        // e4 = 1–3.
        use crate::churn::{ChurnEventSpec, ScheduledChurn};
        let graph = cycle(4);
        let churn = ChurnPlan {
            scheduled: vec![
                ScheduledChurn {
                    round: 1,
                    event: ChurnEventSpec::DeleteEdge {
                        edge: EdgeId::new(0),
                    },
                },
                ScheduledChurn {
                    round: 1,
                    event: ChurnEventSpec::InsertEdge {
                        u: NodeId::new(1),
                        v: NodeId::new(3),
                    },
                },
            ],
            ..ChurnPlan::new(0)
        };
        let mut network = Network::with_plans(
            &graph,
            NetworkConfig::default().knowledge(KnowledgeModel::Kt1),
            FaultPlan::none(),
            churn,
            InProcessTransport::new(),
            |_, _| Probe::default(),
        )
        .unwrap();
        network.run_rounds(1).unwrap();
        assert_eq!(
            network.churn_events,
            &[
                ChurnEvent::EdgeDelete {
                    edge: EdgeId::new(0)
                },
                ChurnEvent::EdgeInsert {
                    edge: EdgeId::new(4),
                    u: NodeId::new(1),
                    v: NodeId::new(3)
                }
            ]
        );
        let (e, n) = (EdgeId::new, NodeId::new);
        let round_0: View = (
            2,
            Some(vec![e(0), e(1)]),
            Some(vec![n(0), n(2)]),
            vec![(0, Some(e(0)), Some(n(0))), (1, Some(e(1)), Some(n(2)))],
        );
        let probe = &network.programs()[1];
        assert_eq!(probe.views, vec![round_0.clone(), round_0]);
        // The broadcast went out over the live edges e1 and e4, not e0.
        assert_eq!(probe.broadcast, 2);
        assert_eq!(network.ledger().messages_per_edge(), &[0, 1, 0, 0, 1]);
    }

    #[test]
    fn delivery_perturbation_reorders_but_preserves_content() {
        /// Records the sender order of its inbox each round.
        struct OrderProbe {
            orders: Vec<Vec<u32>>,
        }
        impl NodeProgram for OrderProbe {
            type Message = ();
            fn init(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.broadcast(());
            }
            fn round(&mut self, ctx: &mut Context<'_, ()>, inbox: &[Envelope<()>]) {
                self.orders
                    .push(inbox.iter().map(|e| e.from.raw()).collect());
                if ctx.round() < 3 {
                    ctx.broadcast(());
                } else {
                    ctx.halt();
                }
            }
        }
        let graph = complete_like(6);
        let run = |plan: FaultPlan| {
            let mut network =
                Network::with_fault_plan(&graph, NetworkConfig::with_seed(2), plan, |_, _| {
                    OrderProbe { orders: Vec::new() }
                })
                .unwrap();
            network.run_until_halt(5).unwrap();
            let metrics = network.metrics().clone();
            (
                network
                    .into_programs()
                    .into_iter()
                    .map(|p| p.orders)
                    .collect::<Vec<_>>(),
                metrics,
            )
        };
        let clean = run(FaultPlan::none());
        let perturbed = run(FaultPlan::new(9).with_delivery_perturbation());
        let perturbed_again = run(FaultPlan::new(9).with_delivery_perturbation());
        // Same seed, same permutations — and message counts are untouched.
        assert_eq!(perturbed, perturbed_again);
        assert_eq!(clean.1, perturbed.1);
        // Orders differ somewhere, but each inbox holds the same senders.
        assert_ne!(clean.0, perturbed.0);
        for (node, (c, p)) in clean.0.iter().zip(perturbed.0.iter()).enumerate() {
            for (round, (co, po)) in c.iter().zip(p.iter()).enumerate() {
                let mut cs = co.clone();
                let mut ps = po.clone();
                cs.sort_unstable();
                ps.sort_unstable();
                assert_eq!(cs, ps, "node {node} round {round}");
            }
        }
    }

    /// Complete graph on `n` nodes built directly (dense inboxes make the
    /// perturbation test meaningful).
    fn complete_like(n: u32) -> MultiGraph {
        let mut graph = MultiGraph::new(n as usize);
        for u in 0..n {
            for v in (u + 1)..n {
                graph.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
            }
        }
        graph
    }

    #[test]
    fn fault_plan_validation_happens_at_construction() {
        let graph = cycle(4);
        let bad_probability = FaultPlan::new(0).with_drop_probability(1.5);
        assert!(Network::with_fault_plan(
            &graph,
            NetworkConfig::default(),
            bad_probability,
            |node, _| { Flood::new(node) }
        )
        .is_err());
        // A negative probability makes `is_empty()` true; validation must
        // still reject it rather than shortcut to the failure-free path.
        let negative = FaultPlan::new(0).with_drop_probability(-0.5);
        assert!(negative.is_empty());
        assert!(
            Network::with_fault_plan(&graph, NetworkConfig::default(), negative, |node, _| {
                Flood::new(node)
            })
            .is_err()
        );
        let unknown_edge = FaultPlan::new(0).with_link_cut(EdgeId::new(99), 0);
        assert!(Network::with_fault_plan(
            &graph,
            NetworkConfig::default(),
            unknown_edge,
            |node, _| { Flood::new(node) }
        )
        .is_err());
        let unknown_node = FaultPlan::new(0).with_crash(NodeId::new(99), 0);
        assert!(Network::with_fault_plan(
            &graph,
            NetworkConfig::default(),
            unknown_node,
            |node, _| { Flood::new(node) }
        )
        .is_err());
    }

    #[test]
    fn sparse_edge_ids_resolve_through_the_endpoint_table() {
        /// Broadcasts once; the cluster-contraction style graph below has a
        /// deliberately sparse edge-ID space.
        struct Ping;
        impl NodeProgram for Ping {
            type Message = ();
            fn init(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.broadcast(());
            }
            fn round(&mut self, ctx: &mut Context<'_, ()>, _inbox: &[Envelope<()>]) {
                ctx.halt();
            }
        }
        let mut graph = MultiGraph::new(3);
        graph
            .add_edge_with_id(EdgeId::new(500), NodeId::new(0), NodeId::new(1))
            .unwrap();
        graph
            .add_edge_with_id(EdgeId::new(7), NodeId::new(1), NodeId::new(2))
            .unwrap();
        let mut network = Network::new(&graph, NetworkConfig::default(), |_, _| Ping).unwrap();
        network.run_until_halt(3).unwrap();
        assert_eq!(network.cost().messages, 4);
        assert_eq!(network.ledger().messages_per_edge()[500], 2);
        assert_eq!(network.ledger().messages_per_edge()[7], 2);
        // A link cut must name an edge the graph holds: 8 lies inside the
        // dense slot range but in a gap of the sparse ID space.
        let with_cut = |edge| {
            let plan = FaultPlan::new(0).with_link_cut(EdgeId::new(edge), 1);
            Network::with_fault_plan(&graph, NetworkConfig::default(), plan, |_, _| Ping)
        };
        assert!(with_cut(8).is_err());
        assert!(with_cut(7).is_ok());
    }
}
