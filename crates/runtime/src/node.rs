//! Node programs and their per-round execution context.

use crate::error::RuntimeError;
use crate::knowledge::{InitialKnowledge, Port};
use freelunch_graph::{CsrGraph, EdgeId, IncidentEdge, NodeId};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Mixes the network seed with a node index into an independent per-node
/// stream seed (the crate-wide splitmix64 finalizer).
pub(crate) fn node_seed(seed: u64, node: usize) -> u64 {
    crate::fault::splitmix64(seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A message in transit: the payload together with the edge it travelled
/// over and the sender.
///
/// Under the paper's model a receiver always learns the edge (it knows the
/// unique ID of each incident edge); whether it can interpret `from` depends
/// on the knowledge model and is up to the algorithm, so programs that want
/// to stay within the unique-edge-ID model should key their state by
/// [`Envelope::edge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The edge the message was sent over.
    pub edge: EdgeId,
    /// The node that sent the message.
    pub from: NodeId,
    /// The message payload.
    pub payload: M,
}

/// One buffered outgoing message, fully resolved at send time: the context
/// validates the edge and looks up the receiver when the program calls
/// [`Context::send`] / [`Context::send_port`], so the dispatch barrier does
/// no per-message graph work at all.
///
/// The record carries no byte count: a backend sizes the payload where it
/// tallies it, through
/// [`RoundBarrier::payload_bytes`](crate::transport::RoundBarrier::payload_bytes)
/// ([`NodeProgram::payload_bytes`]). That keeps the record at the width of
/// its four fields — 32 bytes for a 16-byte payload, 24 for a `u64` —
/// which is what each message of a round costs in the send grid.
///
/// This is the unit of work a [`Transport`](crate::transport::Transport)
/// backend receives at the round barrier: the engine hands each backend the
/// send grid of resolved `Outgoing` messages, and the backend is
/// responsible for moving every payload into the receiver's mailbox (see
/// `docs/TRANSPORT.md` for the delivery contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// The edge the message travels over.
    pub edge: EdgeId,
    /// The sending node.
    pub sender: NodeId,
    /// The receiving node (resolved at send time).
    pub receiver: NodeId,
    /// The message payload.
    pub payload: M,
}

/// The interface the runtime hands to a node in each round.
///
/// The context exposes exactly the information the LOCAL model grants the
/// node: its own ID, its initial knowledge (ports / edge IDs / neighbor IDs
/// depending on the [`KnowledgeModel`](crate::knowledge::KnowledgeModel)),
/// the current round number, a deterministic private source of randomness,
/// and the ability to send messages over incident edges.
///
/// Sends are resolved eagerly: `send_port` (and `broadcast`) read the
/// receiver straight off the node's packed CSR incidence slice, and `send`
/// validates the edge with a single dense array read. A message over an
/// unknown or non-incident edge is dropped and the error is reported when
/// the round's barrier is reached, so a program bug cannot silently
/// teleport messages.
#[derive(Debug)]
pub struct Context<'a, M> {
    /// The node's view of its construction-time incidence list.
    pub(crate) knowledge: InitialKnowledge<'a>,
    /// The node's live packed incidence slice (one entry per local port,
    /// with the edge and the opposite endpoint): the frozen CSR slice, or
    /// the overlay's under churn. This is how `KT0` programs send without
    /// ever learning global edge IDs: they address ports, the runtime
    /// translates.
    pub(crate) ports: &'a [IncidentEdge],
    /// Dense raw-edge-ID → endpoints table shared by every node: the one
    /// array read that validates a [`Context::send`].
    pub(crate) edge_endpoints: &'a [[u32; 2]],
    pub(crate) round: u32,
    /// The network seed; with the node it keys the node's private stream.
    seed: u64,
    /// The stream's keystream position when the step started.
    rng_pos: u64,
    /// The node's generator, rebuilt from `(seed, node, rng_pos)` by the
    /// step's first [`Context::rng`] call.
    rng: Option<ChaCha8Rng>,
    /// The stepping worker's scratch outbox, empty when the step starts and
    /// reused across rounds (in steady state no send allocates).
    pub(crate) outbox: &'a mut Vec<Outgoing<M>>,
    pub(crate) halted: bool,
    /// First invalid send of this step, surfaced at the round barrier.
    pub(crate) error: Option<RuntimeError>,
}

impl<'a, M> Context<'a, M> {
    pub(crate) fn new(
        knowledge: InitialKnowledge<'a>,
        ports: &'a [IncidentEdge],
        edge_endpoints: &'a [[u32; 2]],
        round: u32,
        seed: u64,
        rng_pos: u64,
        outbox: &'a mut Vec<Outgoing<M>>,
    ) -> Self {
        Context {
            knowledge,
            ports,
            edge_endpoints,
            round,
            seed,
            rng_pos,
            rng: None,
            outbox,
            halted: false,
            error: None,
        }
    }

    /// The executing node's own ID.
    pub fn node(&self) -> NodeId {
        self.knowledge.node
    }

    /// The node's degree (number of incident edges, with multiplicity).
    /// Under churn this stays the construction-time degree, while
    /// [`Context::broadcast`] and [`Context::send_port`] address the live
    /// incidence list.
    pub fn degree(&self) -> usize {
        self.knowledge.degree()
    }

    /// The node's initial knowledge (ports, edge IDs, neighbor IDs — as
    /// permitted by the knowledge model). Under churn this stays the
    /// construction-time view: the paper's initial-knowledge assumptions are
    /// about round 0.
    pub fn knowledge(&self) -> InitialKnowledge<'a> {
        self.knowledge
    }

    /// The node's ports (one per incident edge), as in
    /// [`InitialKnowledge::ports`]. Under churn these stay the
    /// construction-time ports, while [`Context::send_port`] numbers the
    /// live incidence list.
    pub fn ports(&self) -> impl ExactSizeIterator<Item = Port> + 'a {
        self.knowledge.ports()
    }

    /// The current round number (0 during initialization, then 1, 2, …).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The promised upper bound on `log2 n` (model assumption (i)).
    pub fn log_n_upper_bound(&self) -> u32 {
        self.knowledge.log_n_upper_bound
    }

    /// The node's private, deterministic random stream: a ChaCha8
    /// generator seeded from `(network seed, node)`, continuing in each step
    /// where the node's previous step stopped drawing.
    ///
    /// Between steps the engine keeps only the stream's position (one `u64`
    /// a node). The step's first call rebuilds the generator from the seed
    /// and seeks it to that position; the engine stores the new position
    /// when the step returns. A step that never calls this costs nothing,
    /// and the draws are the same as from one generator drawn from
    /// consecutively.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        let (seed, node, pos) = (self.seed, self.knowledge.node.index(), self.rng_pos);
        self.rng.get_or_insert_with(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(node_seed(seed, node));
            rng.set_word_pos(pos);
            rng
        })
    }

    /// The stream's keystream position now: where the step's generator
    /// stands, or where the step started if it drew nothing.
    pub(crate) fn rng_position(&self) -> u64 {
        self.rng.as_ref().map_or(self.rng_pos, ChaCha8Rng::word_pos)
    }

    /// Queues a message to be delivered over `edge` at the beginning of the
    /// next round.
    ///
    /// The context validates immediately — one read of the dense endpoints
    /// table — that `edge` exists and is incident to this node. An invalid
    /// send queues nothing and aborts the execution at the round barrier, so
    /// a program bug cannot silently teleport messages.
    pub fn send(&mut self, edge: EdgeId, payload: M) {
        let me = self.knowledge.node.raw();
        let [u, v] = self
            .edge_endpoints
            .get(edge.index())
            .copied()
            .unwrap_or([CsrGraph::NO_ENDPOINT; 2]);
        let receiver = if u == me {
            v
        } else if v == me {
            u
        } else {
            let error = if u == CsrGraph::NO_ENDPOINT {
                RuntimeError::UnknownEdge { edge }
            } else {
                RuntimeError::NotIncident {
                    node: self.knowledge.node,
                    edge,
                }
            };
            self.error.get_or_insert(error);
            return;
        };
        self.queue_resolved(edge, NodeId::new(receiver), payload);
    }

    /// Queues a fully resolved message; the single construction site every
    /// send path funnels through.
    #[inline]
    fn queue_resolved(&mut self, edge: EdgeId, receiver: NodeId, payload: M) {
        self.outbox.push(Outgoing {
            edge,
            sender: self.knowledge.node,
            receiver,
            payload,
        });
    }

    /// Queues a message on the edge behind local port `port`.
    ///
    /// This works under every knowledge model (the runtime resolves the port
    /// to an edge; the program never needs to see the global ID) and needs
    /// no validation at all — the port table *is* the node's incidence list.
    /// Returns `false` and sends nothing if the port does not exist.
    pub fn send_port(&mut self, port: usize, payload: M) -> bool {
        match self.ports.get(port) {
            Some(&IncidentEdge { edge, neighbor }) => {
                self.queue_resolved(edge, neighbor, payload);
                true
            }
            None => false,
        }
    }

    /// Marks this node as halted. A halted node still receives messages but
    /// the runtime's `run_until_halt` stops once every node has halted.
    pub fn halt(&mut self) {
        self.halted = true;
    }
}

impl<'a, M: Clone> Context<'a, M> {
    /// Queues a copy of `payload` on every incident edge ("local broadcast").
    /// Works under every knowledge model. Returns the number of messages
    /// queued.
    ///
    /// The payload is cloned once per port, so a heavy payload should be
    /// cheap to clone: `BallGathering` broadcasts an `Arc<[u32]>`, whose
    /// clones share one allocation. The ledger still charges every copy in
    /// full, [`NodeProgram::payload_bytes`] bytes per port.
    pub fn broadcast(&mut self, payload: M) -> usize {
        let degree = self.ports.len();
        self.outbox.reserve(degree);
        for &IncidentEdge { edge, neighbor } in self.ports {
            self.queue_resolved(edge, neighbor, payload.clone());
        }
        degree
    }
}

/// A LOCAL algorithm, expressed as the program run by every node.
///
/// Implementations are created per node by the factory passed to
/// [`Network::new`](crate::engine::Network::new); the runtime then calls
/// [`NodeProgram::init`] once and [`NodeProgram::round`] once per
/// synchronous round, delivering the messages sent in the previous round.
///
/// Programs must be [`Send`] and their messages [`Send`] + [`Sync`]: when
/// the network is configured with more than one shard
/// ([`NetworkConfig::sharded`](crate::engine::NetworkConfig::sharded)), each
/// round steps the programs of different shards on different worker
/// threads, and the dispatch barrier's receiver-sharded workers move every
/// message into its receiver's mailbox. Programs
/// hold only per-node state and messages are plain data, so this is
/// automatic for ordinary implementations.
pub trait NodeProgram: Send {
    /// The message type exchanged by this algorithm.
    ///
    /// [`Context::broadcast`] clones the payload once per port, so a heavy
    /// payload should be cheap to clone (an `Arc<[T]>` rather than a
    /// `Vec<T>`: one allocation per broadcast instead of one per message).
    /// The ledger charges every copy in full either way.
    type Message: Clone + fmt::Debug + Send + Sync;

    /// Called once before the first round; messages sent here are delivered
    /// in round 1.
    fn init(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// Called once per round with the messages delivered this round.
    fn round(&mut self, ctx: &mut Context<'_, Self::Message>, inbox: &[Envelope<Self::Message>]);

    /// CONGEST-style wire size of one message payload in bytes, used by the
    /// engine's bandwidth accounting
    /// ([`MessageLedger`](crate::metrics::MessageLedger)).
    ///
    /// The default charges the in-memory size of the message type
    /// (`size_of::<Self::Message>()`), which is exact for fixed-size
    /// payloads. Programs whose messages carry heap data (token bundles,
    /// strings, …) should override this to charge the true serialized size —
    /// the sizing rules are specified in `docs/METRICS.md`. The engine hands
    /// this function to the backend as
    /// [`RoundBarrier::payload_bytes`](crate::transport::RoundBarrier::payload_bytes),
    /// and the backend sizes each message where it tallies it: at delivery
    /// on the in-process backend (on the dispatch workers), when staging it
    /// for the wire on the TCP and mock backends. An override must
    /// therefore depend only on `message`.
    fn payload_bytes(message: &Self::Message) -> u64 {
        let _ = message;
        std::mem::size_of::<Self::Message>() as u64
    }

    /// Serializes this node's mutable program state into `buf` for a
    /// [`NetworkCheckpoint`](crate::checkpoint::NetworkCheckpoint), using
    /// the `docs/TRANSPORT.md` wire conventions (little-endian fields, no
    /// implicit lengths).
    ///
    /// The default writes nothing, which is correct only for stateless
    /// programs; any program whose `round` reads fields mutated in earlier
    /// rounds must override both hooks, and
    /// [`Network::checkpoint`](crate::engine::Network::checkpoint) of a
    /// restored run is only bit-identical if
    /// `load_state(save_state(p)) == p`. See `docs/RECOVERY.md`.
    fn save_state(&self, buf: &mut Vec<u8>) {
        let _ = buf;
    }

    /// Restores the state written by [`NodeProgram::save_state`] into a
    /// freshly constructed program (the factory runs first, then this).
    ///
    /// The default accepts only an empty blob — matching the default
    /// `save_state` — and rejects anything else, so forgetting to override
    /// one of the pair is a loud [`CodecError`](crate::transport::CodecError)
    /// at restore time, never a silently wrong resume.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::transport::CodecError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(crate::transport::CodecError::Oversized {
                expected: 0,
                got: bytes.len(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::{log_n_upper_bound, KnowledgeModel};
    use freelunch_graph::MultiGraph;

    fn sample_graph() -> CsrGraph {
        let mut g = MultiGraph::new(3);
        g.add_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        g.add_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        g.freeze()
    }

    fn sample_knowledge(graph: &CsrGraph, model: KnowledgeModel) -> Vec<InitialKnowledge<'_>> {
        let bound = log_n_upper_bound(graph.node_count(), 1).unwrap();
        graph
            .nodes()
            .map(|node| InitialKnowledge::new(graph, node, model, bound))
            .collect()
    }

    fn ports_of(node: u32) -> Vec<IncidentEdge> {
        sample_graph().incident_edges(NodeId::new(node)).to_vec()
    }

    fn endpoints_table() -> Vec<[u32; 2]> {
        // The real construction the engine feeds Context with.
        sample_graph().endpoint_table()
    }

    #[test]
    fn context_exposes_local_view() {
        let graph = sample_graph();
        let knowledge = sample_knowledge(&graph, KnowledgeModel::UniqueEdgeIds);
        let ports = ports_of(0);
        let endpoints = endpoints_table();
        let mut outbox = Vec::new();
        let ctx: Context<'_, u32> =
            Context::new(knowledge[0], &ports, &endpoints, 3, 1, 0, &mut outbox);
        assert_eq!(ctx.node(), NodeId::new(0));
        assert_eq!(ctx.degree(), 2);
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.ports().len(), 2);
        assert!(ctx.log_n_upper_bound() >= 2);
        assert_eq!(ctx.outbox.len(), 0);
    }

    #[test]
    fn send_and_broadcast_queue_resolved_messages() {
        let graph = sample_graph();
        let knowledge = sample_knowledge(&graph, KnowledgeModel::UniqueEdgeIds);
        let ports = ports_of(0);
        let endpoints = endpoints_table();
        let mut outbox = Vec::new();
        let mut ctx: Context<'_, &'static str> =
            Context::new(knowledge[0], &ports, &endpoints, 1, 1, 0, &mut outbox);
        ctx.send(EdgeId::new(0), "hello");
        assert_eq!(ctx.outbox.len(), 1);
        let sent = ctx.broadcast("all");
        assert_eq!(sent, 2);
        assert_eq!(ctx.outbox.len(), 3);
        assert!(ctx.error.is_none());
        // Every queued message already knows its receiver.
        assert_eq!(outbox[0].receiver, NodeId::new(1));
        assert_eq!(outbox[1].receiver, NodeId::new(1));
        assert_eq!(outbox[2].receiver, NodeId::new(2));
    }

    #[test]
    fn invalid_sends_are_rejected_at_send_time() {
        let graph = sample_graph();
        let knowledge = sample_knowledge(&graph, KnowledgeModel::UniqueEdgeIds);
        // Node 1 is incident to edge 0 only.
        let ports = ports_of(1);
        let endpoints = endpoints_table();
        let mut outbox: Vec<Outgoing<u8>> = Vec::new();
        let mut ctx = Context::new(knowledge[1], &ports, &endpoints, 1, 1, 0, &mut outbox);
        // Edge 1 connects 0 and 2: not incident to node 1.
        ctx.send(EdgeId::new(1), 9);
        assert_eq!(
            ctx.error,
            Some(RuntimeError::NotIncident {
                node: NodeId::new(1),
                edge: EdgeId::new(1)
            })
        );
        // A later unknown-edge send does not overwrite the first error, and
        // neither send queues a message.
        ctx.send(EdgeId::new(99), 9);
        assert!(matches!(ctx.error, Some(RuntimeError::NotIncident { .. })));
        assert_eq!(ctx.outbox.len(), 0);
    }

    #[test]
    fn unknown_edge_is_distinguished_from_non_incident() {
        let graph = sample_graph();
        let knowledge = sample_knowledge(&graph, KnowledgeModel::UniqueEdgeIds);
        let ports = ports_of(0);
        let endpoints = endpoints_table();
        let mut outbox: Vec<Outgoing<u8>> = Vec::new();
        let mut ctx = Context::new(knowledge[0], &ports, &endpoints, 1, 1, 0, &mut outbox);
        ctx.send(EdgeId::new(999), 1);
        assert_eq!(
            ctx.error,
            Some(RuntimeError::UnknownEdge {
                edge: EdgeId::new(999)
            })
        );
    }

    #[test]
    fn send_port_works_under_every_model() {
        for model in [
            KnowledgeModel::Kt0,
            KnowledgeModel::UniqueEdgeIds,
            KnowledgeModel::Kt1,
        ] {
            let graph = sample_graph();
            let knowledge = sample_knowledge(&graph, model);
            let ports = ports_of(0);
            let endpoints = endpoints_table();
            let mut outbox = Vec::new();
            let mut ctx: Context<'_, u8> =
                Context::new(knowledge[0], &ports, &endpoints, 1, 1, 0, &mut outbox);
            assert!(ctx.send_port(1, 5));
            assert!(!ctx.send_port(99, 5));
            assert_eq!(ctx.outbox.len(), 1);
        }
    }

    #[test]
    fn halt_flag_is_recorded() {
        let graph = sample_graph();
        let knowledge = sample_knowledge(&graph, KnowledgeModel::Kt1);
        let ports = ports_of(1);
        let endpoints = endpoints_table();
        let mut outbox: Vec<Outgoing<()>> = Vec::new();
        let mut ctx = Context::new(knowledge[1], &ports, &endpoints, 1, 1, 0, &mut outbox);
        assert!(!ctx.halted);
        ctx.halt();
        assert!(ctx.halted);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        use rand::Rng;
        let graph = sample_graph();
        let knowledge = sample_knowledge(&graph, KnowledgeModel::Kt1);
        let ports = ports_of(0);
        let endpoints = endpoints_table();
        let mut outbox: Vec<Outgoing<()>> = Vec::new();
        let mut draw = |seed: u64, pos: u64| -> (u64, u64) {
            let mut ctx = Context::new(knowledge[0], &ports, &endpoints, 1, seed, pos, &mut outbox);
            assert_eq!(ctx.rng_position(), pos);
            let value = ctx.rng().gen();
            (value, ctx.rng_position())
        };
        assert_eq!(draw(9, 0), draw(9, 0));
        assert_ne!(draw(9, 0).0, draw(10, 0).0);
        // A step that starts at a stored position continues the stream: two
        // steps drawing one word pair each equal one generator drawn twice.
        let mut reference = ChaCha8Rng::seed_from_u64(node_seed(9, 0));
        let (first, pos) = draw(9, 0);
        assert_eq!((first, pos), (reference.gen(), 2));
        assert_eq!(draw(9, pos), (reference.gen(), 4));
    }
}
