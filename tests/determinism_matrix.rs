//! Determinism matrix: every LOCAL algorithm in `algorithms/` runs on three
//! workload families with shard counts 1, 2 and 8 — under both trace modes,
//! so the serial *and* the parallel receiver-sharded round barrier are each
//! exercised — and every observable of the execution — program outputs,
//! per-round/per-node message metrics, the per-edge/per-round message
//! ledger, and the full message trace — must be bit-identical to the
//! sequential (1-shard) engine. The `baselines/` constructions are covered by replay
//! determinism: they drive their own deterministic processes (they do not
//! run on the `Network`), so the property to pin down is that equal seeds
//! reproduce equal outcomes regardless of what the engine is doing.

use freelunch::algorithms::{
    is_maximal_independent_set, is_maximal_matching, is_proper_coloring, BallGathering,
    LocalLeaderElection, LubyMis, MaximalMatching, RandomizedColoring,
};
use freelunch::baselines::{
    direct_flooding, gossip_broadcast, BaswanaSen, ClusterSpanner, GreedySpanner,
};
use freelunch::core::planner::{PathChoice, PlanReport, SchemePlanner};
use freelunch::core::spanner_api::SpannerAlgorithm;
use freelunch::graph::generators::{
    barabasi_albert, sparse_connected_erdos_renyi, sparse_planted_partition, GeneratorConfig,
};
use freelunch::graph::{MultiGraph, NodeId};
use freelunch::runtime::transport::{MockTransport, TcpConfig, TcpTransport, WireCodec};
use freelunch::runtime::{
    Context, Envelope, ExecutionMetrics, FaultPlan, InitialKnowledge, MessageLedger, Network,
    NetworkConfig, NodeProgram, Trace, TraceMode, DEFAULT_CHUNK_SIZE,
};
use std::fmt::Debug;
use std::net::{SocketAddr, TcpListener};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn workloads() -> Vec<(&'static str, MultiGraph)> {
    vec![
        (
            "sparse-er",
            sparse_connected_erdos_renyi(&GeneratorConfig::new(96, 11), 6.0).unwrap(),
        ),
        (
            "scale-free",
            barabasi_albert(&GeneratorConfig::new(96, 12), 3).unwrap(),
        ),
        (
            "communities",
            sparse_planted_partition(&GeneratorConfig::new(96, 13), 4, 8.0, 1.0).unwrap(),
        ),
    ]
}

/// Runs `factory`'s program under every shard count and asserts that
/// outputs, metrics and traces all match the sequential execution exactly.
/// Returns the sequential outputs for algorithm-specific validation.
fn assert_shard_invariant<P, O>(
    graph: &MultiGraph,
    seed: u64,
    budget: u32,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy,
    extract: impl Fn(&P) -> O,
    label: &str,
) -> Vec<O>
where
    P: NodeProgram,
    O: PartialEq + Debug,
{
    // Both trace modes matter: `Full` pins the serial barrier (and the
    // trace itself), `Off` pins the parallel receiver-sharded barrier the
    // untraced hot path uses. Outputs, metrics and ledger must agree across
    // *all* (mode × shard count) combinations; traces are compared within
    // the Full mode.
    let mut reference: Option<(Vec<O>, ExecutionMetrics, MessageLedger)> = None;
    let mut trace_reference: Option<Trace> = None;
    for trace_mode in [TraceMode::Full, TraceMode::Off] {
        for shards in SHARD_COUNTS {
            let config = NetworkConfig::with_seed(seed)
                .traced(100_000)
                .trace_mode(trace_mode)
                .sharded(shards);
            let mut network = Network::new(graph, config, factory).unwrap();
            network.run_until_halt(budget).unwrap_or_else(|e| {
                panic!("{label}: did not halt at {shards} shards ({trace_mode:?}): {e}")
            });
            let outputs: Vec<O> = network.programs().iter().map(&extract).collect();
            let metrics = network.metrics().clone();
            let ledger = network.ledger().clone();
            let where_ = format!("{shards} shards ({trace_mode:?})");
            match &reference {
                None => reference = Some((outputs, metrics, ledger)),
                Some((ref_outputs, ref_metrics, ref_ledger)) => {
                    assert_eq!(ref_outputs, &outputs, "{label}: outputs differ at {where_}");
                    assert_eq!(
                        ref_metrics, &metrics,
                        "{label}: message metrics differ at {where_}"
                    );
                    assert_eq!(
                        ref_ledger, &ledger,
                        "{label}: message ledgers differ at {where_}"
                    );
                }
            }
            if trace_mode == TraceMode::Full {
                let trace = network.trace().clone();
                match &trace_reference {
                    None => trace_reference = Some(trace),
                    Some(ref_trace) => {
                        assert_eq!(ref_trace, &trace, "{label}: traces differ at {where_}")
                    }
                }
            }
        }
    }
    reference.expect("at least one shard count ran").0
}

#[test]
fn luby_mis_is_shard_invariant_and_valid() {
    for (name, graph) in workloads() {
        let states = assert_shard_invariant(
            &graph,
            1,
            300,
            |_, knowledge| LubyMis::new(knowledge.degree()),
            LubyMis::state,
            &format!("luby-mis/{name}"),
        );
        assert!(is_maximal_independent_set(&graph, &states), "{name}");
    }
}

#[test]
fn randomized_coloring_is_shard_invariant_and_valid() {
    for (name, graph) in workloads() {
        let colors = assert_shard_invariant(
            &graph,
            2,
            400,
            |_, knowledge| RandomizedColoring::new(knowledge.degree()),
            RandomizedColoring::color,
            &format!("coloring/{name}"),
        );
        assert!(is_proper_coloring(&graph, &colors), "{name}");
    }
}

#[test]
fn ball_gathering_is_shard_invariant() {
    for (name, graph) in workloads() {
        assert_shard_invariant(
            &graph,
            3,
            50,
            |node, _| BallGathering::new(node, 2),
            BallGathering::known_ids,
            &format!("ball-gathering/{name}"),
        );
    }
}

#[test]
fn leader_election_is_shard_invariant() {
    for (name, graph) in workloads() {
        assert_shard_invariant(
            &graph,
            4,
            50,
            |node, _| LocalLeaderElection::new(node, 2),
            LocalLeaderElection::leader,
            &format!("leader/{name}"),
        );
    }
}

#[test]
fn maximal_matching_is_shard_invariant_and_valid() {
    for (name, graph) in workloads() {
        let matched = assert_shard_invariant(
            &graph,
            5,
            300,
            |_, _| MaximalMatching::new(),
            MaximalMatching::matched_over,
            &format!("matching/{name}"),
        );
        assert!(is_maximal_matching(&graph, &matched), "{name}");
    }
}

/// A parity-pattern probe for the mailbox plane: every node
/// broadcasts only in odd rounds, so inboxes must be non-empty exactly in
/// even rounds. A stale message leaking from a reused (but undrained)
/// mailbox buffer would surface as a non-empty inbox in an odd round — the
/// program asserts the exact expected inbox size every round, across many
/// rounds, which also pins down that messages are delivered exactly once.
struct ParityPulse {
    rounds: u32,
    deliveries: u64,
}

impl NodeProgram for ParityPulse {
    type Message = u32;

    fn round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[Envelope<u32>]) {
        let round = ctx.round();
        if round % 2 == 1 {
            assert!(
                inbox.is_empty(),
                "node {} saw {} stale message(s) in odd round {round}",
                ctx.node(),
                inbox.len()
            );
            ctx.broadcast(round);
        } else {
            assert_eq!(
                inbox.len(),
                ctx.degree(),
                "node {} expected one message per incident edge in even round {round}",
                ctx.node()
            );
            for envelope in inbox {
                assert_eq!(envelope.payload, round - 1, "message from a wrong round");
            }
            self.deliveries += inbox.len() as u64;
        }
        if round >= self.rounds {
            ctx.halt();
        }
    }
}

#[test]
fn mailboxes_are_fully_drained_between_rounds() {
    for (name, graph) in workloads() {
        let mut reference: Option<Vec<u64>> = None;
        for shards in SHARD_COUNTS {
            let config = NetworkConfig::with_seed(6).sharded(shards);
            let mut network = Network::new(&graph, config, |_, _| ParityPulse {
                rounds: 8,
                deliveries: 0,
            })
            .unwrap();
            network.run_until_halt(9).unwrap();
            // Four odd-round broadcast waves of 2m messages each, every one
            // delivered exactly once.
            let m = graph.edge_count() as u64;
            assert_eq!(network.cost().messages, 4 * 2 * m, "{name}/{shards}");
            let deliveries: Vec<u64> = network
                .into_programs()
                .into_iter()
                .map(|p| p.deliveries)
                .collect();
            assert_eq!(deliveries.iter().sum::<u64>(), 4 * 2 * m, "{name}/{shards}");
            match &reference {
                None => reference = Some(deliveries),
                Some(expected) => {
                    assert_eq!(expected, &deliveries, "{name}: differs at {shards} shards")
                }
            }
        }
    }
}

#[test]
fn trace_mode_off_changes_no_other_observable() {
    for (name, graph) in workloads() {
        for shards in SHARD_COUNTS {
            let run = |mode: TraceMode| {
                let config = NetworkConfig::with_seed(8)
                    .traced(100_000)
                    .trace_mode(mode)
                    .sharded(shards);
                let mut network = Network::new(&graph, config, |_, knowledge| {
                    LubyMis::new(knowledge.degree())
                })
                .unwrap();
                network.run_until_halt(300).unwrap();
                let states: Vec<_> = network.programs().iter().map(LubyMis::state).collect();
                (
                    states,
                    network.metrics().clone(),
                    network.ledger().clone(),
                    network.trace().total(),
                )
            };
            let full = run(TraceMode::Full);
            let off = run(TraceMode::Off);
            assert_eq!(full.0, off.0, "{name}/{shards}: outputs differ");
            assert_eq!(full.1, off.1, "{name}/{shards}: metrics differ");
            assert_eq!(full.2, off.2, "{name}/{shards}: ledgers differ");
            // The trace itself is the one observable TraceMode governs.
            assert_eq!(full.3, full.1.total_messages(), "{name}/{shards}");
            assert_eq!(off.3, 0, "{name}/{shards}");
        }
    }
}

/// One full observable set of an execution, for cross-backend comparison.
type Observables<O> = (Vec<O>, ExecutionMetrics, MessageLedger);

/// Runs `factory`'s program on the in-process backend (untraced — the wire
/// backends cannot trace).
fn in_process_run<P, O>(
    graph: &MultiGraph,
    seed: u64,
    budget: u32,
    shards: usize,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy,
    extract: impl Fn(&P) -> O,
) -> Observables<O>
where
    P: NodeProgram,
    O: PartialEq + Debug,
{
    let config = NetworkConfig::with_seed(seed).sharded(shards);
    let mut network = Network::new(graph, config, factory).unwrap();
    network.run_until_halt(budget).unwrap();
    let outputs = network.programs().iter().map(extract).collect();
    (outputs, network.metrics().clone(), network.ledger().clone())
}

/// Runs the same execution as a two-process group over localhost TCP: two
/// `Network` instances (one per rank, in threads), each stepping its owned
/// half of the nodes, exchanging one frame per peer per round. Returns the
/// spliced outputs plus *both* ranks' metrics/ledgers — the symmetric stats
/// exchange must leave every rank with the identical global view.
fn tcp_run<P, O>(
    graph: &MultiGraph,
    seed: u64,
    budget: u32,
    shards: usize,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy + Send + Sync,
    extract: impl Fn(&P) -> O + Copy + Send + Sync,
) -> Vec<Observables<O>>
where
    P: NodeProgram,
    P::Message: WireCodec,
    O: PartialEq + Debug + Send,
{
    const WORLD: usize = 2;
    // Bind every rank's listener first (port 0 = OS-assigned), so the
    // rendezvous has no port race by construction.
    let listeners: Vec<TcpListener> = (0..WORLD)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<SocketAddr> = listeners
        .iter()
        .map(|listener| listener.local_addr().unwrap())
        .collect();
    let mut per_rank: Vec<Observables<O>> = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let config = TcpConfig::new(rank, peers.clone());
                scope.spawn(move || {
                    let transport = TcpTransport::with_listener(listener, &config).unwrap();
                    let mut network = Network::with_transport(
                        graph,
                        NetworkConfig::with_seed(seed).sharded(shards),
                        FaultPlan::none(),
                        transport,
                        factory,
                    )
                    .unwrap();
                    network.run_until_halt(budget).unwrap();
                    let owned = network.owned_nodes();
                    let outputs: Vec<O> = network.programs()[owned].iter().map(extract).collect();
                    (outputs, network.metrics().clone(), network.ledger().clone())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect()
    });
    // Owned ranges are ascending and contiguous, so concatenating the
    // per-rank outputs in rank order reassembles the full node order.
    let spliced: Vec<O> = per_rank
        .iter_mut()
        .flat_map(|(outputs, _, _)| outputs.drain(..))
        .collect();
    per_rank[0].0 = spliced;
    per_rank
}

/// The cross-backend identity contract of `docs/TRANSPORT.md`: the same
/// program + workload + seed produces bit-identical outputs,
/// [`ExecutionMetrics`] and [`MessageLedger`] on the in-process backend (at
/// every shard count), on the wire-faithful mock (every payload
/// encode/decoded), and on a two-rank TCP execution over localhost (where
/// additionally *both* ranks must hold the identical global view).
fn assert_backend_invariant<P, O>(
    graph: &MultiGraph,
    seed: u64,
    budget: u32,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy + Send + Sync,
    extract: impl Fn(&P) -> O + Copy + Send + Sync,
    label: &str,
) where
    P: NodeProgram,
    P::Message: WireCodec,
    O: PartialEq + Debug + Send,
{
    let (ref_outputs, ref_metrics, ref_ledger) =
        in_process_run(graph, seed, budget, 1, factory, extract);
    for shards in SHARD_COUNTS {
        let config = NetworkConfig::with_seed(seed).sharded(shards);
        let mut mock_network = Network::with_transport(
            graph,
            config,
            FaultPlan::none(),
            MockTransport::new(),
            factory,
        )
        .unwrap();
        mock_network.run_until_halt(budget).unwrap();
        let mock_outputs: Vec<O> = mock_network.programs().iter().map(extract).collect();
        assert_eq!(
            ref_outputs, mock_outputs,
            "{label}: mock outputs differ at {shards} shards"
        );
        assert_eq!(
            &ref_metrics,
            mock_network.metrics(),
            "{label}: mock metrics differ at {shards} shards"
        );
        assert_eq!(
            &ref_ledger,
            mock_network.ledger(),
            "{label}: mock ledger differs at {shards} shards"
        );

        for (rank, (outputs, metrics, ledger)) in
            tcp_run(graph, seed, budget, shards, factory, extract)
                .into_iter()
                .enumerate()
        {
            if rank == 0 {
                assert_eq!(
                    ref_outputs, outputs,
                    "{label}: TCP outputs differ at {shards} shards"
                );
            }
            assert_eq!(
                ref_metrics, metrics,
                "{label}: TCP rank {rank} metrics differ at {shards} shards"
            );
            assert_eq!(
                ref_ledger, ledger,
                "{label}: TCP rank {rank} ledger differs at {shards} shards"
            );
        }
    }
}

#[test]
fn luby_mis_is_backend_invariant() {
    for (name, graph) in workloads() {
        assert_backend_invariant(
            &graph,
            1,
            300,
            |_, knowledge| LubyMis::new(knowledge.degree()),
            LubyMis::state,
            &format!("luby-mis/{name}"),
        );
    }
}

#[test]
fn randomized_coloring_is_backend_invariant() {
    for (name, graph) in workloads() {
        assert_backend_invariant(
            &graph,
            2,
            400,
            |_, knowledge| RandomizedColoring::new(knowledge.degree()),
            RandomizedColoring::color,
            &format!("coloring/{name}"),
        );
    }
}

#[test]
fn ball_gathering_is_backend_invariant() {
    // Variable-length `Arc<[u32]>` payloads: the sizing law (4 bytes per
    // token) is what keeps the byte columns identical across backends.
    for (name, graph) in workloads() {
        assert_backend_invariant(
            &graph,
            3,
            50,
            |node, _| BallGathering::new(node, 2),
            BallGathering::known_ids,
            &format!("ball-gathering/{name}"),
        );
    }
}

#[test]
fn maximal_matching_is_backend_invariant() {
    for (name, graph) in workloads() {
        assert_backend_invariant(
            &graph,
            5,
            300,
            |_, _| MaximalMatching::new(),
            MaximalMatching::matched_over,
            &format!("matching/{name}"),
        );
    }
}

#[test]
fn neutral_mock_reproduces_the_canonical_trace() {
    // The mock supports tracing (it delivers serially in canonical order),
    // so with no disturbances even the *trace* must be bit-identical to the
    // in-process serial barrier — the strongest form of wire-faithfulness.
    for (name, graph) in workloads() {
        let run_traced = |mock: bool| {
            let config = NetworkConfig::with_seed(21).traced(100_000);
            let factory =
                |_: NodeId, knowledge: &InitialKnowledge| LubyMis::new(knowledge.degree());
            let trace = if mock {
                let mut network = Network::with_transport(
                    &graph,
                    config,
                    FaultPlan::none(),
                    MockTransport::new(),
                    factory,
                )
                .unwrap();
                network.run_until_halt(300).unwrap();
                network.trace().clone()
            } else {
                let mut network = Network::new(&graph, config, factory).unwrap();
                network.run_until_halt(300).unwrap();
                network.trace().clone()
            };
            trace
        };
        assert_eq!(run_traced(false), run_traced(true), "trace differs: {name}");
    }
}

/// The planner row of the matrix: a [`SchemePlanner`] decision and the full
/// self-auditing [`PlanReport`] are functions of (graph, seed) only — the
/// engine's shard count and trace mode must not leak into them, even when
/// the report carries an engine-measured direct ledger from that very
/// engine configuration. (The cross-*backend* half of this contract lives
/// in `tests/planner_matrix.rs`.)
#[test]
fn planner_reports_are_shard_and_trace_invariant() {
    let planner = SchemePlanner::new(2).unwrap();
    let second = ClusterSpanner::new(1).unwrap();
    for (name, graph) in workloads() {
        let plan = planner.plan_with_second_stage(&graph, &second).unwrap();
        // All three 96-node sparse families sit deep in the direct regime.
        assert_eq!(plan.decision, PathChoice::Direct, "{name}");
        let mut reference: Option<PlanReport> = None;
        for trace_mode in [TraceMode::Full, TraceMode::Off] {
            for shards in SHARD_COUNTS {
                let config = NetworkConfig::with_seed(9)
                    .traced(100_000)
                    .trace_mode(trace_mode)
                    .sharded(shards);
                let mut network =
                    Network::new(&graph, config, |node, _| BallGathering::new(node, 2)).unwrap();
                network.run_until_halt(50).unwrap();
                let mut report = plan.execute(&graph, 9, &second).unwrap();
                report.attach_engine_direct(network.ledger().clone());
                let where_ = format!("{name}: {shards} shards ({trace_mode:?})");
                match &reference {
                    None => reference = Some(report),
                    Some(expected) => {
                        assert_eq!(expected, &report, "{where_}: report differs");
                        assert_eq!(
                            format!("{expected:?}"),
                            format!("{report:?}"),
                            "{where_}: report rendering differs"
                        );
                    }
                }
            }
        }
    }
}

/// The scheduling-parity rows of the matrix: the chunked work-stealing
/// engine must be bit-identical to the sequential engine — outputs,
/// metrics, ledgers and traces — at every shard count and chunk size. The
/// 7-node chunk forces real stealing (≈14 chunks race between the workers
/// at n = 96); the default chunk collapses to one chunk per worker in the
/// execute phase; `⌈n/shards⌉` gives one contiguous range per shard in
/// both phases, the pre-stealing static partition.
fn assert_sched_parity<P, O>(
    graph: &MultiGraph,
    seed: u64,
    budget: u32,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy,
    extract: impl Fn(&P) -> O,
    label: &str,
) where
    P: NodeProgram,
    O: PartialEq + Debug,
{
    for trace_mode in [TraceMode::Full, TraceMode::Off] {
        let run = |shards: usize, chunk: usize| {
            let config = NetworkConfig::with_seed(seed)
                .traced(100_000)
                .trace_mode(trace_mode)
                .sharded(shards)
                .chunk_size(chunk);
            let mut network = Network::new(graph, config, factory).unwrap();
            network.run_until_halt(budget).unwrap();
            let outputs: Vec<O> = network.programs().iter().map(&extract).collect();
            (
                outputs,
                network.metrics().clone(),
                network.ledger().clone(),
                network.trace().clone(),
            )
        };
        let serial = run(1, DEFAULT_CHUNK_SIZE);
        for shards in SHARD_COUNTS {
            let one_range_per_shard = graph.node_count().div_ceil(shards);
            for chunk in [7, DEFAULT_CHUNK_SIZE, one_range_per_shard] {
                let parallel = run(shards, chunk);
                let where_ = format!("{label}: {shards} shards, chunk {chunk} ({trace_mode:?})");
                assert_eq!(serial.0, parallel.0, "{where_}: outputs differ");
                assert_eq!(serial.1, parallel.1, "{where_}: metrics differ");
                assert_eq!(serial.2, parallel.2, "{where_}: ledgers differ");
                assert_eq!(serial.3, parallel.3, "{where_}: traces differ");
            }
        }
    }
}

#[test]
fn luby_mis_is_scheduling_invariant() {
    for (name, graph) in workloads() {
        assert_sched_parity(
            &graph,
            1,
            300,
            |_, knowledge| LubyMis::new(knowledge.degree()),
            LubyMis::state,
            &format!("luby-mis/{name}"),
        );
    }
}

#[test]
fn randomized_coloring_is_scheduling_invariant() {
    for (name, graph) in workloads() {
        assert_sched_parity(
            &graph,
            2,
            400,
            |_, knowledge| RandomizedColoring::new(knowledge.degree()),
            RandomizedColoring::color,
            &format!("coloring/{name}"),
        );
    }
}

#[test]
fn ball_gathering_is_scheduling_invariant() {
    for (name, graph) in workloads() {
        assert_sched_parity(
            &graph,
            3,
            50,
            |node, _| BallGathering::new(node, 2),
            BallGathering::known_ids,
            &format!("ball-gathering/{name}"),
        );
    }
}

#[test]
fn maximal_matching_is_scheduling_invariant() {
    for (name, graph) in workloads() {
        assert_sched_parity(
            &graph,
            5,
            300,
            |_, _| MaximalMatching::new(),
            MaximalMatching::matched_over,
            &format!("matching/{name}"),
        );
    }
}

#[test]
fn baseline_constructions_replay_deterministically() {
    for (name, graph) in workloads() {
        let a = BaswanaSen::new(2).unwrap().construct(&graph, 7).unwrap();
        let b = BaswanaSen::new(2).unwrap().construct(&graph, 7).unwrap();
        assert_eq!(a.edges, b.edges, "baswana-sen/{name}");
        assert_eq!(a.cost, b.cost, "baswana-sen/{name}");

        let a = GreedySpanner::new(3).unwrap().construct(&graph, 7).unwrap();
        let b = GreedySpanner::new(3).unwrap().construct(&graph, 7).unwrap();
        assert_eq!(a.edges, b.edges, "greedy/{name}");

        let a = gossip_broadcast(&graph, 2, 7).unwrap();
        let b = gossip_broadcast(&graph, 2, 7).unwrap();
        assert_eq!(a, b, "gossip/{name}");

        let a = direct_flooding(&graph, 2).unwrap();
        let b = direct_flooding(&graph, 2).unwrap();
        assert_eq!(a, b, "flooding/{name}");
    }
}
