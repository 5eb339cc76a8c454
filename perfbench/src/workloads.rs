//! The workloads. Each one sets up several times (reporting every set-up
//! time), then repeats its measured operation until the run's time is
//! spent, and finally runs its untimed verification replays.
//!
//! A workload never panics on a wrong result: an error or a failed invariant
//! becomes the `error` of the operation that produced it, so the run still
//! prints its record and counts the failure.

use crate::trace::Tracer;
use freelunch_algorithms::{is_maximal_independent_set, BallGathering, LubyMis, MisState};
use freelunch_baselines::flooding::direct_flooding;
use freelunch_bench::{experiment_params, ScalingWorkload, Workload};
use freelunch_core::reduction::simulate::simulate_with_spanner;
use freelunch_core::reduction::tlocal::t_local_broadcast;
use freelunch_core::Sampler;
use freelunch_graph::MultiGraph;
use freelunch_runtime::{
    Context, Envelope, ExecutionMetrics, FaultPlan, MessageLedger, Network, NetworkConfig,
    NodeProgram, TcpConfig, TcpTransport, Transport,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 3] = ["mis-er", "simulate-dense", "pulse-tcp"];

/// Set-ups of `mis-er` before its operations (`setup_s` is their median).
/// The other workloads set up afresh before every operation, so their
/// set-up samples spread over the whole run.
const MIS_SETUPS: usize = 3;
/// Set-up-only passes of `pulse-tcp` before each measured pass.
const SETUP_ONLY_PASSES: usize = 2;
/// Measured operations per run, however short `--seconds` is.
pub const MIN_OPS: usize = 2;

/// Seed of the engine's per-node random streams. The graph generator and
/// the Sampler take the workload seed.
const NETWORK_SEED: u64 = 7;
/// Locality of the t-local broadcast, the flood and the simulated algorithm.
const T: u32 = 2;
/// Liveness deadline of the two TCP ranks: a stalled frame exchange fails
/// the pass within seconds instead of hanging for the 30 s default.
const TCP_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Input sizes: `full` is the benchmark, `tiny` the self-test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub mis_n: usize,
    pub simulate_n: usize,
    pub pulse_n: usize,
    pub pulse_rounds: u32,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        mis_n: 1 << 20,
        simulate_n: 1024,
        pulse_n: 1 << 14,
        pulse_rounds: 201,
    };
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        mis_n: 1 << 10,
        simulate_n: 96,
        pulse_n: 1 << 9,
        pulse_rounds: 21,
    };
}

pub type Counts = Vec<(&'static str, u64)>;

/// One measured operation (`run_s` set) or one verification replay.
#[derive(Debug, Default)]
pub struct Op {
    pub run_s: Option<f64>,
    pub traced: bool,
    pub messages: u64,
    pub counts: Counts,
    pub error: Option<String>,
}

impl Op {
    fn failed(error: String) -> Op {
        Op {
            error: Some(error),
            ..Op::default()
        }
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub shards: usize,
    pub setup_s: Vec<f64>,
    pub ops: Vec<Op>,
    /// Round latencies of untraced operations, where a run has enough rounds
    /// for a tail (`pulse-tcp`); empty elsewhere.
    pub round_ms: Vec<f64>,
    /// Exact per-layer counts of one operation.
    pub layer_counts: Counts,
}

pub struct Ctx<'a> {
    pub seed: u64,
    pub sizes: Sizes,
    pub seconds: f64,
    pub trace: bool,
    pub tracer: &'a mut Tracer,
    /// Peak resident memory through set-up and the first operation: what
    /// one execution of the workload needs. Later repetitions in the same
    /// process only add allocator retention, which varies run to run.
    pub first_op_peak_rss_mib: Option<f64>,
}

impl Ctx<'_> {
    /// In a traced run every other operation is traced, so the run can
    /// report tracing overhead against its own untraced operations.
    fn begin_op(&mut self, index: usize) -> bool {
        if index == 1 {
            self.first_op_peak_rss_mib = Some(crate::env::peak_rss_mib());
        }
        let traced = self.trace && index % 2 == 1;
        self.tracer.set_enabled(traced);
        self.tracer.set_trace_id(index as u32 + 1000);
        traced
    }

    fn begin_setup(&mut self, index: usize) {
        self.tracer.set_enabled(self.trace);
        self.tracer.set_trace_id(index as u32);
    }

    fn begin_checks(&mut self) {
        self.tracer.set_enabled(self.trace);
        self.tracer.set_trace_id(u32::MAX);
    }

    fn more_ops(&self, started: Instant, done: usize) -> bool {
        done < MIN_OPS || started.elapsed().as_secs_f64() < self.seconds
    }
}

pub fn run(name: &str, ctx: &mut Ctx<'_>) -> Result<Outcome, String> {
    match name {
        "mis-er" => Ok(mis_er(ctx)),
        "simulate-dense" => Ok(simulate_dense(ctx)),
        "pulse-tcp" => Ok(pulse_tcp(ctx)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        )),
    }
}

/// Exact counts of one operation at full size and graph seed 42.
pub fn reference(name: &str) -> Counts {
    match name {
        "mis-er" => vec![
            ("rounds", 11),
            ("messages", 24_760_930),
            ("payload_bytes", 396_174_880),
        ],
        "simulate-dense" => vec![
            ("spanner_edges", 23_811),
            ("sampler_messages", 179_248),
            ("direct_rounds", 2),
            ("direct_messages", 424_644),
            ("simulated_messages", 369_098),
            ("mismatches", 0),
            ("broadcast_messages", 189_850),
            ("coverage_violations", 0),
            ("flood_messages", 424_644),
            ("payload_bytes", 177_589_256),
        ],
        "pulse-tcp" => vec![
            ("rounds", 201),
            ("messages", 33_095_856),
            ("payload_bytes", 264_766_848),
            ("digest", 0xc741_8866_e8f9_f676),
        ],
        _ => Vec::new(),
    }
}

fn err(context: &str, error: impl std::fmt::Display) -> String {
    format!("{context}: {error}")
}

fn build_graph(
    ctx: &mut Ctx<'_>,
    build: impl FnOnce() -> Result<MultiGraph, String>,
) -> Result<MultiGraph, String> {
    let graph = ctx.tracer.time("graph.generators.build", build)?;
    // Network::new freezes internally; this call times the csr layer alone.
    let csr = ctx.tracer.time("graph.csr.freeze", || graph.freeze());
    drop(csr);
    Ok(graph)
}

/// Sets up `count` times and returns the last set-up, freeing each one
/// before the next so peak memory is one set-up's. A failed set-up is
/// recorded as a failed operation and ends the run.
fn set_up<S>(
    ctx: &mut Ctx<'_>,
    out: &mut Outcome,
    count: usize,
    mut build: impl FnMut(&mut Ctx<'_>) -> Result<S, String>,
) -> Option<S> {
    let mut state = None;
    for _ in 0..count {
        drop(state.take());
        ctx.begin_setup(out.setup_s.len());
        let start = Instant::now();
        let span = ctx.tracer.enter("bench.setup");
        let built = build(ctx);
        ctx.tracer.exit(span);
        out.setup_s.push(start.elapsed().as_secs_f64());
        match built {
            Ok(built) => state = Some(built),
            Err(error) => {
                out.ops.push(Op::failed(error));
                return None;
            }
        }
    }
    state
}

/// Runs rounds until every node halted, one traced span per round.
fn run_rounds<P: NodeProgram, T: Transport<P::Message>>(
    network: &mut Network<P, T>,
    tracer: &mut Tracer,
    span: &'static str,
    budget: u32,
    mut round_ms: Option<&mut Vec<f64>>,
) -> Result<(), String> {
    tracer
        .time("runtime.engine.init", || network.initialize())
        .map_err(|e| err("initialize", e))?;
    let mut executed = 0;
    while !network.all_halted() {
        if executed == budget {
            return Err(format!("not halted after {budget} rounds"));
        }
        let start = Instant::now();
        tracer
            .time(span, || network.run_round())
            .map_err(|e| err("run_round", e))?;
        if let Some(samples) = round_ms.as_deref_mut() {
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        executed += 1;
    }
    Ok(())
}

// ---------------------------------------------------------------- mis-er

const MIS_BUDGET: u32 = 200;

fn mis_network(graph: &MultiGraph, tracer: &mut Tracer) -> Result<Network<LubyMis>, String> {
    let config = NetworkConfig::with_seed(NETWORK_SEED).sharded(2);
    tracer
        .time("runtime.engine.network_new", || {
            Network::new(graph, config, |_, k| LubyMis::new(k.degree()))
        })
        .map_err(|e| err("Network::new", e))
}

fn mis_er(ctx: &mut Ctx<'_>) -> Outcome {
    let mut out = Outcome {
        shards: 2,
        ..Outcome::default()
    };
    let (n, seed) = (ctx.sizes.mis_n, ctx.seed);
    let Some((graph, network)) = set_up(ctx, &mut out, MIS_SETUPS, |ctx| {
        let graph = build_graph(ctx, || {
            ScalingWorkload::ErdosRenyi
                .build(n, seed)
                .map_err(|e| err("generate", e))
        })?;
        let network = mis_network(&graph, ctx.tracer)?;
        Ok((graph, network))
    }) else {
        return out;
    };
    let mut network = Some(network);
    let started = Instant::now();
    let mut index = 0;
    while ctx.more_ops(started, index) {
        let traced = ctx.begin_op(index);
        index += 1;
        let mut net = match network.take() {
            Some(net) => net,
            None => match mis_network(&graph, ctx.tracer) {
                Ok(net) => net,
                Err(error) => {
                    out.ops.push(Op::failed(error));
                    break;
                }
            },
        };
        let start = Instant::now();
        let span = ctx.tracer.enter("bench.op");
        let result = run_rounds(
            &mut net,
            ctx.tracer,
            "runtime.engine.round",
            MIS_BUDGET,
            None,
        );
        ctx.tracer.exit(span);
        let run_s = start.elapsed().as_secs_f64();
        let cost = net.cost();
        let bytes = net.ledger().total_bytes();
        let states: Vec<MisState> = net.programs().iter().map(LubyMis::state).collect();
        drop(net);
        let mut op = Op {
            run_s: Some(run_s),
            traced,
            messages: cost.messages,
            counts: vec![
                ("rounds", cost.rounds),
                ("messages", cost.messages),
                ("payload_bytes", bytes),
            ],
            error: result.err(),
        };
        if op.error.is_none() {
            let valid = ctx.tracer.time("algorithms.mis.validate", || {
                is_maximal_independent_set(&graph, &states)
            });
            if !valid {
                op.error = Some("the result is not a maximal independent set".into());
            }
        }
        out.layer_counts = vec![
            ("runtime.engine.messages", cost.messages),
            ("runtime.metrics.payload_bytes", bytes),
        ];
        out.ops.push(op);
    }
    out
}

// -------------------------------------------------------- simulate-dense

fn dense_graph(ctx: &mut Ctx<'_>, n: usize) -> Result<MultiGraph, String> {
    let seed = ctx.seed;
    build_graph(ctx, || {
        Workload::DenseRandom
            .build(n, seed)
            .map_err(|e| err("generate", e))
    })
}

fn simulate_config() -> NetworkConfig {
    NetworkConfig::with_seed(NETWORK_SEED).sharded(2)
}

fn simulate_dense(ctx: &mut Ctx<'_>) -> Outcome {
    let mut out = Outcome {
        shards: 2,
        ..Outcome::default()
    };
    let (n, seed) = (ctx.sizes.simulate_n, ctx.seed);
    let params = experiment_params(2);
    let sampler = Sampler::new(params);
    let stretch = params.stretch_bound();
    let started = Instant::now();
    let mut index = 0;
    let mut direct_messages = 0;
    let mut graph = None;
    while ctx.more_ops(started, index) {
        drop(graph.take());
        let Some((built, spanner)) = set_up(ctx, &mut out, 1, |ctx| {
            let graph = dense_graph(ctx, n)?;
            let spanner = ctx
                .tracer
                .time("core.sampler.run", || sampler.run(&graph, seed))
                .map_err(|e| err("Sampler::run", e))?;
            Ok((graph, spanner))
        }) else {
            break;
        };
        let graph = &*graph.insert(built);
        let traced = ctx.begin_op(index);
        index += 1;
        let start = Instant::now();
        let span = ctx.tracer.enter("bench.op");
        let tracer = &mut *ctx.tracer;
        let result = (|| -> Result<_, String> {
            let report = tracer
                .time("core.simulate.call", || {
                    simulate_with_spanner(
                        graph,
                        spanner.spanner_edges(),
                        stretch,
                        spanner.cost,
                        T,
                        simulate_config(),
                        |node, _| BallGathering::new(node, T),
                        BallGathering::known_ids,
                        1,
                    )
                })
                .map_err(|e| err("simulate_with_spanner", e))?;
            // The pipeline's emulated stages, called on their own so each
            // layer gets its span: the t-local broadcast that the simulation
            // runs inside, its coverage check, and the direct flood baseline.
            let broadcast = tracer
                .time("core.tlocal.broadcast", || {
                    t_local_broadcast(graph, spanner.spanner_edges().iter().copied(), T, stretch)
                })
                .map_err(|e| err("t_local_broadcast", e))?;
            let violations = tracer
                .time("core.tlocal.coverage_check", || {
                    broadcast.coverage_violations(graph, T)
                })
                .map_err(|e| err("coverage_violations", e))?;
            let flood = tracer
                .time("baselines.flooding.run", || direct_flooding(graph, T))
                .map_err(|e| err("direct_flooding", e))?;
            Ok((report, broadcast.cost.messages, violations, flood))
        })();
        ctx.tracer.exit(span);
        let run_s = start.elapsed().as_secs_f64();
        let mut op = Op {
            run_s: Some(run_s),
            traced,
            ..Op::default()
        };
        match result {
            Ok((report, broadcast_messages, violations, flood)) => {
                let flood_messages = flood.broadcast.cost.messages;
                direct_messages = report.direct_cost.messages;
                op.messages = report.direct_cost.messages
                    + report.broadcast_cost.messages
                    + broadcast_messages
                    + flood_messages;
                op.counts = vec![
                    ("spanner_edges", spanner.spanner_size() as u64),
                    ("sampler_messages", spanner.cost.messages),
                    ("direct_rounds", report.direct_cost.rounds),
                    ("direct_messages", report.direct_cost.messages),
                    ("simulated_messages", report.simulated_cost.messages),
                    ("nodes_checked", report.nodes_checked as u64),
                    ("mismatches", report.mismatches as u64),
                    ("broadcast_messages", broadcast_messages),
                    ("coverage_violations", violations as u64),
                    ("flood_messages", flood_messages),
                ];
                out.layer_counts = vec![
                    ("core.sampler.spanner_edges", spanner.spanner_size() as u64),
                    ("core.sampler.messages", spanner.cost.messages),
                    ("core.tlocal.messages", broadcast_messages),
                    ("baselines.flooding.messages", flood_messages),
                ];
                if !report.outputs_match() {
                    op.error = Some(format!(
                        "{} simulated outputs differ from the direct run",
                        report.mismatches
                    ));
                } else if violations != 0 {
                    op.error = Some(format!(
                        "{violations} t-local broadcast coverage violations"
                    ));
                } else if broadcast_messages != report.broadcast_cost.messages {
                    op.error = Some(format!(
                        "the t-local broadcast sent {broadcast_messages} messages, \
                         the one inside the simulation {}",
                        report.broadcast_cost.messages
                    ));
                }
            }
            Err(error) => op.error = Some(error),
        }
        out.ops.push(op);
    }

    let Some(graph) = graph else {
        return out;
    };
    // Replay the direct execution on the engine to meter its payload bytes;
    // in a traced run this also splits the engine's share of the call.
    ctx.begin_checks();
    let mut check = Op::default();
    let replay = ctx
        .tracer
        .time("runtime.engine.network_new", || {
            Network::new(&graph, simulate_config(), |node, _| {
                BallGathering::new(node, T)
            })
        })
        .map_err(|e| err("Network::new", e))
        .and_then(|mut network| {
            run_rounds(&mut network, ctx.tracer, "runtime.engine.round", T, None)?;
            Ok(network)
        });
    match replay {
        Ok(network) => {
            let cost = network.cost();
            let bytes = network.ledger().total_bytes();
            check.counts = vec![("payload_bytes", bytes)];
            if cost.messages != direct_messages {
                check.error = Some(format!(
                    "engine replay sent {} messages, the simulation's direct run {direct_messages}",
                    cost.messages
                ));
            }
            out.layer_counts.extend([
                ("runtime.engine.messages", cost.messages),
                ("runtime.metrics.payload_bytes", bytes),
            ]);
        }
        Err(error) => check.error = Some(error),
    }
    out.ops.push(check);
    out
}

// ------------------------------------------------------------- pulse-tcp

/// The fixed-round neighbour exchange of `exp_scaling`: every node
/// broadcasts a mixing of everything it heard until round `rounds`.
struct PulseExchange {
    state: u64,
    rounds: u32,
}

impl NodeProgram for PulseExchange {
    type Message = u64;

    fn init(&mut self, ctx: &mut Context<'_, u64>) {
        self.state = u64::from(ctx.node().raw()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ctx.broadcast(self.state);
    }

    fn round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[Envelope<u64>]) {
        for envelope in inbox {
            self.state ^= envelope
                .payload
                .rotate_left(envelope.edge.raw() as u32 & 63);
        }
        if ctx.round() < self.rounds {
            ctx.broadcast(self.state);
        } else {
            ctx.halt();
        }
    }
}

/// Folds node states into one whole-output fingerprint, in node order.
fn digest(states: impl IntoIterator<Item = u64>) -> u64 {
    states
        .into_iter()
        .fold(0u64, |acc, state| acc.rotate_left(1) ^ state)
}

/// What one rank holds after its pass: its owned nodes' states and the
/// global metrics and ledger every rank merges.
struct RankResult {
    states: Vec<u64>,
    metrics: ExecutionMetrics,
    ledger: MessageLedger,
}

impl RankResult {
    fn of<T: Transport<u64>>(network: &Network<PulseExchange, T>) -> Self {
        RankResult {
            states: network.programs()[network.owned_nodes()]
                .iter()
                .map(|p| p.state)
                .collect(),
            metrics: network.metrics().clone(),
            ledger: network.ledger().clone(),
        }
    }
}

fn tcp_network(
    graph: &MultiGraph,
    listener: TcpListener,
    config: &TcpConfig,
    rounds: u32,
    tracer: &mut Tracer,
) -> Result<Network<PulseExchange, TcpTransport<u64>>, String> {
    let transport = tracer
        .time("runtime.transport.tcp.connect", || {
            TcpTransport::with_listener(listener, config)
        })
        .map_err(|e| err("TcpTransport::with_listener", e))?;
    tracer
        .time("runtime.engine.network_new", || {
            Network::with_transport(
                graph,
                NetworkConfig::with_seed(NETWORK_SEED),
                FaultPlan::none(),
                transport,
                |_, _| PulseExchange { state: 0, rounds },
            )
        })
        .map_err(|e| err("Network::with_transport", e))
}

/// One pass of `pulse-tcp`, measured from rank 0.
struct Pass {
    setup_s: f64,
    run_s: Option<f64>,
    /// The merged result; `None` for a set-up-only pass.
    result: Result<Option<RankResult>, String>,
}

/// Sets up two ranks over loopback and, if `run`, runs the exchange. Rank 1
/// runs on a second thread; set-up ends when both ranks have built their
/// networks, and rank 1 starts its rounds only when rank 0 does.
fn tcp_pass(ctx: &mut Ctx<'_>, run: bool, round_ms: Option<&mut Vec<f64>>) -> Pass {
    let (n, seed, rounds) = (ctx.sizes.pulse_n, ctx.seed, ctx.sizes.pulse_rounds);
    let setup_start = Instant::now();
    let setup_span = ctx.tracer.enter("bench.setup");
    let prepared = build_graph(ctx, || {
        ScalingWorkload::ErdosRenyi
            .build(n, seed)
            .map_err(|e| err("generate", e))
    })
    .and_then(|graph| {
        let bind = || TcpListener::bind("127.0.0.1:0").map_err(|e| err("bind", e));
        let listeners = [bind()?, bind()?];
        let peers = listeners
            .iter()
            .map(|l| l.local_addr().map_err(|e| err("local_addr", e)))
            .collect::<Result<Vec<SocketAddr>, String>>()?;
        Ok((graph, listeners, peers))
    });
    let (graph, [listener0, listener1], peers) = match prepared {
        Ok(prepared) => prepared,
        Err(error) => {
            ctx.tracer.exit(setup_span);
            return Pass {
                setup_s: setup_start.elapsed().as_secs_f64(),
                run_s: None,
                result: Err(error),
            };
        }
    };
    let config = |rank: usize| {
        let mut config = TcpConfig::new(rank, peers.clone());
        config.io_timeout = TCP_IO_TIMEOUT;
        config
    };
    let (config0, config1) = (config(0), config(1));
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (go_tx, go_rx) = mpsc::channel::<bool>();
    let mut peer_tracer = ctx.tracer.companion();
    let graph = &graph;
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || {
            let result = tcp_network(graph, listener1, &config1, rounds, &mut peer_tracer)
                .and_then(|mut network| {
                    // A closed channel means rank 0 failed; its error says why.
                    let _ = ready_tx.send(());
                    if go_rx.recv() != Ok(true) {
                        return Ok(None);
                    }
                    run_rounds(
                        &mut network,
                        &mut peer_tracer,
                        "runtime.transport.tcp.peer_round",
                        rounds + 1,
                        None,
                    )?;
                    Ok(Some(RankResult::of(&network)))
                });
            (result, peer_tracer)
        });
        let network =
            tcp_network(graph, listener0, &config0, rounds, ctx.tracer).and_then(|network| {
                ready_rx
                    .recv()
                    .map_err(|_| "rank 1 failed during set-up".to_string())?;
                Ok(network)
            });
        ctx.tracer.exit(setup_span);
        let setup_s = setup_start.elapsed().as_secs_f64();
        let go = run && network.is_ok();
        // Rank 1 may already be gone; its own result reports why.
        let _ = go_tx.send(go);
        let mut run_s = None;
        let rank0 = network.and_then(|mut network| {
            if !go {
                return Ok(None);
            }
            let start = Instant::now();
            let span = ctx.tracer.enter("bench.op");
            let ran = run_rounds(
                &mut network,
                ctx.tracer,
                "runtime.transport.tcp.round",
                rounds + 1,
                round_ms,
            );
            ctx.tracer.exit(span);
            run_s = Some(start.elapsed().as_secs_f64());
            ran.map(|()| Some(RankResult::of(&network)))
            // Dropping the network closes rank 0's sockets, so a rank 1
            // still waiting on a frame errors out instead of hanging.
        });
        let (rank1, peer_tracer) = match peer.join() {
            Ok(joined) => joined,
            Err(_) => (
                Err("rank 1 panicked".to_string()),
                Tracer::new(false, Instant::now()),
            ),
        };
        ctx.tracer.absorb(peer_tracer);
        let rank1 = rank1.map_err(|e| format!("rank 1: {e}"));
        let result = rank0.and_then(|rank0| match (rank0, rank1?) {
            (Some(mut merged), Some(rank1)) => {
                if rank1.metrics != merged.metrics || rank1.ledger != merged.ledger {
                    return Err("the two ranks disagree on the global metrics or ledger".into());
                }
                merged.states.extend(rank1.states);
                Ok(Some(merged))
            }
            (None, None) => Ok(None),
            _ => Err("only one rank ran the exchange".into()),
        });
        Pass {
            setup_s,
            run_s,
            result,
        }
    })
}

fn pulse_tcp(ctx: &mut Ctx<'_>) -> Outcome {
    let mut out = Outcome {
        shards: 1,
        ..Outcome::default()
    };
    let started = Instant::now();
    let mut first: Option<RankResult> = None;
    let mut index = 0;
    while ctx.more_ops(started, index) {
        // Every pass sets up anew (graph, handshake, both networks); the
        // set-up-only passes add set-up samples spread over the run.
        for _ in 0..SETUP_ONLY_PASSES {
            ctx.begin_setup(out.setup_s.len());
            let pass = tcp_pass(ctx, false, None);
            out.setup_s.push(pass.setup_s);
            if let Err(error) = pass.result {
                out.ops.push(Op::failed(error));
                return out;
            }
        }
        let traced = ctx.begin_op(index);
        index += 1;
        let pass = tcp_pass(ctx, true, (!traced).then_some(&mut out.round_ms));
        out.setup_s.push(pass.setup_s);
        let mut op = Op {
            run_s: pass.run_s,
            traced,
            ..Op::default()
        };
        match pass.result {
            Ok(Some(result)) => {
                op.messages = result.metrics.total_messages();
                op.counts = vec![
                    ("rounds", result.metrics.rounds()),
                    ("messages", result.metrics.total_messages()),
                    ("payload_bytes", result.ledger.total_bytes()),
                    ("digest", digest(result.states.iter().copied())),
                ];
                first.get_or_insert(result);
            }
            Ok(None) => op.error = Some("the pass did not run".into()),
            Err(error) => op.error = Some(error),
        }
        out.ops.push(op);
    }

    // The in-process replay every TCP pass must equal (each pass equals the
    // first through the per-operation count check).
    ctx.begin_checks();
    let mut check = Op::default();
    let (n, seed, rounds) = (ctx.sizes.pulse_n, ctx.seed, ctx.sizes.pulse_rounds);
    let replay = match first {
        None => Err("no TCP pass completed".to_string()),
        Some(tcp) => ScalingWorkload::ErdosRenyi
            .build(n, seed)
            .map_err(|e| err("generate", e))
            .and_then(|graph| {
                Network::new(&graph, NetworkConfig::with_seed(NETWORK_SEED), |_, _| {
                    PulseExchange { state: 0, rounds }
                })
                .map_err(|e| err("Network::new", e))
            })
            .and_then(|mut network| {
                run_rounds(
                    &mut network,
                    ctx.tracer,
                    "runtime.engine.round",
                    rounds + 1,
                    None,
                )?;
                Ok((tcp, network))
            }),
    };
    match replay {
        Ok((tcp, network)) => {
            let (tcp_digest, local_digest) = (
                digest(tcp.states.iter().copied()),
                digest(network.programs().iter().map(|p| p.state)),
            );
            check.counts = vec![("digest", local_digest)];
            if tcp_digest != local_digest {
                check.error = Some(format!(
                    "TCP digest {tcp_digest:#018x} differs from the in-process replay {local_digest:#018x}"
                ));
            } else if network.ledger() != &tcp.ledger || network.metrics() != &tcp.metrics {
                check.error =
                    Some("TCP ledger or metrics differ from the in-process replay".into());
            }
            out.layer_counts = vec![
                ("runtime.engine.messages", tcp.metrics.total_messages()),
                ("runtime.metrics.payload_bytes", tcp.ledger.total_bytes()),
            ];
        }
        Err(error) => check.error = Some(error),
    }
    out.ops.push(check);
    out
}
