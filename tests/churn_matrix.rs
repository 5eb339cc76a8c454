//! The churn correctness matrix: algorithms × workloads × churn profiles ×
//! shard counts × backends.
//!
//! Every LOCAL algorithm runs on every workload family under every churn
//! profile (seeded insert streams, delete streams, mixed streams with
//! scheduled node leave/join, and churn combined with message faults), and
//! the suite asserts three layers:
//!
//! 1. **Cross-shard determinism** — outputs, metrics, the message ledger,
//!    the surviving topology (live edge count), crash state and the error
//!    outcome are bit-identical across shard counts {1, 2, 8} at equal
//!    `(network seed, plan)`, extending `tests/determinism_matrix.rs` and
//!    `tests/fault_matrix.rs` to dynamic graphs.
//! 2. **Empty-plan identity** — an installed but empty [`ChurnPlan`] is
//!    byte-identical to never installing a plan at all.
//! 3. **Backend independence** — churn is resolved in the engine *before*
//!    the round barrier hands frames to a transport, so the in-process
//!    backend, the wire-faithful mock (every payload encode/decoded) and a
//!    two-rank TCP execution over localhost (churn events ride the frame's
//!    churn section) agree on every observable, and both TCP ranks hold the
//!    identical global view.
//!
//! The event model and canonical application order the matrix pins down
//! are documented in `docs/CHURN.md`.

use freelunch::algorithms::{BallGathering, LubyMis, MaximalMatching, RandomizedColoring};
use freelunch::core::planner::SchemePlanner;
use freelunch::graph::generators::{
    barabasi_albert, sparse_connected_erdos_renyi, sparse_planted_partition, GeneratorConfig,
};
use freelunch::graph::{MultiGraph, NodeId};
use freelunch::runtime::transport::{
    InProcessTransport, MockTransport, TcpConfig, TcpTransport, Transport, WireCodec,
};
use freelunch::runtime::{
    ChurnPlan, ExecutionMetrics, FaultPlan, InitialKnowledge, MessageLedger, Network,
    NetworkConfig, NodeProgram,
};
use std::fmt::Debug;
use std::net::{SocketAddr, TcpListener};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Gathering horizon of the broadcast workload.
const BROADCAST_T: u32 = 2;

/// The workload families.
fn workloads() -> Vec<(&'static str, MultiGraph)> {
    vec![
        (
            "sparse-er",
            sparse_connected_erdos_renyi(&GeneratorConfig::new(64, 31), 5.0).unwrap(),
        ),
        (
            "scale-free",
            barabasi_albert(&GeneratorConfig::new(64, 32), 3).unwrap(),
        ),
        (
            "communities",
            sparse_planted_partition(&GeneratorConfig::new(64, 33), 4, 7.0, 1.0).unwrap(),
        ),
    ]
}

/// The mixed stream every grid shares: seeded insert *and* delete rates
/// plus a scheduled departure that later rejoins — so the matrix exercises
/// all four [`freelunch::runtime::ChurnEvent`] kinds every run.
fn mixed_plan(graph: &MultiGraph) -> ChurnPlan {
    let n = graph.node_count();
    ChurnPlan::new(203)
        .with_insert_rate(0.03)
        .with_delete_rate(0.03)
        .with_node_leave(2, NodeId::from_usize(n / 3))
        .with_node_join(5, NodeId::from_usize(n / 3))
}

/// The churn profiles of the matrix. Every profile carries both plans so
/// `churn+faults` can combine the mixed stream with an adversarial
/// [`FaultPlan`]; all other profiles leave the fault plan empty.
fn profiles(graph: &MultiGraph) -> Vec<(&'static str, FaultPlan, ChurnPlan)> {
    let n = graph.node_count();
    vec![
        ("none", FaultPlan::none(), ChurnPlan::none()),
        (
            "insert-only",
            FaultPlan::none(),
            ChurnPlan::new(201).with_insert_rate(0.05),
        ),
        (
            "delete-only",
            FaultPlan::none(),
            ChurnPlan::new(202).with_delete_rate(0.05),
        ),
        ("mixed", FaultPlan::none(), mixed_plan(graph)),
        (
            "churn+faults",
            FaultPlan::new(301)
                .with_drop_probability(0.1)
                .with_crash(NodeId::from_usize(n / 2), 3),
            mixed_plan(graph),
        ),
    ]
}

/// Everything observable about one (graph, plans, seed, shards, backend)
/// execution.
#[derive(Debug, Clone, PartialEq)]
struct Scenario<O> {
    outputs: Vec<O>,
    metrics: ExecutionMetrics,
    ledger: MessageLedger,
    crashed: Vec<NodeId>,
    /// Surviving topology after the run: `None` when no churn plan was
    /// installed, otherwise the overlay's live edge count.
    live_edges: Option<usize>,
    /// Stringified error if the run did not halt in budget (some churned
    /// scenarios legitimately never converge); must itself be deterministic.
    error: Option<String>,
}

/// Extracts the full observable set from a finished network.
fn observe<P, O, T>(
    network: &Network<P, T>,
    error: Option<String>,
    extract: impl Fn(&P) -> O,
) -> Scenario<O>
where
    P: NodeProgram,
    T: Transport<P::Message>,
{
    Scenario {
        outputs: network.programs().iter().map(&extract).collect(),
        metrics: network.metrics().clone(),
        ledger: network.ledger().clone(),
        crashed: network.crashed_nodes(),
        live_edges: network.churn_overlay().map(|o| o.live_edge_count()),
        error,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_scenario<P, O>(
    graph: &MultiGraph,
    faults: &FaultPlan,
    churn: &ChurnPlan,
    seed: u64,
    budget: u32,
    shards: usize,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy,
    extract: impl Fn(&P) -> O,
) -> Scenario<O>
where
    P: NodeProgram,
{
    let config = NetworkConfig::with_seed(seed).sharded(shards);
    let mut network = Network::with_plans(
        graph,
        config,
        faults.clone(),
        churn.clone(),
        InProcessTransport::new(),
        factory,
    )
    .unwrap();
    let error = network.run_until_halt(budget).err().map(|e| e.to_string());
    observe(&network, error, extract)
}

/// Drives one algorithm through the whole matrix: for every workload ×
/// profile it pins cross-shard bit-identity and (for `none`) the
/// empty-plan ≡ no-plan identity, then checks the grid is not vacuous.
fn drive<P, O>(
    algo: &str,
    seed: u64,
    budget: u32,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy,
    extract: impl Fn(&P) -> O + Copy,
) where
    P: NodeProgram,
    O: PartialEq + Debug + Clone,
{
    for (workload, graph) in workloads() {
        let mut baseline: Option<Scenario<O>> = None;
        let mut perturbed = false;
        for (profile, faults, churn) in profiles(&graph) {
            let label = format!("{algo}/{workload}/{profile}");
            let reference = run_scenario(
                &graph,
                &faults,
                &churn,
                seed,
                budget,
                SHARD_COUNTS[0],
                factory,
                extract,
            );
            for &shards in &SHARD_COUNTS[1..] {
                let sharded = run_scenario(
                    &graph, &faults, &churn, seed, budget, shards, factory, extract,
                );
                assert_eq!(reference, sharded, "{label}: differs at {shards} shards");
            }
            match profile {
                "none" => {
                    // An installed empty churn plan must be indistinguishable
                    // from no plan at all — byte for byte, down to not even
                    // materialising an overlay.
                    let config = NetworkConfig::with_seed(seed);
                    let mut network = Network::new(&graph, config, factory).unwrap();
                    let error = network.run_until_halt(budget).err().map(|e| e.to_string());
                    let bare = observe(&network, error, extract);
                    assert_eq!(reference, bare, "{label}: empty plan differs from no plan");
                    baseline = Some(reference);
                }
                _ => {
                    // The grid must bite per profile: a churn stream that
                    // moves no observable is not testing anything.
                    let base = baseline.as_ref().expect("none runs first");
                    let moved = base.outputs != reference.outputs
                        || base.metrics != reference.metrics
                        || base.live_edges != reference.live_edges;
                    perturbed |= moved;
                }
            }
        }
        assert!(
            perturbed,
            "{algo}/{workload}: no churn profile perturbed the execution — the matrix is vacuous"
        );
    }
}

#[test]
fn churn_matrix_mis() {
    drive(
        "luby-mis",
        1,
        300,
        |_, knowledge| LubyMis::new(knowledge.degree()),
        LubyMis::state,
    );
}

#[test]
fn churn_matrix_coloring() {
    drive(
        "coloring",
        2,
        400,
        |_, knowledge| RandomizedColoring::new(knowledge.degree()),
        RandomizedColoring::color,
    );
}

#[test]
fn churn_matrix_matching() {
    drive(
        "matching",
        3,
        150,
        |_, _| MaximalMatching::new(),
        MaximalMatching::matched_over,
    );
}

#[test]
fn churn_matrix_broadcast() {
    drive(
        "ball-gathering",
        4,
        BROADCAST_T + 6,
        |node, _| BallGathering::new(node, BROADCAST_T),
        BallGathering::known_ids,
    );
}

/// Runs the same plans over a two-process localhost TCP group: one
/// `Network` per rank in scoped threads, churn events riding each frame's
/// churn section. Returns every rank's scenario; rank 0's outputs are the
/// spliced global node order, later ranks keep only their owned slice (the
/// caller compares their metrics/ledger/topology views instead).
#[allow(clippy::too_many_arguments)]
fn tcp_scenarios<P, O>(
    graph: &MultiGraph,
    faults: &FaultPlan,
    churn: &ChurnPlan,
    seed: u64,
    budget: u32,
    shards: usize,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy + Send + Sync,
    extract: impl Fn(&P) -> O + Copy + Send + Sync,
) -> Vec<Scenario<O>>
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
    let mut per_rank: Vec<Scenario<O>> = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let config = TcpConfig::new(rank, peers.clone());
                scope.spawn(move || {
                    let transport = TcpTransport::with_listener(listener, &config).unwrap();
                    let mut network = Network::with_plans(
                        graph,
                        NetworkConfig::with_seed(seed).sharded(shards),
                        faults.clone(),
                        churn.clone(),
                        transport,
                        factory,
                    )
                    .unwrap();
                    let error = network.run_until_halt(budget).err().map(|e| e.to_string());
                    let owned = network.owned_nodes();
                    let mut scenario = observe(&network, error, extract);
                    scenario.outputs = network.programs()[owned].iter().map(extract).collect();
                    scenario
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
        .flat_map(|scenario| scenario.outputs.drain(..))
        .collect();
    per_rank[0].outputs = spliced;
    per_rank
}

/// Churn plane × transport: the [`ChurnPlan`] is resolved once in the
/// engine before the barrier hands frames to a backend, so the in-process
/// run, the wire-faithful mock and a two-rank TCP group must agree on
/// every observable — and both TCP ranks must hold the identical global
/// view (their stats exchange covers churn rounds too). A reduced grid
/// (first workload, every profile, shards {1, 2}) over two algorithms is
/// enough to pin this: any keying or ordering drift would desynchronise
/// the very first churned round.
#[test]
fn churn_resolution_is_backend_independent() {
    fn check<P, O>(
        algo: &str,
        seed: u64,
        budget: u32,
        factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy + Send + Sync,
        extract: impl Fn(&P) -> O + Copy + Send + Sync,
    ) where
        P: NodeProgram,
        P::Message: WireCodec,
        O: PartialEq + Debug + Clone + Send,
    {
        let (workload, graph) = workloads().remove(0);
        for (profile, faults, churn) in profiles(&graph) {
            let label = format!("{algo}/{workload}/{profile}");
            for shards in [1usize, 2] {
                let reference = run_scenario(
                    &graph, &faults, &churn, seed, budget, shards, factory, extract,
                );

                let config = NetworkConfig::with_seed(seed).sharded(shards);
                let mut network = Network::with_plans(
                    &graph,
                    config,
                    faults.clone(),
                    churn.clone(),
                    MockTransport::new(),
                    factory,
                )
                .unwrap();
                let error = network.run_until_halt(budget).err().map(|e| e.to_string());
                let mock = observe(&network, error, extract);
                assert_eq!(
                    reference, mock,
                    "{label}: mock backend diverged at {shards} shards"
                );

                for (rank, tcp) in tcp_scenarios(
                    &graph, &faults, &churn, seed, budget, shards, factory, extract,
                )
                .into_iter()
                .enumerate()
                {
                    if rank == 0 {
                        assert_eq!(
                            reference.outputs, tcp.outputs,
                            "{label}: TCP outputs differ at {shards} shards"
                        );
                    }
                    assert_eq!(
                        reference.metrics, tcp.metrics,
                        "{label}: TCP rank {rank} metrics differ at {shards} shards"
                    );
                    assert_eq!(
                        reference.ledger, tcp.ledger,
                        "{label}: TCP rank {rank} ledger differs at {shards} shards"
                    );
                    assert_eq!(
                        reference.crashed, tcp.crashed,
                        "{label}: TCP rank {rank} crash state differs at {shards} shards"
                    );
                    assert_eq!(
                        reference.live_edges, tcp.live_edges,
                        "{label}: TCP rank {rank} topology differs at {shards} shards"
                    );
                    assert_eq!(
                        reference.error, tcp.error,
                        "{label}: TCP rank {rank} error outcome differs at {shards} shards"
                    );
                }
            }
        }
    }
    check(
        "luby-mis",
        1,
        300,
        |_, knowledge| LubyMis::new(knowledge.degree()),
        LubyMis::state,
    );
    check(
        "ball-gathering",
        4,
        BROADCAST_T + 6,
        |node, _| BallGathering::new(node, BROADCAST_T),
        BallGathering::known_ids,
    );
}

/// The planner row of the churn matrix: a planner-driven run re-plans at
/// epoch boundaries from the live overlay via
/// [`SchemePlanner::plan_overlay`], which re-samples [`GraphStats`] from
/// the surviving topology. The per-epoch plan sequence must be
/// bit-identical across replays and across shard counts {1, 2, 8} (churn
/// resolution is engine-global), the decision must never flip mid-run on
/// these workloads, and the stream must actually move the sampled stats —
/// otherwise the row is vacuous.
///
/// [`GraphStats`]: freelunch::core::planner::GraphStats
#[test]
fn planner_replans_deterministically_under_churn() {
    let planner = SchemePlanner::new(BROADCAST_T).unwrap();
    for (workload, graph) in workloads() {
        let churn = mixed_plan(&graph);
        // Run the broadcast workload under the mixed stream, pausing every
        // two rounds (an "epoch") to re-plan from the live overlay.
        let epoch_plans = |shards: usize| {
            let config = NetworkConfig::with_seed(7).sharded(shards);
            let mut network = Network::with_plans(
                &graph,
                config,
                FaultPlan::none(),
                churn.clone(),
                InProcessTransport::new(),
                |node, _| BallGathering::new(node, BROADCAST_T),
            )
            .unwrap();
            let mut plans = Vec::new();
            for _epoch in 0..4 {
                network.run_rounds(2).unwrap();
                let overlay = network.churn_overlay().expect("churn plan installed");
                plans.push(planner.plan_overlay(overlay).unwrap());
            }
            plans
        };
        let reference = epoch_plans(SHARD_COUNTS[0]);
        let replay = epoch_plans(SHARD_COUNTS[0]);
        assert_eq!(reference, replay, "{workload}: replay diverged");
        assert_eq!(
            format!("{reference:?}"),
            format!("{replay:?}"),
            "{workload}: replay rendering diverged"
        );
        for &shards in &SHARD_COUNTS[1..] {
            assert_eq!(
                reference,
                epoch_plans(shards),
                "{workload}: plans differ at {shards} shards"
            );
        }
        for (epoch, plan) in reference.iter().enumerate() {
            assert_eq!(
                plan.decision, reference[0].decision,
                "{workload}: decision flipped at epoch {epoch}"
            );
        }
        assert!(
            reference
                .windows(2)
                .any(|pair| pair[0].stats != pair[1].stats),
            "{workload}: churn never moved the sampled stats — the planner row is vacuous"
        );
    }
}

/// The acceptance-criteria grid shape, pinned so a refactor cannot quietly
/// shrink the matrix: profiles {none, insert-only, delete-only, mixed,
/// churn+faults}, ≥ 3 workloads, shards {1, 2, 8}. (Four algorithms ride
/// through `drive` above.)
#[test]
fn matrix_grid_meets_the_acceptance_floor() {
    assert_eq!(SHARD_COUNTS, [1, 2, 8]);
    let graph = workloads().remove(0).1;
    let names: Vec<&str> = profiles(&graph).iter().map(|(name, _, _)| *name).collect();
    for required in ["none", "mixed", "churn+faults"] {
        assert!(names.contains(&required), "missing profile {required}");
    }
    assert!(names.contains(&"insert-only"));
    assert!(names.contains(&"delete-only"));
    assert!(workloads().len() >= 3);
    for (name, faults, churn) in profiles(&graph) {
        match name {
            // The clean profile must be truly empty on both planes.
            "none" => assert!(faults.is_empty() && churn.is_empty()),
            // Every churny profile actually schedules or streams something,
            // and only churn+faults carries an adversarial fault plan.
            "churn+faults" => assert!(!faults.is_empty() && !churn.is_empty()),
            _ => assert!(faults.is_empty() && !churn.is_empty(), "profile {name}"),
        }
        churn.validate().unwrap();
    }
}

/// The scheduling-parity row of the churn matrix: under the mixed churn
/// stream combined with message faults, the chunked work-stealing engine
/// must reproduce the sequential engine bit-for-bit, at 5-node chunks and
/// at one contiguous range per shard — churn events are resolved in
/// canonical order at the round barrier, before any worker claims a chunk,
/// so the surviving topology is scheduler-blind too.
#[test]
fn churn_matrix_scheduling_parity() {
    let graph = workloads().remove(0).1;
    let n = graph.node_count();
    let faults = FaultPlan::new(311)
        .with_drop_probability(0.1)
        .with_crash(NodeId::from_usize(n / 2), 3);
    let churn = mixed_plan(&graph);
    let run = |shards: usize, chunk: usize| {
        let config = NetworkConfig::with_seed(7)
            .sharded(shards)
            .chunk_size(chunk);
        let mut network = Network::with_plans(
            &graph,
            config,
            faults.clone(),
            churn.clone(),
            InProcessTransport::new(),
            |_, knowledge| LubyMis::new(knowledge.degree()),
        )
        .unwrap();
        let error = network.run_until_halt(300).err().map(|e| e.to_string());
        observe(&network, error, LubyMis::state)
    };
    let serial = run(1, 5);
    for shards in [2, 8] {
        for chunk in [5, n.div_ceil(shards)] {
            assert_eq!(
                serial,
                run(shards, chunk),
                "churned run differs at {shards} shards, chunk {chunk}"
            );
        }
    }
}
