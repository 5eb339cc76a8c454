//! Recovery matrix: the crash-recovery contract of `docs/RECOVERY.md`.
//!
//! The pinned property is **kill-and-resume ≡ uninterrupted**: interrupting
//! an execution at any round boundary, serializing a [`NetworkCheckpoint`]
//! through its on-disk byte format, dropping every piece of live state, and
//! restoring must produce outputs, [`ExecutionMetrics`], [`MessageLedger`]
//! and [`Trace`] bit-identical to the run that was never interrupted — for
//! every algorithm with checkpoint hooks, at shard counts 1/2/8, on the
//! in-process, mock and TCP backends, and under composed fault + churn
//! plans. The TCP rows additionally drill the self-healing plane: a killed
//! rank relaunched from its checkpoint rejoins the surviving mesh through
//! the [`RejoinHello`] handshake under [`RecoveryPolicy::Retry`], a stale
//! checkpoint is rejected as desynchronized on *both* sides, and a dead or
//! silent peer surfaces a timely `PeerDead` instead of hanging.
//!
//! [`RejoinHello`]: freelunch::runtime::RejoinHello

use freelunch::algorithms::{BallGathering, LubyMis, RandomizedColoring};
use freelunch::graph::generators::{
    barabasi_albert, sparse_connected_erdos_renyi, sparse_planted_partition, GeneratorConfig,
};
use freelunch::graph::{MultiGraph, NodeId};
use freelunch::runtime::transport::{
    InProcessTransport, MockTransport, RecoveryPolicy, TcpConfig, TcpTransport, WireCodec,
};
use freelunch::runtime::{
    ChurnPlan, ExecutionMetrics, FaultPlan, InitialKnowledge, MessageLedger, Network,
    NetworkCheckpoint, NetworkConfig, NodeProgram, RuntimeError, Transport,
};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

fn workloads() -> Vec<(&'static str, MultiGraph)> {
    vec![
        (
            "sparse-er",
            sparse_connected_erdos_renyi(&GeneratorConfig::new(64, 41), 5.0).unwrap(),
        ),
        (
            "scale-free",
            barabasi_albert(&GeneratorConfig::new(64, 42), 3).unwrap(),
        ),
        (
            "communities",
            sparse_planted_partition(&GeneratorConfig::new(64, 43), 4, 7.0, 1.0).unwrap(),
        ),
    ]
}

/// The checkpoint rounds to interrupt at, given the uninterrupted run took
/// `total` rounds: round 0 (before initialization), round 1, the middle
/// and the last boundary.
fn kill_rounds(total: u32) -> Vec<u32> {
    let candidates = [0, 1, total / 2, total.saturating_sub(1)];
    candidates
        .into_iter()
        .filter(|&r| r <= total)
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .collect()
}

/// Runs `factory`'s program uninterrupted, then for every kill round: runs
/// a second execution to that round, captures a checkpoint, round-trips it
/// through the on-disk byte format, **drops the live network**, restores,
/// finishes the run, and asserts every observable matches the uninterrupted
/// reference bit-for-bit. `rounds` limits fault/churn scenarios that never
/// halt: `Some(r)` runs exactly `r` rounds instead of running to quiescence.
#[allow(clippy::too_many_arguments)]
fn assert_kill_resume_identity<P, O, T>(
    graph: &MultiGraph,
    seed: u64,
    budget: u32,
    rounds: Option<u32>,
    plan: &FaultPlan,
    churn: &ChurnPlan,
    shards: usize,
    traced: bool,
    make_transport: impl Fn() -> T,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy,
    extract: impl Fn(&P) -> O + Copy,
    label: &str,
) where
    P: NodeProgram,
    P::Message: WireCodec,
    T: Transport<P::Message>,
    O: PartialEq + Debug,
{
    let config = if traced {
        NetworkConfig::with_seed(seed)
            .traced(100_000)
            .sharded(shards)
    } else {
        NetworkConfig::with_seed(seed).sharded(shards)
    };
    let run_to_end = |network: &mut Network<P, T>| match rounds {
        Some(total) => {
            let remaining = total - network.current_round();
            network.run_rounds(remaining)
        }
        None => network.run_until_halt(budget),
    };

    let mut reference = Network::with_plans(
        graph,
        config,
        plan.clone(),
        churn.clone(),
        make_transport(),
        factory,
    )
    .unwrap();
    run_to_end(&mut reference).unwrap_or_else(|e| panic!("{label}: uninterrupted run: {e}"));
    let total = reference.current_round();
    let ref_outputs: Vec<O> = reference.programs().iter().map(extract).collect();
    let ref_metrics = reference.metrics().clone();
    let ref_ledger = reference.ledger().clone();
    let ref_trace = reference.trace().clone();

    for kill in kill_rounds(total) {
        let mut victim = Network::with_plans(
            graph,
            config,
            plan.clone(),
            churn.clone(),
            make_transport(),
            factory,
        )
        .unwrap();
        victim.run_rounds(kill).unwrap();
        let checkpoint = victim.checkpoint();
        assert_eq!(checkpoint.round, kill, "{label}: checkpoint round");
        // The crash: every piece of live state is gone. Only the serialized
        // checkpoint (the on-disk byte format, not the in-memory struct)
        // survives the boundary.
        drop(victim);
        let bytes = checkpoint.to_bytes();
        let reloaded = NetworkCheckpoint::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{label}/kill@{kill}: reload: {e}"));
        assert_eq!(checkpoint, reloaded, "{label}/kill@{kill}: byte round-trip");

        let mut resumed = Network::restore_with_plans(
            graph,
            plan.clone(),
            churn.clone(),
            make_transport(),
            &reloaded,
            factory,
        )
        .unwrap_or_else(|e| panic!("{label}/kill@{kill}: restore: {e}"));
        assert_eq!(resumed.current_round(), kill, "{label}/kill@{kill}");
        run_to_end(&mut resumed).unwrap_or_else(|e| panic!("{label}/kill@{kill}: resume: {e}"));

        assert_eq!(
            resumed.current_round(),
            total,
            "{label}/kill@{kill}: rounds"
        );
        let outputs: Vec<O> = resumed.programs().iter().map(extract).collect();
        assert_eq!(ref_outputs, outputs, "{label}/kill@{kill}: outputs differ");
        assert_eq!(
            &ref_metrics,
            resumed.metrics(),
            "{label}/kill@{kill}: metrics differ"
        );
        assert_eq!(
            &ref_ledger,
            resumed.ledger(),
            "{label}/kill@{kill}: ledgers differ"
        );
        assert_eq!(
            &ref_trace,
            resumed.trace(),
            "{label}/kill@{kill}: traces differ"
        );
    }
}

#[test]
fn luby_mis_kill_resume_is_bit_identical_in_process() {
    for (name, graph) in workloads() {
        for shards in SHARD_COUNTS {
            assert_kill_resume_identity(
                &graph,
                1,
                300,
                None,
                &FaultPlan::none(),
                &ChurnPlan::none(),
                shards,
                true,
                InProcessTransport::new,
                |_, knowledge| LubyMis::new(knowledge.degree()),
                LubyMis::state,
                &format!("luby-mis/{name}/{shards}sh"),
            );
        }
    }
}

#[test]
fn randomized_coloring_kill_resume_is_bit_identical_in_process() {
    for (name, graph) in workloads() {
        for shards in SHARD_COUNTS {
            assert_kill_resume_identity(
                &graph,
                2,
                400,
                None,
                &FaultPlan::none(),
                &ChurnPlan::none(),
                shards,
                true,
                InProcessTransport::new,
                |_, knowledge| RandomizedColoring::new(knowledge.degree()),
                RandomizedColoring::color,
                &format!("coloring/{name}/{shards}sh"),
            );
        }
    }
}

#[test]
fn ball_gathering_kill_resume_is_bit_identical_in_process() {
    for (name, graph) in workloads() {
        for shards in SHARD_COUNTS {
            assert_kill_resume_identity(
                &graph,
                3,
                50,
                None,
                &FaultPlan::none(),
                &ChurnPlan::none(),
                shards,
                true,
                InProcessTransport::new,
                |node, _| BallGathering::new(node, 3),
                BallGathering::known_ids,
                &format!("ball-gathering/{name}/{shards}sh"),
            );
        }
    }
}

#[test]
fn kill_resume_is_bit_identical_on_the_mock_backend() {
    // The wire-faithful mock: every pending payload crosses the checkpoint
    // as its encoded bytes *and* every delivered payload crosses the
    // barrier encode/decoded, so this row pins both codec paths at once.
    for (name, graph) in workloads() {
        for shards in SHARD_COUNTS {
            assert_kill_resume_identity(
                &graph,
                1,
                300,
                None,
                &FaultPlan::none(),
                &ChurnPlan::none(),
                shards,
                false,
                MockTransport::new,
                |_, knowledge| LubyMis::new(knowledge.degree()),
                LubyMis::state,
                &format!("mock/luby-mis/{name}/{shards}sh"),
            );
        }
    }
}

#[test]
fn kill_resume_is_bit_identical_under_composed_fault_and_churn_plans() {
    // The hardest row: seeded drops + a crash fault composed with a mixed
    // churn stream. The checkpoint does not store the ChaCha streams — both
    // drivers re-derive their positions from the round counter — so this is
    // the test that pins keyed-stream restorability. Fixed round count:
    // heavily disturbed executions may legitimately never quiesce.
    for (name, graph) in workloads() {
        let n = graph.node_count();
        let plan = FaultPlan::new(301)
            .with_drop_probability(0.1)
            .with_crash(NodeId::from_usize(n / 2), 3);
        let churn = ChurnPlan::new(203)
            .with_insert_rate(0.03)
            .with_delete_rate(0.03)
            .with_node_leave(2, NodeId::from_usize(n / 3))
            .with_node_join(5, NodeId::from_usize(n / 3));
        for shards in SHARD_COUNTS {
            assert_kill_resume_identity(
                &graph,
                7,
                0,
                Some(12),
                &plan,
                &churn,
                shards,
                true,
                InProcessTransport::new,
                |node, _| BallGathering::new(node, 20),
                BallGathering::known_ids,
                &format!("faults+churn/{name}/{shards}sh"),
            );
        }
    }
}

#[test]
fn checkpoint_files_round_trip_and_reject_torn_or_corrupt_bytes() {
    let (_, graph) = workloads().remove(0);
    let mut network = Network::new(
        &graph,
        NetworkConfig::with_seed(5).traced(10_000),
        |node, _| BallGathering::new(node, 3),
    )
    .unwrap();
    network.run_rounds(2).unwrap();
    let checkpoint = network.checkpoint();

    let dir = std::env::temp_dir().join(format!("freelunch-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("round2.flcp");
    checkpoint.write_to_file(&path).unwrap();
    let reloaded = NetworkCheckpoint::read_from_file(&path).unwrap();
    assert_eq!(checkpoint, reloaded, "file round-trip");

    let bytes = std::fs::read(&path).unwrap();
    // A torn write: every strict prefix must be rejected with a precise
    // RuntimeError::Checkpoint, never a panic or a silent partial restore.
    for cut in [0, 7, 23, 24, bytes.len() / 2, bytes.len() - 1] {
        let torn = dir.join(format!("torn-{cut}.flcp"));
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        let err = NetworkCheckpoint::read_from_file(&torn).unwrap_err();
        let reason = match &err {
            RuntimeError::Checkpoint { reason } => reason.clone(),
            other => panic!("torn@{cut}: wrong error kind: {other}"),
        };
        assert!(
            reason.contains("torn") || reason.contains("truncated"),
            "torn@{cut}: reason does not name the tear: {reason}"
        );
        assert!(
            reason.contains("torn-"),
            "torn@{cut}: reason does not name the file: {reason}"
        );
    }
    // Bit rot in the body must fail the checksum (named as corruption).
    for flip in [24, 40, bytes.len() - 1] {
        let mut rotten = bytes.clone();
        rotten[flip] ^= 0x40;
        let err = NetworkCheckpoint::from_bytes(&rotten).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "flip@{flip}: {err}");
    }
    // A corrupted header magic is diagnosed before any checksum work.
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xFF;
    let err = NetworkCheckpoint::from_bytes(&wrong_magic).unwrap_err();
    assert!(err.to_string().contains("header"), "magic: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restore_rejects_a_checkpoint_from_a_different_topology() {
    let mut w = workloads();
    let graph_b = w.remove(1).1;
    let graph_a = w.remove(0).1;
    let factory = |node: NodeId, _: &InitialKnowledge| BallGathering::new(node, 3);
    let mut network = Network::new(&graph_a, NetworkConfig::with_seed(5), factory).unwrap();
    network.run_rounds(1).unwrap();
    let checkpoint = network.checkpoint();
    let err = Network::restore_with_plans(
        &graph_b,
        FaultPlan::none(),
        ChurnPlan::none(),
        InProcessTransport::new(),
        &checkpoint,
        factory,
    )
    .unwrap_err();
    assert!(
        matches!(&err, RuntimeError::Checkpoint { reason } if reason.contains("graph")),
        "topology mismatch not diagnosed: {err}"
    );
}

// ---------------------------------------------------------------------------
// TCP rows: the self-healing plane.
// ---------------------------------------------------------------------------

/// One rank's view of a finished TCP execution.
type RankView<O> = (Vec<O>, ExecutionMetrics, MessageLedger);

fn bind_world(world: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
    let listeners: Vec<TcpListener> = (0..world)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers = listeners
        .iter()
        .map(|listener| listener.local_addr().unwrap())
        .collect();
    (listeners, peers)
}

/// The kill/relaunch drill: rank 1 runs `kill_round` rounds, checkpoints,
/// and crashes (network dropped, sockets closed). Rank 0, under
/// [`RecoveryPolicy::Retry`], blocks at the next barrier until rank 1 is
/// relaunched from the serialized checkpoint via
/// [`TcpTransport::resume_from`] and both ranks run to quiescence. Returns
/// both ranks' views plus rank 0's recovered-peer count.
fn tcp_kill_relaunch<P, O>(
    graph: &MultiGraph,
    seed: u64,
    budget: u32,
    shards: usize,
    kill_round: u32,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy + Send + Sync,
    extract: impl Fn(&P) -> O + Copy + Send + Sync,
) -> (Vec<RankView<O>>, u64)
where
    P: NodeProgram,
    P::Message: WireCodec,
    O: PartialEq + Debug + Send,
{
    let (mut listeners, peers) = bind_world(2);
    let victim_listener = listeners.pop().unwrap();
    let survivor_listener = listeners.pop().unwrap();
    std::thread::scope(|scope| {
        let survivor_peers = peers.clone();
        let survivor = scope.spawn(move || {
            let mut config = TcpConfig::new(0, survivor_peers)
                .with_recovery(RecoveryPolicy::Retry { attempts: 3 });
            // Bound the failure mode: a broken rejoin shows up in seconds,
            // not after 3 × 30 s.
            config.io_timeout = Duration::from_secs(10);
            let transport = TcpTransport::with_listener(survivor_listener, &config).unwrap();
            let mut network = Network::with_transport(
                graph,
                NetworkConfig::with_seed(seed).sharded(shards),
                FaultPlan::none(),
                transport,
                factory,
            )
            .unwrap();
            network.run_until_halt(budget).unwrap();
            let recovered = network.transport().recovered_peers_total();
            let owned = network.owned_nodes();
            let outputs: Vec<O> = network.programs()[owned].iter().map(extract).collect();
            let view = (outputs, network.metrics().clone(), network.ledger().clone());
            (view, recovered)
        });

        let victim_peers = peers.clone();
        let victim = scope.spawn(move || {
            let config = TcpConfig::new(1, victim_peers);
            let transport = TcpTransport::with_listener(victim_listener, &config).unwrap();
            let mut network = Network::with_transport(
                graph,
                NetworkConfig::with_seed(seed).sharded(shards),
                FaultPlan::none(),
                transport,
                factory,
            )
            .unwrap();
            network.run_rounds(kill_round).unwrap();
            let checkpoint = network.checkpoint();
            // The crash: network (and with it every socket and the
            // listener) dropped. Only the serialized bytes survive.
            drop(network);
            checkpoint.to_bytes()
        });
        let checkpoint_bytes = victim.join().unwrap();

        let relaunch_peers = peers.clone();
        let relauncher = scope.spawn(move || {
            let checkpoint = NetworkCheckpoint::from_bytes(&checkpoint_bytes).unwrap();
            let config = TcpConfig::new(1, relaunch_peers);
            let transport =
                TcpTransport::resume_from(&config, checkpoint.round, checkpoint.fault_totals())
                    .unwrap();
            let mut network = Network::restore_with_plans(
                graph,
                FaultPlan::none(),
                ChurnPlan::none(),
                transport,
                &checkpoint,
                factory,
            )
            .unwrap();
            network.run_until_halt(budget).unwrap();
            let owned = network.owned_nodes();
            let outputs: Vec<O> = network.programs()[owned].iter().map(extract).collect();
            (outputs, network.metrics().clone(), network.ledger().clone())
        });

        let (survivor_view, recovered) = survivor.join().unwrap();
        let relaunched_view = relauncher.join().unwrap();
        (vec![survivor_view, relaunched_view], recovered)
    })
}

#[test]
fn tcp_rank_kill_and_relaunch_is_bit_identical_to_the_uninterrupted_run() {
    let (_, graph) = workloads().remove(0);
    let factory = |node: NodeId, _: &InitialKnowledge| BallGathering::new(node, 4);
    let extract = BallGathering::known_ids;

    // In-process reference: the global truth every rank must agree with.
    let mut reference = Network::new(&graph, NetworkConfig::with_seed(9), factory).unwrap();
    reference.run_until_halt(20).unwrap();
    let ref_outputs: Vec<Vec<u32>> = reference.programs().iter().map(extract).collect();
    let ref_metrics = reference.metrics().clone();
    let ref_ledger = reference.ledger().clone();

    for shards in SHARD_COUNTS {
        let kill_round = 2;
        let (views, recovered) =
            tcp_kill_relaunch(&graph, 9, 20, shards, kill_round, factory, extract);
        assert_eq!(recovered, 1, "{shards}sh: survivor re-admitted one peer");
        let spliced: Vec<Vec<u32>> = views
            .iter()
            .flat_map(|(outputs, _, _)| outputs.iter().cloned())
            .collect();
        assert_eq!(ref_outputs, spliced, "{shards}sh: outputs differ");
        for (rank, (_, metrics, ledger)) in views.iter().enumerate() {
            // The symmetric stats exchange survives the crash: the
            // relaunched rank and the survivor both end with the identical
            // global ledger of the run that was never interrupted.
            assert_eq!(&ref_metrics, metrics, "{shards}sh: rank {rank} metrics");
            assert_eq!(&ref_ledger, ledger, "{shards}sh: rank {rank} ledger");
        }
    }
}

#[test]
fn tcp_rejoin_with_a_stale_checkpoint_is_rejected_on_both_sides() {
    let (_, graph) = workloads().remove(0);
    let factory = |node: NodeId, _: &InitialKnowledge| BallGathering::new(node, 4);
    let (mut listeners, peers) = bind_world(2);
    let victim_listener = listeners.pop().unwrap();
    let survivor_listener = listeners.pop().unwrap();
    let graph = &graph;

    let (survivor_err, relaunch_err) = std::thread::scope(|scope| {
        let survivor_peers = peers.clone();
        let survivor = scope.spawn(move || {
            let mut config = TcpConfig::new(0, survivor_peers)
                .with_recovery(RecoveryPolicy::Retry { attempts: 2 });
            config.io_timeout = Duration::from_secs(5);
            let transport = TcpTransport::with_listener(survivor_listener, &config).unwrap();
            let mut network = Network::with_transport(
                graph,
                NetworkConfig::with_seed(9),
                FaultPlan::none(),
                transport,
                factory,
            )
            .unwrap();
            network.run_until_halt(20).unwrap_err()
        });

        let victim_peers = peers.clone();
        let victim = scope.spawn(move || {
            let config = TcpConfig::new(1, victim_peers);
            let transport = TcpTransport::with_listener(victim_listener, &config).unwrap();
            let mut network = Network::with_transport(
                graph,
                NetworkConfig::with_seed(9),
                FaultPlan::none(),
                transport,
                factory,
            )
            .unwrap();
            // Checkpoint at round 1, then keep running through round 2
            // before crashing — the checkpoint is now one round stale.
            network.run_rounds(1).unwrap();
            let checkpoint = network.checkpoint();
            network.run_rounds(1).unwrap();
            drop(network);
            checkpoint.to_bytes()
        });
        let stale_bytes = victim.join().unwrap();

        let relaunch_peers = peers.clone();
        let relauncher = scope.spawn(move || {
            let checkpoint = NetworkCheckpoint::from_bytes(&stale_bytes).unwrap();
            assert_eq!(checkpoint.round, 1);
            let config = TcpConfig::new(1, relaunch_peers);
            TcpTransport::<Arc<[u32]>>::resume_from(
                &config,
                checkpoint.round,
                checkpoint.fault_totals(),
            )
            .map(|_| ())
            .unwrap_err()
        });

        (survivor.join().unwrap(), relauncher.join().unwrap())
    });

    // The survivor names both rounds and the remediation…
    let survivor_msg = survivor_err.to_string();
    assert!(
        survivor_msg.contains("desynchronized") && survivor_msg.contains("resumes at round 1"),
        "survivor: {survivor_msg}"
    );
    assert!(
        survivor_msg.contains("this barrier is at round 3"),
        "survivor: {survivor_msg}"
    );
    // …and the rejoiner learns it was rejected, with the same numbers.
    let relaunch_msg = relaunch_err.to_string();
    assert!(
        relaunch_msg.contains("rejected the rejoin as desynchronized")
            && relaunch_msg.contains("barrier is at round 3"),
        "rejoiner: {relaunch_msg}"
    );
}

#[test]
fn tcp_peer_eof_surfaces_peer_dead_promptly_under_fail_fast() {
    let (_, graph) = workloads().remove(0);
    let factory = |node: NodeId, _: &InitialKnowledge| BallGathering::new(node, 4);
    let (mut listeners, peers) = bind_world(2);
    let victim_listener = listeners.pop().unwrap();
    let survivor_listener = listeners.pop().unwrap();
    let graph = &graph;

    let (err, elapsed) = std::thread::scope(|scope| {
        let survivor_peers = peers.clone();
        let survivor = scope.spawn(move || {
            // Deliberately generous io_timeout: an EOF (crashed peer) must
            // surface immediately, not after a liveness deadline.
            let config = TcpConfig::new(0, survivor_peers);
            let transport = TcpTransport::with_listener(survivor_listener, &config).unwrap();
            let mut network = Network::with_transport(
                graph,
                NetworkConfig::with_seed(9),
                FaultPlan::none(),
                transport,
                factory,
            )
            .unwrap();
            network.run_rounds(1).unwrap();
            let started = Instant::now();
            let err = network.run_until_halt(20).unwrap_err();
            (err, started.elapsed())
        });

        let victim_peers = peers.clone();
        let victim = scope.spawn(move || {
            let config = TcpConfig::new(1, victim_peers);
            let transport = TcpTransport::with_listener(victim_listener, &config).unwrap();
            let mut network = Network::with_transport(
                graph,
                NetworkConfig::with_seed(9),
                FaultPlan::none(),
                transport,
                factory,
            )
            .unwrap();
            network.run_rounds(1).unwrap();
            // Crash between barriers; the survivor reads EOF at round 2.
        });
        victim.join().unwrap();
        survivor.join().unwrap()
    });

    let msg = err.to_string();
    assert!(
        msg.contains("PeerDead") && msg.contains("rank 1"),
        "unexpected error: {msg}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "EOF took {elapsed:?} to surface — hung toward the 30 s io_timeout"
    );
}

#[test]
fn tcp_silent_peer_is_declared_dead_within_the_liveness_deadline() {
    let (_, graph) = workloads().remove(0);
    let factory = |node: NodeId, _: &InitialKnowledge| BallGathering::new(node, 4);
    let (mut listeners, peers) = bind_world(2);
    let silent_listener = listeners.pop().unwrap();
    let survivor_listener = listeners.pop().unwrap();
    let graph = &graph;
    let io_timeout = Duration::from_millis(300);
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();

    let (err, elapsed) = std::thread::scope(|scope| {
        let survivor_peers = peers.clone();
        let survivor = scope.spawn(move || {
            let mut config = TcpConfig::new(0, survivor_peers);
            config.io_timeout = io_timeout;
            let transport = TcpTransport::with_listener(survivor_listener, &config).unwrap();
            let mut network = Network::with_transport(
                graph,
                NetworkConfig::with_seed(9),
                FaultPlan::none(),
                transport,
                factory,
            )
            .unwrap();
            let started = Instant::now();
            let err = network.run_round().unwrap_err();
            let elapsed = started.elapsed();
            done_tx.send(()).unwrap();
            (err, elapsed)
        });

        let silent_peers = peers.clone();
        let silent = scope.spawn(move || {
            let config = TcpConfig::new(1, silent_peers);
            // A live, connected, handshaken peer that never sends a frame:
            // the pathological "slow" peer the liveness deadline exists for.
            let transport: TcpTransport<Arc<[u32]>> =
                TcpTransport::with_listener(silent_listener, &config).unwrap();
            done_rx.recv().unwrap();
            drop(transport);
        });
        let result = survivor.join().unwrap();
        silent.join().unwrap();
        result
    });

    let msg = err.to_string();
    assert!(
        msg.contains("PeerDead") && msg.contains("poll"),
        "unexpected error: {msg}"
    );
    assert!(
        elapsed >= io_timeout,
        "declared dead after {elapsed:?}, before the {io_timeout:?} liveness deadline"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "took {elapsed:?} — hung far past the {io_timeout:?} liveness deadline"
    );
}
