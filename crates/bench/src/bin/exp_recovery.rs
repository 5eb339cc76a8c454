//! Recovery experiment: what crash-recoverability costs and how fast a
//! killed rank comes back (`docs/RECOVERY.md`).
//!
//! Two tables, every row asserted before it is written:
//!
//! 1. **Checkpoint cost vs. interval** — for each scaling workload, a
//!    Luby-MIS execution is checkpointed every 1/2/4/8 rounds through the
//!    full on-disk byte format. The table records how many checkpoints were
//!    taken, the serialized size (checkpoints grow with the round counter:
//!    the metrics/ledger columns are per-round), and the serialization
//!    latency — and every row first *proves* itself: the last checkpoint is
//!    restored, the run finished, and outputs, metrics and ledger asserted
//!    bit-identical to the uninterrupted reference.
//!
//! 2. **Recovery latency vs. backoff policy** — a two-rank localhost TCP
//!    execution in which rank 1 dies at a round boundary and is relaunched
//!    from its checkpoint under three connect-backoff profiles. The table
//!    records the rejoin latency (bind + dial + [`RejoinHello`] ack) and
//!    the restore latency, with both ranks' final ledgers asserted
//!    bit-identical to the uninterrupted run.
//!
//! Usage:
//!
//! ```sh
//! exp_recovery [OUTPUT.json] [--smoke]
//! ```
//!
//! `--smoke` shrinks the sweep for CI.
//!
//! [`RejoinHello`]: freelunch_runtime::RejoinHello

use freelunch_algorithms::{BallGathering, LubyMis};
use freelunch_bench::{
    cell_f64, cell_str, cell_u64, tables_to_json, ExperimentTable, ScalingWorkload,
};
use freelunch_graph::{MultiGraph, NodeId};
use freelunch_runtime::transport::{InProcessTransport, RecoveryPolicy, TcpConfig, TcpTransport};
use freelunch_runtime::{
    ChurnPlan, ExecutionMetrics, FaultPlan, InitialKnowledge, MessageLedger, Network,
    NetworkCheckpoint, NetworkConfig,
};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Workload / algorithm seed shared by every row.
const SEED: u64 = 42;
/// Round budget for every execution in the experiment.
const BUDGET: u32 = 300;

/// Reference observables of an uninterrupted run.
type Reference = (Vec<u8>, ExecutionMetrics, MessageLedger);

fn mis_factory(_: NodeId, knowledge: &InitialKnowledge) -> LubyMis {
    LubyMis::new(knowledge.degree())
}

fn mis_outputs(network: &Network<LubyMis>) -> Vec<u8> {
    network.programs().iter().map(|p| p.state() as u8).collect()
}

/// Runs Luby-MIS uninterrupted and returns its observables + round count.
fn uninterrupted(graph: &MultiGraph) -> (Reference, u32) {
    let mut network =
        Network::new(graph, NetworkConfig::with_seed(SEED), mis_factory).expect("network builds");
    network.run_until_halt(BUDGET).expect("reference halts");
    let reference = (
        mis_outputs(&network),
        network.metrics().clone(),
        network.ledger().clone(),
    );
    (reference, network.current_round())
}

/// One checkpoint-interval row: checkpoint every `interval` rounds through
/// the byte format, then prove the last checkpoint by restoring it and
/// finishing the run bit-identically. Returns
/// `(checkpoints, last_bytes, total_serialize, restore_and_replay)`.
fn measure_interval(
    graph: &MultiGraph,
    reference: &Reference,
    interval: u32,
) -> (u64, u64, Duration, Duration) {
    let mut network =
        Network::new(graph, NetworkConfig::with_seed(SEED), mis_factory).expect("network builds");
    let mut checkpoints = 0u64;
    let mut last_bytes: Vec<u8> = Vec::new();
    let mut serialize_total = Duration::ZERO;
    while !network.all_halted() {
        network.run_round().expect("round runs");
        if network.current_round() % interval == 0 || network.all_halted() {
            let started = Instant::now();
            last_bytes = network.checkpoint().to_bytes();
            serialize_total += started.elapsed();
            checkpoints += 1;
        }
    }

    // The crash: only the serialized bytes survive.
    drop(network);
    let restore_started = Instant::now();
    let checkpoint = NetworkCheckpoint::from_bytes(&last_bytes).expect("checkpoint reloads");
    let mut resumed = Network::restore_with_plans(
        graph,
        FaultPlan::none(),
        ChurnPlan::none(),
        InProcessTransport::new(),
        &checkpoint,
        mis_factory,
    )
    .expect("checkpoint restores");
    resumed.run_until_halt(BUDGET).expect("resumed run halts");
    let restore_elapsed = restore_started.elapsed();

    // The row's claim, proven before it is written.
    assert_eq!(
        &mis_outputs(&resumed),
        &reference.0,
        "interval {interval}: outputs diverged after restore"
    );
    assert_eq!(
        resumed.metrics(),
        &reference.1,
        "interval {interval}: metrics diverged after restore"
    );
    assert_eq!(
        resumed.ledger(),
        &reference.2,
        "interval {interval}: ledger diverged after restore"
    );

    (
        checkpoints,
        last_bytes.len() as u64,
        serialize_total,
        restore_elapsed,
    )
}

/// One backoff-profile row: a threaded two-rank TCP run over localhost in
/// which rank 1 dies after `kill_round` rounds and is relaunched from its
/// checkpoint. Returns `(rejoin, restore, total_rounds)` with both ranks'
/// ledgers asserted identical to `reference`.
fn measure_recovery(
    graph: &MultiGraph,
    reference: &(Vec<Vec<u32>>, ExecutionMetrics, MessageLedger),
    kill_round: u32,
    backoff_base: Duration,
    backoff_cap: Duration,
) -> (Duration, Duration, u64) {
    let factory = |node: NodeId, _: &InitialKnowledge| BallGathering::new(node, 6);
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let peers: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect();
    let mut listeners = listeners.into_iter();
    let survivor_listener = listeners.next().expect("listener 0");
    let victim_listener = listeners.next().expect("listener 1");

    std::thread::scope(|scope| {
        let survivor_peers = peers.clone();
        let survivor = scope.spawn(move || {
            let mut config = TcpConfig::new(0, survivor_peers)
                .with_recovery(RecoveryPolicy::Retry { attempts: 3 })
                .with_backoff(backoff_base, backoff_cap, SEED);
            config.io_timeout = Duration::from_secs(10);
            let transport = TcpTransport::with_listener(survivor_listener, &config).expect("mesh");
            let mut network = Network::with_transport(
                graph,
                NetworkConfig::with_seed(SEED),
                FaultPlan::none(),
                transport,
                factory,
            )
            .expect("network builds");
            network.run_until_halt(BUDGET).expect("survivor halts");
            (
                network.metrics().clone(),
                network.ledger().clone(),
                u64::from(network.current_round()),
            )
        });

        let victim_peers = peers.clone();
        let victim = scope.spawn(move || {
            let config = TcpConfig::new(1, victim_peers);
            let transport = TcpTransport::with_listener(victim_listener, &config).expect("mesh");
            let mut network = Network::with_transport(
                graph,
                NetworkConfig::with_seed(SEED),
                FaultPlan::none(),
                transport,
                factory,
            )
            .expect("network builds");
            network.run_rounds(kill_round).expect("victim runs");
            let bytes = network.checkpoint().to_bytes();
            drop(network); // the kill
            bytes
        });
        let checkpoint_bytes = victim.join().expect("victim thread");

        let relaunch_peers = peers.clone();
        let relauncher = scope.spawn(move || {
            let checkpoint =
                NetworkCheckpoint::from_bytes(&checkpoint_bytes).expect("checkpoint reloads");
            let config =
                TcpConfig::new(1, relaunch_peers).with_backoff(backoff_base, backoff_cap, SEED);
            let rejoin_started = Instant::now();
            let transport =
                TcpTransport::resume_from(&config, checkpoint.round, checkpoint.fault_totals())
                    .expect("rejoin admitted");
            let rejoin = rejoin_started.elapsed();
            let restore_started = Instant::now();
            let mut network = Network::restore_with_plans(
                graph,
                FaultPlan::none(),
                ChurnPlan::none(),
                transport,
                &checkpoint,
                factory,
            )
            .expect("checkpoint restores");
            network
                .run_until_halt(BUDGET)
                .expect("relaunched rank halts");
            let restore = restore_started.elapsed();
            (rejoin, restore, network.ledger().clone())
        });

        let (survivor_metrics, survivor_ledger, rounds) = survivor.join().expect("survivor");
        let (rejoin, restore, relaunched_ledger) = relauncher.join().expect("relauncher");

        // The row's claim, proven before it is written: both ranks hold the
        // uninterrupted run's global view.
        assert_eq!(&survivor_metrics, &reference.1, "survivor metrics diverged");
        assert_eq!(&survivor_ledger, &reference.2, "survivor ledger diverged");
        assert_eq!(
            &relaunched_ledger, &reference.2,
            "relaunched rank's ledger diverged"
        );
        (rejoin, restore, rounds)
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let output = args.iter().find(|a| !a.starts_with("--")).cloned();

    let n: usize = if smoke { 192 } else { 768 };
    let intervals: &[u32] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let every_workload = ScalingWorkload::all();
    let workloads: &[ScalingWorkload] = if smoke {
        &every_workload[..1]
    } else {
        &every_workload
    };

    let mut cost_table = ExperimentTable::new(
        format!(
            "E-recovery checkpoint cost — Luby-MIS at n = {n}, checkpointed through the \
             on-disk format every k rounds; every row restore-verified bit-identical"
        ),
        &[
            "workload",
            "n",
            "rounds",
            "interval",
            "checkpoints",
            "last ckpt bytes",
            "serialize ms (total)",
            "serialize ms (mean)",
            "restore+replay ms",
            "restore identical",
        ],
    );

    for &workload in workloads {
        let graph = workload.build(n, SEED).expect("workload builds");
        let (reference, rounds) = uninterrupted(&graph);
        for &interval in intervals {
            let (checkpoints, bytes, serialize, restore) =
                measure_interval(&graph, &reference, interval);
            cost_table.push_row(vec![
                cell_str(workload.label()),
                cell_u64(n as u64),
                cell_u64(u64::from(rounds)),
                cell_u64(u64::from(interval)),
                cell_u64(checkpoints),
                cell_u64(bytes),
                cell_f64(serialize.as_secs_f64() * 1e3),
                cell_f64(serialize.as_secs_f64() * 1e3 / checkpoints as f64),
                cell_f64(restore.as_secs_f64() * 1e3),
                cell_str("yes"), // measure_interval asserted it
            ]);
            eprintln!(
                "{:12} interval={interval} checkpoints={checkpoints:>3} last={bytes:>8}B \
                 serialize={:>7.3}ms restore+replay={:>7.3}ms",
                workload.label(),
                serialize.as_secs_f64() * 1e3,
                restore.as_secs_f64() * 1e3,
            );
        }
    }

    let mut latency_table = ExperimentTable::new(
        format!(
            "E-recovery rejoin latency — two-rank localhost TCP, rank 1 killed at a round \
             boundary and relaunched from its checkpoint (ball gathering t = 6, n = {n}); \
             both ranks' ledgers asserted identical to the uninterrupted run"
        ),
        &[
            "backoff profile",
            "base ms",
            "cap ms",
            "kill round",
            "rejoin ms",
            "restore+replay ms",
            "rounds",
            "ledgers identical",
        ],
    );

    // The uninterrupted two-rank reference for the latency rows.
    let graph = ScalingWorkload::ErdosRenyi.build(n, SEED).expect("builds");
    let tcp_reference = {
        let factory = |node: NodeId, _: &InitialKnowledge| BallGathering::new(node, 6);
        let mut network =
            Network::new(&graph, NetworkConfig::with_seed(SEED), factory).expect("network builds");
        network.run_until_halt(BUDGET).expect("reference halts");
        let outputs: Vec<Vec<u32>> = network
            .programs()
            .iter()
            .map(BallGathering::known_ids)
            .collect();
        (outputs, network.metrics().clone(), network.ledger().clone())
    };

    let profiles: &[(&str, Duration, Duration)] = &[
        ("eager", Duration::from_millis(1), Duration::from_millis(16)),
        (
            "default",
            Duration::from_millis(10),
            Duration::from_millis(500),
        ),
        ("patient", Duration::from_millis(50), Duration::from_secs(1)),
    ];
    let kill_round = 3;
    for &(name, base, cap) in profiles {
        let (rejoin, restore, rounds) =
            measure_recovery(&graph, &tcp_reference, kill_round, base, cap);
        latency_table.push_row(vec![
            cell_str(name),
            cell_f64(base.as_secs_f64() * 1e3),
            cell_f64(cap.as_secs_f64() * 1e3),
            cell_u64(u64::from(kill_round)),
            cell_f64(rejoin.as_secs_f64() * 1e3),
            cell_f64(restore.as_secs_f64() * 1e3),
            cell_u64(rounds),
            cell_str("yes"), // measure_recovery asserted it
        ]);
        eprintln!(
            "{name:8} backoff={:?}..{:?} rejoin={:>7.3}ms restore+replay={:>7.3}ms",
            base,
            cap,
            rejoin.as_secs_f64() * 1e3,
            restore.as_secs_f64() * 1e3,
        );
    }

    println!("{}", cost_table.to_markdown());
    println!("{}", latency_table.to_markdown());

    if let Some(path) = output {
        let json = tables_to_json(&[&cost_table, &latency_table]);
        std::fs::write(&path, json).expect("result file is writable");
        eprintln!("wrote {path}");
    }
}
