//! Planner matrix: the prediction-accuracy, decision-quality and
//! bit-identity contract of `freelunch-core::planner`.
//!
//! For every (workload family × size) cell the matrix executes **all
//! three** paths ([`Plan::execute_all`]) and asserts
//!
//! * every path's predicted message count lies inside the documented
//!   [`Tolerances`] band of the measured ledger (the exact default band
//!   values are pinned by [`the_tolerance_contract_is_pinned`]);
//! * the chosen path is never worse than 1.15× the measured-cheapest path;
//! * the grid covers **both** decision branches: the complete family
//!   decides `spanner_sim`, every sparse/dense-ER family decides `direct`;
//! * plans and reports are bit-identical across replans and re-executions
//!   (`PartialEq` *and* the full `Debug` rendering, every float bit
//!   included), and the engine-measured direct ledger attached to the
//!   report is bit-identical across shard counts {1, 2, 8} and across the
//!   in-process, mock and two-rank TCP transport backends.

use freelunch::algorithms::BallGathering;
use freelunch::baselines::ClusterSpanner;
use freelunch::core::planner::{PathChoice, PlanReport, SchemePlanner, Tolerances};
use freelunch::graph::MultiGraph;
use freelunch::runtime::transport::{MockTransport, TcpConfig, TcpTransport};
use freelunch::runtime::{FaultPlan, MessageLedger, Network, NetworkConfig};
use freelunch_bench::{ScalingWorkload, Workload};
use std::net::{SocketAddr, TcpListener};

/// Locality parameter of every planned broadcast in the matrix.
const T: u32 = 2;
/// Seed of every execution (workload generation uses per-cell sizes).
const SEED: u64 = 42;

/// The matrix cells: label, graph, and the decision branch the cell must
/// land on (the grid is chosen to exercise both branches).
fn cells() -> Vec<(String, MultiGraph, PathChoice)> {
    let mut cells = Vec::new();
    for workload in ScalingWorkload::all() {
        for n in [96, 192] {
            cells.push((
                format!("{}/{n}", workload.label()),
                workload.build(n, SEED).unwrap(),
                PathChoice::Direct,
            ));
        }
    }
    for n in [96, 160] {
        cells.push((
            format!("dense-er/{n}"),
            Workload::DenseRandom.build(n, SEED).unwrap(),
            PathChoice::Direct,
        ));
    }
    for n in [96, 160] {
        cells.push((
            format!("complete/{n}"),
            Workload::Complete.build(n, SEED).unwrap(),
            PathChoice::SpannerSim,
        ));
    }
    cells
}

fn planner() -> SchemePlanner {
    SchemePlanner::new(T).unwrap()
}

fn second_stage() -> ClusterSpanner {
    ClusterSpanner::new(1).unwrap()
}

#[test]
fn the_tolerance_contract_is_pinned() {
    // The documented prediction-accuracy contract of `docs/PLANNER.md`.
    // Changing any band is an API-contract change: update the docs, the
    // calibration provenance and this pin together.
    let tolerances = Tolerances::default();
    assert_eq!(tolerances.direct.lower, 0.95);
    assert_eq!(tolerances.direct.upper, 1.05);
    assert_eq!(tolerances.spanner_sim.lower, 0.70);
    assert_eq!(tolerances.spanner_sim.upper, 1.40);
    assert_eq!(tolerances.two_stage.lower, 0.65);
    assert_eq!(tolerances.two_stage.upper, 1.45);
    // The canonical path order and the stable labels recorded in JSON.
    assert_eq!(
        PathChoice::ALL,
        [
            PathChoice::Direct,
            PathChoice::SpannerSim,
            PathChoice::TwoStage
        ]
    );
    assert_eq!(PathChoice::Direct.label(), "direct");
    assert_eq!(PathChoice::SpannerSim.label(), "spanner_sim");
    assert_eq!(PathChoice::TwoStage.label(), "two_stage");
}

#[test]
fn predictions_stay_inside_the_bands_and_decisions_are_near_optimal() {
    let planner = planner();
    let second = second_stage();
    for (label, graph, expected_branch) in cells() {
        let plan = planner.plan_with_second_stage(&graph, &second).unwrap();
        assert_eq!(
            plan.decision,
            expected_branch,
            "{label}: expected the {} branch, planner chose {}",
            expected_branch.label(),
            plan.decision.label()
        );
        let report = plan.execute_all(&graph, SEED, &second).unwrap();
        let audit = report.audit();
        for entry in &audit.entries {
            assert!(
                entry.within_band,
                "{label}/{}: predicted {:.0} vs measured {} (ratio {:.3}) \
                 outside [{}, {}]",
                entry.path.label(),
                entry.predicted_messages,
                entry.measured_messages,
                entry.ratio,
                entry.band.lower,
                entry.band.upper
            );
        }
        // The planner may be beaten by hindsight, but never by more than
        // 15% — the decision-quality contract of `docs/PLANNER.md`.
        let regret = audit.regret.expect("all three paths were measured");
        assert!(
            regret <= 1.15,
            "{label}: chosen path measured {regret:.3}× the best path"
        );
        // Direct is exact at t ≤ 2 on connected graphs: ratio exactly 1.
        let direct = report
            .measured(PathChoice::Direct)
            .expect("direct was measured");
        assert_eq!(
            plan.predicted(PathChoice::Direct).unwrap().messages,
            direct.cost.messages as f64,
            "{label}: the 2·t·m law must be exact"
        );
    }
}

/// Runs the direct reference (`BallGathering`, `t` rounds) on the
/// in-process engine and returns its ledger.
fn in_process_direct(graph: &MultiGraph, shards: usize) -> MessageLedger {
    let config = NetworkConfig::with_seed(SEED).sharded(shards);
    let mut network = Network::new(graph, config, |node, _| BallGathering::new(node, T)).unwrap();
    network.run_rounds(T).unwrap();
    network.ledger().clone()
}

/// The same execution over the wire-faithful mock transport.
fn mock_direct(graph: &MultiGraph, shards: usize) -> MessageLedger {
    let config = NetworkConfig::with_seed(SEED).sharded(shards);
    let mut network = Network::with_transport(
        graph,
        config,
        FaultPlan::none(),
        MockTransport::new(),
        |node, _| BallGathering::new(node, T),
    )
    .unwrap();
    network.run_rounds(T).unwrap();
    network.ledger().clone()
}

/// The same execution as a two-process group over localhost TCP; returns
/// both ranks' ledgers (the stats exchange must give each rank the
/// identical global view).
fn tcp_direct(graph: &MultiGraph, shards: usize) -> Vec<MessageLedger> {
    const WORLD: usize = 2;
    let listeners: Vec<TcpListener> = (0..WORLD)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<SocketAddr> = listeners
        .iter()
        .map(|listener| listener.local_addr().unwrap())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let config = TcpConfig::new(rank, peers.clone());
                scope.spawn(move || {
                    let transport = TcpTransport::with_listener(listener, &config).unwrap();
                    let mut network = Network::with_transport(
                        graph,
                        NetworkConfig::with_seed(SEED).sharded(shards),
                        FaultPlan::none(),
                        transport,
                        |node, _| BallGathering::new(node, T),
                    )
                    .unwrap();
                    network.run_rounds(T).unwrap();
                    network.ledger().clone()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect()
    })
}

/// Two reports are bit-identical: structural equality *and* the full
/// `Debug` rendering (every float bit included). The vendored `serde_json`
/// cannot serialize arbitrary types, so the Debug string doubles as the
/// canonical byte-level rendering.
fn assert_bit_identical(a: &PlanReport, b: &PlanReport, context: &str) {
    assert_eq!(a, b, "{context}: reports differ structurally");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{context}: report renderings differ"
    );
}

#[test]
fn reports_are_bit_identical_across_shards_and_backends() {
    let planner = planner();
    let second = second_stage();
    let shard_counts = [1, 2, 8];
    for (label, graph, _) in cells() {
        // Planning and execution are pure functions of (graph, config,
        // seed): replanning and re-executing must reproduce the report bit
        // for bit.
        let plan = planner.plan_with_second_stage(&graph, &second).unwrap();
        let replan = planner.plan_with_second_stage(&graph, &second).unwrap();
        assert_eq!(plan, replan, "{label}: replan diverged");
        assert_eq!(
            format!("{plan:?}"),
            format!("{replan:?}"),
            "{label}: replan rendering diverged"
        );
        let mut reference = plan.execute(&graph, SEED, &second).unwrap();
        let rerun = plan.execute(&graph, SEED, &second).unwrap();
        assert_bit_identical(&reference, &rerun, &format!("{label}: re-execution"));

        // The engine-measured direct ledger is the one observable that
        // crosses the runtime: attach it from every (backend × shard
        // count) execution — the full report must stay bit-identical.
        reference.attach_engine_direct(in_process_direct(&graph, shard_counts[0]));
        for shards in shard_counts {
            let mut in_process = plan.execute(&graph, SEED, &second).unwrap();
            in_process.attach_engine_direct(in_process_direct(&graph, shards));
            assert_bit_identical(
                &reference,
                &in_process,
                &format!("{label}: in-process at {shards} shards"),
            );

            let mut mock = plan.execute(&graph, SEED, &second).unwrap();
            mock.attach_engine_direct(mock_direct(&graph, shards));
            assert_bit_identical(
                &reference,
                &mock,
                &format!("{label}: mock at {shards} shards"),
            );
        }
        for (rank, ledger) in tcp_direct(&graph, 1).into_iter().enumerate() {
            let mut tcp = plan.execute(&graph, SEED, &second).unwrap();
            tcp.attach_engine_direct(ledger);
            assert_bit_identical(&reference, &tcp, &format!("{label}: TCP rank {rank}"));
        }
    }
}
