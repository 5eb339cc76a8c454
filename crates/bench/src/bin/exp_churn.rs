//! Churn experiment: the free lunch on a dynamic graph — amortized
//! incremental spanner repair vs. rebuild-from-scratch (`docs/CHURN.md`).
//!
//! For each PR-2 scaling workload family and churn rate (0%, 0.1%, 1% and
//! 10% of the live edges inserted *and* deleted per round), the experiment
//! replays the same seeded [`ChurnDriver`] event stream the engine applies
//! at its round barrier into an [`IncrementalSpanner`] and measures:
//!
//! * the cumulative repair bill (the [`CostPhase::Maintenance`] column) and
//!   its amortized per-event message cost;
//! * what rebuilding from scratch (Baswana–Sen on the final graph, the
//!   `Θ(k·m)` comparator) would have cost **per event** instead;
//! * the end-to-end free-lunch ratio with maintenance on the meter: spanner
//!   construction + repairs + `t`-local broadcast on the final spanner vs.
//!   direct flooding on the final graph;
//! * the repaired spanner's measured stretch against its bound of 3;
//! * cross-shard identity of an engine execution under the same churn
//!   plan: the message ledger is bit-identical for 1, 2 and 8 shards.
//!
//! Usage:
//!
//! ```sh
//! exp_churn [OUTPUT.json] [--smoke]
//! ```
//!
//! `--smoke` shrinks the sweep for CI.

use freelunch_algorithms::BallGathering;
use freelunch_baselines::{direct_flooding, BaswanaSen};
use freelunch_bench::{
    cell_f64, cell_str, cell_u64, tables_to_json, ExperimentTable, ScalingWorkload,
};
use freelunch_core::ledger::{CostPhase, Ledger};
use freelunch_core::maintain::IncrementalSpanner;
use freelunch_core::reduction::tlocal::t_local_broadcast;
use freelunch_graph::spanner_check::verify_edge_stretch;
use freelunch_graph::{CsrGraph, MultiGraph};
use freelunch_runtime::{
    ChurnDriver, ChurnEvent, ChurnPlan, FaultPlan, InProcessTransport, Network, NetworkConfig,
};

/// Locality parameter of the broadcast stage.
const T: u32 = 2;
/// Workload / plan / algorithm seed shared by every row.
const SEED: u64 = 42;
/// Churn rates swept: fraction of the live edges deleted (and, separately,
/// inserted) per round.
const RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.1];

/// Replays the seeded churn stream for `rounds` rounds into the spanner and
/// returns the number of edge events applied.
fn replay_churn(driver: &mut ChurnDriver, spanner: &mut IncrementalSpanner, rounds: u32) -> u64 {
    let mut events = 0u64;
    for round in 1..=rounds {
        for event in driver.apply_round(round).expect("churn round applies") {
            match event {
                ChurnEvent::EdgeInsert { edge, u, v } => {
                    spanner.insert_edge(edge, u, v).expect("insert repairs");
                    events += 1;
                }
                ChurnEvent::EdgeDelete { edge } => {
                    spanner.delete_edge(edge).expect("delete repairs");
                    events += 1;
                }
                ChurnEvent::NodeJoin { .. } | ChurnEvent::NodeLeave { .. } => {}
            }
        }
        assert_eq!(
            driver.overlay().live_edge_count(),
            spanner.graph().edge_count(),
            "spanner mirror diverged from the churn overlay"
        );
    }
    events
}

/// Runs `BallGathering` on the engine under `plan` and returns the ledger
/// message/byte totals plus the per-node output digest.
fn churned_network_digest(
    graph: &MultiGraph,
    plan: ChurnPlan,
    shards: usize,
    rounds: u32,
) -> (u64, u64, Vec<Vec<u32>>) {
    let config = NetworkConfig::with_seed(SEED).sharded(shards);
    let mut network = Network::with_plans(
        graph,
        config,
        FaultPlan::none(),
        plan,
        InProcessTransport::new(),
        |node, _| BallGathering::new(node, T),
    )
    .expect("network builds");
    network.run_rounds(rounds).expect("churned run completes");
    let outputs = network.programs().iter().map(|p| p.known_ids()).collect();
    (
        network.ledger().total_messages(),
        network.ledger().total_bytes(),
        outputs,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let output = args.iter().find(|a| !a.starts_with("--")).cloned();

    let n: usize = if smoke { 192 } else { 768 };
    let churn_rounds: u32 = if smoke { 5 } else { 16 };
    let engine_rounds: u32 = if smoke { 4 } else { 8 };
    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 8] };

    let mut repair_table = ExperimentTable::new(
        format!(
            "E-churn — amortized incremental repair vs. rebuild-from-scratch \
             ({churn_rounds} churn rounds, insert and delete rates both as shown, \
             broadcast t = {T})"
        ),
        &[
            "workload",
            "n",
            "m initial",
            "rate",
            "events",
            "m final",
            "repair msgs",
            "repair msgs/event",
            "rebuild msgs (final)",
            "rebuild/repair x",
            "spanner edges",
            "max stretch",
            "free lunch x",
            "maintenance msg frac",
        ],
    );
    let mut shard_table = ExperimentTable::new(
        "E-churn cross-shard identity — engine ledger under a churn plan vs. shard count",
        &[
            "workload",
            "rate",
            "shards",
            "ledger msgs",
            "ledger bytes",
            "identical to 1 shard",
        ],
    );

    let rebuild = BaswanaSen::new(2).expect("valid k");

    for workload in ScalingWorkload::all() {
        let graph = workload.build(n, SEED).expect("workload builds");
        let csr = CsrGraph::from_graph(&graph);
        let m_initial = graph.edge_count() as u64;

        for rate in RATES {
            let plan = ChurnPlan::new(SEED)
                .with_insert_rate(rate)
                .with_delete_rate(rate);
            let mut driver = ChurnDriver::new(plan, &csr).expect("driver builds");
            let mut spanner = IncrementalSpanner::new(&graph, SEED).expect("spanner builds");
            let build_cost = spanner.build_cost();

            let events = replay_churn(&mut driver, &mut spanner, churn_rounds);
            spanner.check_invariants().expect("invariants hold");

            let final_graph = spanner.graph().clone();
            let m_final = final_graph.edge_count() as u64;
            let stretch_report = verify_edge_stretch(&final_graph, spanner.spanner_edges())
                .expect("stretch verifies");
            assert!(
                stretch_report.satisfies(spanner.stretch_bound()),
                "{}/{rate}: stretch {} > {}",
                workload.label(),
                stretch_report.max_stretch,
                spanner.stretch_bound()
            );

            let maintenance = spanner.maintenance_cost();
            let amortized = if events == 0 {
                0.0
            } else {
                maintenance.messages as f64 / events as f64
            };
            let rebuild_cost = rebuild
                .rebuild_cost(&final_graph, SEED)
                .expect("rebuild runs");
            let rebuild_per_repair = if events == 0 || maintenance.messages == 0 {
                f64::NAN
            } else {
                rebuild_cost.messages as f64 / amortized
            };

            // The end-to-end free lunch with maintenance on the meter.
            let broadcast = t_local_broadcast(
                &final_graph,
                spanner.spanner_edges(),
                T,
                spanner.stretch_bound(),
            )
            .expect("broadcast runs");
            assert_eq!(
                broadcast
                    .coverage_violations(&final_graph, T)
                    .expect("balls"),
                0,
                "{}/{rate}: repaired spanner missed a ball",
                workload.label()
            );
            let flood = direct_flooding(&final_graph, T).expect("flooding runs");
            let mut ledger = Ledger::new();
            ledger.charge(
                CostPhase::SpannerConstruction,
                "incremental spanner build",
                build_cost,
            );
            ledger.charge(
                CostPhase::Maintenance,
                format!("{events} churn repairs"),
                maintenance,
            );
            ledger.charge(
                CostPhase::Broadcast,
                format!("{T}-local broadcast on the repaired spanner"),
                broadcast.cost,
            );
            ledger.charge(
                CostPhase::DirectExecution,
                "direct t-local flooding on the final graph",
                flood.broadcast.cost,
            );

            repair_table.push_row(vec![
                cell_str(workload.label()),
                cell_u64(n as u64),
                cell_u64(m_initial),
                cell_f64(rate),
                cell_u64(events),
                cell_u64(m_final),
                cell_u64(maintenance.messages),
                cell_f64(amortized),
                cell_u64(rebuild_cost.messages),
                cell_f64(rebuild_per_repair),
                cell_u64(spanner.spanner_size() as u64),
                cell_u64(u64::from(stretch_report.max_stretch)),
                cell_f64(ledger.free_lunch_ratio().unwrap_or(f64::NAN)),
                cell_f64(ledger.message_fraction(CostPhase::Maintenance)),
            ]);

            eprintln!(
                "{:12} rate={rate:<6} events={events:>6} repair={:>8} \
                 rebuild(final)={:>8} free-lunch={:.3}",
                workload.label(),
                maintenance.messages,
                rebuild_cost.messages,
                ledger.free_lunch_ratio().unwrap_or(f64::NAN),
            );
        }

        // Cross-shard identity of the engine under the 1% plan.
        let plan = ChurnPlan::new(SEED)
            .with_insert_rate(0.01)
            .with_delete_rate(0.01);
        let reference =
            churned_network_digest(&graph, plan.clone(), shard_counts[0], engine_rounds);
        for (i, &shards) in shard_counts.iter().enumerate() {
            let digest = if i == 0 {
                reference.clone()
            } else {
                churned_network_digest(&graph, plan.clone(), shards, engine_rounds)
            };
            let identical = digest == reference;
            assert!(
                identical,
                "{}: churned execution diverged at {shards} shards",
                workload.label()
            );
            shard_table.push_row(vec![
                cell_str(workload.label()),
                cell_f64(0.01),
                cell_u64(shards as u64),
                cell_u64(digest.0),
                cell_u64(digest.1),
                cell_str(if identical { "yes" } else { "NO" }),
            ]);
        }
    }

    println!("{}", repair_table.to_markdown());
    println!("{}", shard_table.to_markdown());

    if let Some(path) = output {
        let json = tables_to_json(&[&repair_table, &shard_table]);
        std::fs::write(&path, json).expect("result file is writable");
        eprintln!("wrote {path}");
    }
}
