//! Criterion micro-bench pricing the fault-injection gate: one steady-state
//! round of the message plane with (a) no fault plan, (b) an installed but
//! *empty* plan, and (c) a live drop/duplicate plan.
//!
//! (a) and (b) must be indistinguishable — the engine resolves an empty
//! plan to the failure-free fast path at construction time, so the per-round
//! fault cost of a clean execution is exactly zero. Before timing anything,
//! the bench runs (a) and (b) for the same rounds and asserts that their
//! ledgers, metrics and pending counts are equal (`tests/fault_matrix.rs`
//! pins the same property across algorithms); the timed closures then
//! watch the wall-clock side. (c) shows what a live plan costs per message:
//! one keyed ChaCha draw plus the pre-pass copy.
//!
//! Set `FAULT_OVERHEAD_SMOKE=1` to shrink the workload for CI
//! (compile + one-iteration smoke; the equality check runs either way).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use freelunch_graph::generators::{sparse_connected_erdos_renyi, GeneratorConfig};
use freelunch_graph::MultiGraph;
use freelunch_runtime::{Context, Envelope, FaultPlan, Network, NetworkConfig, NodeProgram};

/// Minimal message-plane load: one broadcast per node per round.
struct Beacon;

impl NodeProgram for Beacon {
    type Message = u64;

    fn init(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(0xFA_17);
    }

    fn round(&mut self, ctx: &mut Context<'_, u64>, _inbox: &[Envelope<u64>]) {
        ctx.broadcast(0xFA_17);
    }
}

fn smoke() -> bool {
    std::env::var_os("FAULT_OVERHEAD_SMOKE").is_some()
}

fn workload() -> MultiGraph {
    let n = if smoke() { 1 << 10 } else { 1 << 15 };
    sparse_connected_erdos_renyi(&GeneratorConfig::new(n, 29), 6.0).expect("workload builds")
}

/// Rounds each network runs before the timed closures start.
const PREWARM_ROUNDS: u32 = 2;

fn beacon_network(graph: &MultiGraph, plan: FaultPlan) -> Network<Beacon> {
    let config = NetworkConfig::with_seed(3).sharded(1);
    Network::with_fault_plan(graph, config, plan, |_, _| Beacon).expect("network builds")
}

/// Runs no-plan and empty-plan networks for the same rounds, untimed, and
/// asserts that they end in the same state.
fn assert_empty_plan_matches_no_plan(graph: &MultiGraph) {
    let run = |plan: FaultPlan| {
        let mut network = beacon_network(graph, plan);
        network
            .run_rounds(PREWARM_ROUNDS + 3)
            .expect("check rounds");
        network
    };
    let (none, empty) = (run(FaultPlan::none()), run(FaultPlan::new(7)));
    assert_eq!(
        none.ledger(),
        empty.ledger(),
        "empty plan changed the ledger"
    );
    assert_eq!(
        none.metrics(),
        empty.metrics(),
        "empty plan changed the metrics"
    );
    assert_eq!(
        none.pending_messages(),
        empty.pending_messages(),
        "empty plan changed the pending count"
    );
}

fn bench_fault_overhead(c: &mut Criterion) {
    let graph = workload();
    assert_empty_plan_matches_no_plan(&graph);
    let mut group = c.benchmark_group("fault_overhead");
    group.sample_size(if smoke() { 1 } else { 10 });
    let plans: [(&str, FaultPlan); 3] = [
        ("no-plan", FaultPlan::none()),
        ("empty-plan", FaultPlan::new(7)), // resolves to the same fast path
        (
            "drop5-dup5",
            FaultPlan::new(7)
                .with_drop_probability(0.05)
                .with_duplicate_probability(0.05),
        ),
    ];
    for (name, plan) in plans {
        group.bench_with_input(BenchmarkId::new("plan", name), &plan, |b, plan| {
            let mut network = beacon_network(&graph, plan.clone());
            // Prewarm to steady state so the timed rounds allocate nothing
            // on the clean paths.
            network.run_rounds(PREWARM_ROUNDS).expect("prewarm rounds");
            b.iter(|| {
                network.run_round().expect("round runs");
                network.pending_messages()
            });
        });
    }
    eprintln!(
        "fault_overhead workload: n={}, m={}, {} program sends/round \
         (no-plan and empty-plan must coincide; drop5-dup5 prices the live gate)",
        graph.node_count(),
        graph.edge_count(),
        2 * graph.edge_count()
    );
    group.finish();
}

criterion_group!(benches, bench_fault_overhead);
criterion_main!(benches);
