//! Criterion micro-bench isolating the engine's message plane: dispatch +
//! delivery cost per round at shard counts {1, 2, 8}, independent of any
//! program logic.
//!
//! The measured program broadcasts one fixed `u64` per incident edge per
//! round and does nothing else, so each timed iteration is one round of the
//! barrier in steady state (the network is prewarmed: every mailbox is
//! already sized and all scratch-outbox and grid-bucket capacity is
//! grown, making the zero-allocation round path the thing on the clock).
//! A regression in the barrier shows up here even when the `exp_scaling`
//! end-to-end numbers are masked by program cost.
//!
//! Set `ROUND_BARRIER_SMOKE=1` to shrink the workload for CI (compile +
//! one-iteration smoke).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use freelunch_bench::ScalingWorkload;
use freelunch_graph::generators::{sparse_connected_erdos_renyi, GeneratorConfig};
use freelunch_graph::MultiGraph;
use freelunch_runtime::{Context, Envelope, Network, NetworkConfig, NodeProgram};

/// Minimal message-plane load: one broadcast per node per round, no
/// per-round state, never halts (the bench drives rounds directly).
struct Beacon;

impl NodeProgram for Beacon {
    type Message = u64;

    fn init(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(0xF1EE_1A11);
    }

    fn round(&mut self, ctx: &mut Context<'_, u64>, _inbox: &[Envelope<u64>]) {
        ctx.broadcast(0xF1EE_1A11);
    }
}

fn smoke() -> bool {
    std::env::var_os("ROUND_BARRIER_SMOKE").is_some()
}

/// The benched topologies: the uniform sparse graph (every node range
/// carries equal work) and the skewed hub-and-spokes graph whose message
/// work is concentrated in the first contiguous shard range (the case that
/// one range per worker starves on, and chunk claiming balances).
fn workloads() -> Vec<(&'static str, MultiGraph)> {
    let n = if smoke() { 1 << 10 } else { 1 << 16 };
    vec![
        (
            "sparse-er",
            sparse_connected_erdos_renyi(&GeneratorConfig::new(n, 17), 6.0)
                .expect("workload builds"),
        ),
        (
            "skewed-hub",
            ScalingWorkload::SkewedHub
                .build(n, 17)
                .expect("workload builds"),
        ),
    ]
}

fn bench_round_barrier(c: &mut Criterion) {
    for (name, graph) in workloads() {
        let messages_per_round = 2 * graph.edge_count() as u64;
        let mut group = c.benchmark_group(format!("round_barrier/{name}"));
        group.sample_size(if smoke() { 1 } else { 10 });
        for shards in [1, 2, 8] {
            group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
                let config = NetworkConfig::with_seed(3).sharded(shards);
                let mut network =
                    Network::new(&graph, config, |_, _| Beacon).expect("network builds");
                // Prewarm: grow every reusable buffer to steady state so
                // the timed rounds allocate nothing.
                network.run_rounds(2).expect("prewarm rounds");
                b.iter(|| {
                    network.run_round().expect("round runs");
                    network.pending_messages()
                });
            });
        }
        eprintln!(
            "round_barrier/{name} workload: n={}, m={}, {} messages/round \
             (divide by the printed per-iteration time for messages/sec)",
            graph.node_count(),
            graph.edge_count(),
            messages_per_round
        );
        group.finish();
    }
}

criterion_group!(benches, bench_round_barrier);
criterion_main!(benches);
