//! Criterion bench comparing the per-round cost of the three transport
//! backends on the same broadcast workload: the in-process mailbox-plane
//! barrier, the wire-faithful mock (every payload encoded and decoded), and
//! a two-rank TCP pair over localhost (one frame per peer per round).
//!
//! Every backend moves the identical message plane — same graph, same
//! `2m` messages per round, same ledger bytes — so the per-iteration times
//! divide directly into messages/sec and payload-bytes/sec per backend
//! (the constants are printed alongside the group). For TCP one iteration
//! is one lockstep round of rank 0 (= one frame written + one frame read);
//! the companion rank free-runs in a thread and stays within one round via
//! the socket's own backpressure.
//!
//! Set `TRANSPORT_SMOKE=1` to shrink the workload for CI (compile + a
//! one-iteration smoke).

use criterion::{criterion_group, criterion_main, Criterion};
use freelunch_graph::generators::{sparse_connected_erdos_renyi, GeneratorConfig};
use freelunch_graph::MultiGraph;
use freelunch_runtime::transport::{MockTransport, TcpConfig, TcpTransport};
use freelunch_runtime::{Context, Envelope, FaultPlan, Network, NetworkConfig, NodeProgram};
use std::net::{SocketAddr, TcpListener};

/// Minimal message-plane load: one 8-byte broadcast per node per round,
/// never halts (the bench drives rounds directly).
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
    std::env::var_os("TRANSPORT_SMOKE").is_some()
}

fn workload() -> MultiGraph {
    let n = if smoke() { 1 << 8 } else { 1 << 12 };
    sparse_connected_erdos_renyi(&GeneratorConfig::new(n, 19), 6.0).expect("workload builds")
}

fn bench_transport_throughput(c: &mut Criterion) {
    let graph = workload();
    let messages_per_round = 2 * graph.edge_count() as u64;
    let mut group = c.benchmark_group("transport_throughput");
    group.sample_size(if smoke() { 1 } else { 10 });

    group.bench_function("in-process", |b| {
        let config = NetworkConfig::with_seed(3);
        let mut network = Network::new(&graph, config, |_, _| Beacon).expect("network builds");
        network.run_rounds(2).expect("prewarm rounds");
        b.iter(|| {
            network.run_round().expect("round runs");
            network.pending_messages()
        });
    });

    group.bench_function("mock", |b| {
        let config = NetworkConfig::with_seed(3);
        let mut network = Network::with_transport(
            &graph,
            config,
            FaultPlan::none(),
            MockTransport::new(),
            |_, _| Beacon,
        )
        .expect("network builds");
        network.run_rounds(2).expect("prewarm rounds");
        b.iter(|| {
            network.run_round().expect("round runs");
            network.pending_messages()
        });
    });

    group.bench_function("tcp-pair", |b| {
        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let peers: Vec<SocketAddr> = listeners
            .iter()
            .map(|listener| listener.local_addr().expect("local addr"))
            .collect();
        let mut listeners = listeners.into_iter();
        let (listener0, listener1) = (listeners.next().unwrap(), listeners.next().unwrap());
        let (config0, config1) = (TcpConfig::new(0, peers.clone()), TcpConfig::new(1, peers));
        let graph = &graph;
        std::thread::scope(|scope| {
            // The companion rank free-runs: each of its rounds blocks on
            // rank 0's frame, so it never gets more than one round ahead,
            // and when rank 0's network drops (sockets close) its next read
            // errors out and the thread exits.
            scope.spawn(move || {
                let transport =
                    TcpTransport::with_listener(listener1, &config1).expect("rank 1 connects");
                let mut network = Network::with_transport(
                    graph,
                    NetworkConfig::with_seed(3),
                    FaultPlan::none(),
                    transport,
                    |_, _| Beacon,
                )
                .expect("rank 1 network builds");
                while network.run_round().is_ok() {}
            });
            let transport =
                TcpTransport::with_listener(listener0, &config0).expect("rank 0 connects");
            let mut network = Network::with_transport(
                graph,
                NetworkConfig::with_seed(3),
                FaultPlan::none(),
                transport,
                |_, _| Beacon,
            )
            .expect("rank 0 network builds");
            network.run_rounds(2).expect("prewarm rounds");
            b.iter(|| {
                network.run_round().expect("round runs");
                network.pending_messages()
            });
        });
    });

    eprintln!(
        "transport_throughput workload: n={}, m={}, {} messages/round, {} payload bytes/round \
         (divide by the printed per-iteration time for messages/sec and bytes/sec)",
        graph.node_count(),
        graph.edge_count(),
        messages_per_round,
        8 * messages_per_round,
    );
    group.finish();
}

criterion_group!(benches, bench_transport_throughput);
criterion_main!(benches);
