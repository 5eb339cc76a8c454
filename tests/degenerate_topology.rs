//! Degenerate-partition sweep: the engine's chunking math (work-stealing
//! chunks, static shard ranges, TCP rank ranges) must stay correct when the
//! node count is smaller than — or barely above — the worker count. The
//! sweep pins `node_count ∈ {1, shards − 1, world − 1, world + 1}` plus
//! edgeless graphs (every node isolated) and graphs with an isolated tail,
//! across the in-process, mock and two-/four-rank TCP backends at shard
//! counts 1, 2 and 8, under a pathological 1-node chunk size, the default
//! chunk size and one chunk per shard. A zero-node graph must be rejected
//! up front by every constructor, never panic downstream.

use freelunch::graph::generators::{path_graph, star_graph, GeneratorConfig};
use freelunch::graph::{EdgeId, MultiGraph, NodeId};
use freelunch::runtime::transport::{MockTransport, TcpConfig, TcpTransport};
use freelunch::runtime::{
    Context, Envelope, ExecutionMetrics, FaultPlan, MessageLedger, Network, NetworkConfig,
    NodeProgram, RuntimeError,
};
use std::net::{SocketAddr, TcpListener};

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Broadcasts a beacon for two rounds, then halts. On an isolated node the
/// broadcast is a no-op, so the program is well defined on every topology
/// in the sweep while still exercising real traffic wherever edges exist.
#[derive(Debug)]
struct Pulse {
    heard: u32,
}

impl NodeProgram for Pulse {
    type Message = u32;

    fn init(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.broadcast(ctx.node().raw());
    }

    fn round(&mut self, ctx: &mut Context<'_, u32>, inbox: &[Envelope<u32>]) {
        self.heard += inbox.len() as u32;
        if ctx.round() < 3 {
            ctx.broadcast(ctx.round());
        } else {
            ctx.halt();
        }
    }
}

fn pulse(_: NodeId, _: &freelunch::runtime::InitialKnowledge) -> Pulse {
    Pulse { heard: 0 }
}

/// A star on 6 nodes plus 3 isolated stragglers: maximal skew (node 0
/// carries every edge) with an idle tail — the shape that starves static
/// contiguous shard ranges.
fn star_with_isolated_tail() -> MultiGraph {
    let mut graph = MultiGraph::new(9);
    for leaf in 1..6 {
        graph
            .add_edge(NodeId::new(0), NodeId::from_usize(leaf))
            .unwrap();
    }
    graph
}

/// The sweep's topologies: every node count the chunking math can get
/// wrong. `shards − 1` appears as 1 and 7 (for shard counts 2 and 8),
/// `world − 1` as 1 (two ranks) and 3 (four ranks), `world + 1` as 3 and 5.
fn degenerate_graphs() -> Vec<(&'static str, MultiGraph)> {
    vec![
        ("single-node", MultiGraph::new(1)),
        ("two-isolated", MultiGraph::new(2)),
        ("seven-isolated", MultiGraph::new(7)),
        ("path-2", path_graph(&GeneratorConfig::new(2, 0)).unwrap()),
        ("path-3", path_graph(&GeneratorConfig::new(3, 0)).unwrap()),
        ("path-5", path_graph(&GeneratorConfig::new(5, 0)).unwrap()),
        ("path-7", path_graph(&GeneratorConfig::new(7, 0)).unwrap()),
        ("star-7", star_graph(&GeneratorConfig::new(7, 0)).unwrap()),
        ("star-with-tail", star_with_isolated_tail()),
    ]
}

type Observables = (Vec<u32>, ExecutionMetrics, MessageLedger, usize);

fn in_process_run(graph: &MultiGraph, config: NetworkConfig) -> Observables {
    let mut network = Network::new(graph, config, pulse).unwrap();
    network.run_until_halt(10).unwrap();
    let heard = network.programs().iter().map(|p| p.heard).collect();
    (
        heard,
        network.metrics().clone(),
        network.ledger().clone(),
        network.halted_count(),
    )
}

#[test]
fn zero_node_graph_is_rejected_not_panicked() {
    let graph = MultiGraph::new(0);
    let in_process = Network::new(&graph, NetworkConfig::default(), pulse);
    assert!(matches!(
        in_process.unwrap_err(),
        RuntimeError::InvalidConfig { .. }
    ));
    let mock = Network::with_transport(
        &graph,
        NetworkConfig::default().sharded(8),
        FaultPlan::none(),
        MockTransport::new(),
        pulse,
    );
    assert!(matches!(
        mock.unwrap_err(),
        RuntimeError::InvalidConfig { .. }
    ));
}

#[test]
fn edge_ids_beyond_the_dense_tables_are_rejected_not_panicked() {
    let graph_with_edge = |id: u64| {
        let mut graph = MultiGraph::new(2);
        graph
            .add_edge_with_id(EdgeId::new(id), NodeId::new(0), NodeId::new(1))
            .unwrap();
        graph
    };
    for id in [u64::MAX, 1 << 32] {
        let graph = graph_with_edge(id);
        let in_process = Network::new(&graph, NetworkConfig::default(), pulse);
        let message = in_process.unwrap_err().to_string();
        assert!(
            message.contains(&EdgeId::new(id).to_string()),
            "the error names the edge: {message}"
        );
        let mock = Network::with_transport(
            &graph,
            NetworkConfig::default().sharded(2),
            FaultPlan::none(),
            MockTransport::new(),
            pulse,
        );
        assert!(matches!(
            mock.unwrap_err(),
            RuntimeError::InvalidConfig { .. }
        ));
    }
    // A sparse ID well inside the range still builds and runs.
    let graph = graph_with_edge(1 << 20);
    let mut network = Network::new(&graph, NetworkConfig::default().sharded(2), pulse).unwrap();
    network.run_until_halt(10).unwrap();
    assert_eq!(network.ledger().edge_slots(), (1 << 20) + 1);
    assert_eq!(network.ledger().messages_per_edge()[1 << 20], 6);
}

#[test]
fn degenerate_graphs_are_shard_sched_and_chunk_invariant() {
    for (name, graph) in degenerate_graphs() {
        let n = graph.node_count();
        let reference = in_process_run(&graph, NetworkConfig::with_seed(17));
        assert_eq!(reference.3, n, "{name}: wrong halted count at 1 shard");
        for shards in SHARD_COUNTS {
            for chunk_size in [
                1,
                freelunch::runtime::DEFAULT_CHUNK_SIZE,
                n.div_ceil(shards),
            ] {
                let config = NetworkConfig::with_seed(17)
                    .sharded(shards)
                    .chunk_size(chunk_size);
                let run = in_process_run(&graph, config);
                let where_ = format!("{name}: {shards} shards, chunk {chunk_size}");
                assert_eq!(reference.0, run.0, "{where_}: outputs differ");
                assert_eq!(reference.1, run.1, "{where_}: metrics differ");
                assert_eq!(reference.2, run.2, "{where_}: ledgers differ");
                assert_eq!(run.3, n, "{where_}: wrong halted count");
            }
        }
    }
}

#[test]
fn degenerate_graphs_are_mock_invariant() {
    for (name, graph) in degenerate_graphs() {
        let reference = in_process_run(&graph, NetworkConfig::with_seed(17));
        for shards in SHARD_COUNTS {
            let config = NetworkConfig::with_seed(17).sharded(shards);
            let mut network = Network::with_transport(
                &graph,
                config,
                FaultPlan::none(),
                MockTransport::new(),
                pulse,
            )
            .unwrap();
            network.run_until_halt(10).unwrap();
            let heard: Vec<u32> = network.programs().iter().map(|p| p.heard).collect();
            assert_eq!(
                reference.0, heard,
                "{name}: mock outputs at {shards} shards"
            );
            assert_eq!(
                &reference.1,
                network.metrics(),
                "{name}: mock metrics at {shards} shards"
            );
            assert_eq!(
                &reference.2,
                network.ledger(),
                "{name}: mock ledger at {shards} shards"
            );
            assert_eq!(
                network.halted_count(),
                graph.node_count(),
                "{name}: mock halted count at {shards} shards"
            );
        }
    }
}

/// Runs the sweep program as a `world`-rank TCP group over localhost and
/// returns the spliced outputs plus every rank's (metrics, ledger,
/// halted count). With `node_count < world` the high ranks own *empty*
/// node ranges — they must still rendezvous, exchange every barrier and
/// agree on global termination through the remote-halted counts alone.
fn tcp_run(graph: &MultiGraph, world: usize, shards: usize) -> Vec<Observables> {
    let listeners: Vec<TcpListener> = (0..world)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<SocketAddr> = listeners
        .iter()
        .map(|listener| listener.local_addr().unwrap())
        .collect();
    let mut per_rank: Vec<Observables> = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let config = TcpConfig::new(rank, peers.clone());
                scope.spawn(move || {
                    let transport = TcpTransport::with_listener(listener, &config).unwrap();
                    let mut network = Network::with_transport(
                        graph,
                        NetworkConfig::with_seed(17).sharded(shards),
                        FaultPlan::none(),
                        transport,
                        pulse,
                    )
                    .unwrap();
                    network.run_until_halt(10).unwrap();
                    let owned = network.owned_nodes();
                    let heard: Vec<u32> =
                        network.programs()[owned].iter().map(|p| p.heard).collect();
                    (
                        heard,
                        network.metrics().clone(),
                        network.ledger().clone(),
                        network.halted_count(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect()
    });
    let spliced: Vec<u32> = per_rank
        .iter_mut()
        .flat_map(|(heard, _, _, _)| heard.drain(..))
        .collect();
    per_rank[0].0 = spliced;
    per_rank
}

#[test]
fn degenerate_graphs_are_tcp_invariant_with_empty_ranks() {
    for (name, graph) in degenerate_graphs() {
        let n = graph.node_count();
        let reference = in_process_run(&graph, NetworkConfig::with_seed(17));
        // world 2 covers `world − 1 = 1`; world 4 leaves rank 3 empty for
        // n ∈ {1, 2, 3} and covers `world ± 1` at n = 3 and n = 5.
        for world in [2, 4] {
            for shards in [1, 8] {
                for (rank, (heard, metrics, ledger, halted)) in
                    tcp_run(&graph, world, shards).into_iter().enumerate()
                {
                    let where_ = format!("{name}: world {world}, {shards} shards, rank {rank}");
                    if rank == 0 {
                        assert_eq!(reference.0, heard, "{where_}: outputs differ");
                    }
                    assert_eq!(reference.1, metrics, "{where_}: metrics differ");
                    assert_eq!(reference.2, ledger, "{where_}: ledgers differ");
                    assert_eq!(halted, n, "{where_}: wrong halted count");
                }
            }
        }
    }
}
