//! Engine-scaling experiment: the sharded parallel round engine vs. the
//! sequential engine on million-node sparse workloads.
//!
//! For each [`ScalingWorkload`] family and node count, the same fixed-round
//! neighbor-exchange program is executed with 1, 2 and 8 shards. The run
//! asserts that rounds, message counts and per-round metrics are
//! bit-identical across shard counts (the engine's core guarantee), and
//! records wall-clock time and the speedup over the 1-shard execution —
//! honest numbers for whatever hardware the sweep ran on: the speedup
//! ceiling is the machine's usable core count (recorded in the `cores`
//! column; on a single usable core the parallel barrier can only cost, not
//! pay).
//!
//! Methodology: every configuration is executed `REPS` times in the same
//! process and the *minimum* wall time is recorded. The first execution of
//! a configuration pays one-time costs (page faults on fresh buffers,
//! the first sizing of every mailbox) that the reused message plane avoids
//! in steady state; the minimum is the stable steady-state figure and is
//! far less sensitive to neighbor noise on shared machines. Identity across
//! shard counts is asserted on every repetition, not just the recorded one.
//! Tracing stays at its default ([`TraceMode::Off`]) — the plane's hot path
//! — so the numbers measure what production runs pay.
//!
//! [`TraceMode::Off`]: freelunch_runtime::TraceMode::Off
//!
//! Usage:
//!
//! ```sh
//! exp_scaling [OUTPUT.json] [--smoke]
//! ```
//!
//! `--smoke` shrinks the sweep to a few thousand nodes for CI.

use freelunch_bench::{
    cell_f64, cell_str, cell_u64, tables_to_json, ExperimentTable, ScalingWorkload,
};
use freelunch_graph::MultiGraph;
use freelunch_runtime::{Context, Envelope, Network, NetworkConfig, NodeProgram};
use std::time::Instant;

/// Fixed-round neighbor exchange: every node broadcasts a mixing of
/// everything it heard, for exactly `ROUNDS` rounds. Message volume is
/// `2m` per wave — the per-round neighbor-scan pattern whose throughput
/// the experiment measures.
struct PulseExchange {
    state: u64,
    rounds: u32,
}

const ROUNDS: u32 = 2;

/// Executions per configuration; the recorded wall time is the minimum.
const REPS: usize = 3;

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

struct RunResult {
    elapsed_s: f64,
    messages: u64,
    rounds: u64,
    /// Mixed digest of every node's final state — a cheap whole-output
    /// fingerprint for the cross-shard identity check.
    digest: u64,
    metrics: freelunch_runtime::ExecutionMetrics,
}

fn run_once(graph: &MultiGraph, shards: usize) -> RunResult {
    let config = NetworkConfig::with_seed(7).sharded(shards);
    let mut network = Network::new(graph, config, |_, _| PulseExchange {
        state: 0,
        rounds: ROUNDS,
    })
    .expect("network builds");
    // Time only the round execution: network construction (freeze + setup)
    // is sequential and identical across shard counts, and folding it into
    // the measurement would deflate the reported engine speedups.
    let start = Instant::now();
    network.run_until_halt(ROUNDS + 1).expect("run completes");
    let elapsed_s = start.elapsed().as_secs_f64();
    let cost = network.cost();
    let metrics = network.metrics().clone();
    let digest = network
        .into_programs()
        .into_iter()
        .fold(0u64, |acc, p| acc.rotate_left(1) ^ p.state);
    RunResult {
        elapsed_s,
        messages: cost.messages,
        rounds: cost.rounds,
        digest,
        metrics,
    }
}

/// Runs a configuration `REPS` times, asserts every repetition is
/// bit-identical, and returns the result carrying the minimum wall time.
fn run_best_of(graph: &MultiGraph, shards: usize) -> RunResult {
    let mut best = run_once(graph, shards);
    for _ in 1..REPS {
        let next = run_once(graph, shards);
        assert_eq!(best.digest, next.digest, "nondeterministic repetition");
        assert_eq!(best.metrics, next.metrics, "nondeterministic repetition");
        if next.elapsed_s < best.elapsed_s {
            best.elapsed_s = next.elapsed_s;
        }
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let output = args.iter().find(|a| !a.starts_with("--")).cloned();

    let sizes: &[usize] = if smoke {
        &[1 << 10, 1 << 12]
    } else {
        &[1 << 16, 1 << 18, 1 << 20]
    };
    let shard_counts = [1, 2, 8];
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1) as u64;

    let mut table = ExperimentTable::new(
        "E-scaling — sharded engine throughput (nodes x shards; min of 3 runs; identical outputs enforced)",
        &[
            "workload",
            "n",
            "m",
            "shards",
            "cores",
            "rounds",
            "messages",
            "wall s",
            "speedup vs 1 shard",
            "identical to 1 shard",
        ],
    );

    for workload in ScalingWorkload::throughput_sweep() {
        for &n in sizes {
            let graph = workload.build(n, 42).expect("workload builds");
            let m = graph.edge_count() as u64;
            let mut baseline: Option<RunResult> = None;
            for shards in shard_counts {
                let result = run_best_of(&graph, shards);
                let (speedup, identical) = match &baseline {
                    None => (1.0, true),
                    Some(reference) => {
                        let identical = reference.digest == result.digest
                            && reference.messages == result.messages
                            && reference.rounds == result.rounds
                            && reference.metrics == result.metrics;
                        assert!(
                            identical,
                            "{}/{n}: {shards}-shard run diverged from sequential",
                            workload.label()
                        );
                        (reference.elapsed_s / result.elapsed_s, identical)
                    }
                };
                eprintln!(
                    "{:12} n={n:>8} m={m:>9} shards={shards} {:>8.3}s x{speedup:.2}",
                    workload.label(),
                    result.elapsed_s
                );
                table.push_row(vec![
                    cell_str(workload.label()),
                    cell_u64(n as u64),
                    cell_u64(m),
                    cell_u64(shards as u64),
                    cell_u64(cores),
                    cell_u64(result.rounds),
                    cell_u64(result.messages),
                    cell_f64(result.elapsed_s),
                    cell_f64(speedup),
                    cell_str(if identical { "yes" } else { "NO" }),
                ]);
                if baseline.is_none() {
                    baseline = Some(result);
                }
            }
        }
    }

    println!("{}", table.to_markdown());

    if let Some(path) = output {
        let json = tables_to_json(&[&table]);
        std::fs::write(&path, json).expect("result file is writable");
        eprintln!("wrote {path}");
    }
}
