//! Pins the "last ckpt bytes" column of the committed `BENCH_recovery.json`.
//!
//! `exp_recovery` checkpoints a Luby-MIS run (n = 768, seed 42) until it
//! halts; whatever the interval, the last checkpoint is the one taken at the
//! halting round, so each workload has one size. This test recomputes the
//! three sizes, checks them against the constants below (a change to the
//! checkpoint format must re-pin them) and checks that every row of the
//! committed file records them (a format change must re-record the file).
//! The vendored `serde_json` has no parser, so the file is searched as text:
//! each number sits on a line of its own in the pretty-printed JSON.

use freelunch_algorithms::LubyMis;
use freelunch_bench::ScalingWorkload;
use freelunch_runtime::{Network, NetworkConfig};

/// The committed recovery record.
const RECORDED: &str = include_str!("../../../BENCH_recovery.json");

/// Node count and seed of `exp_recovery`'s checkpoint-cost table.
const N: usize = 768;
const SEED: u64 = 42;

/// Checkpoint intervals of the full sweep: one row each per workload.
const INTERVALS: usize = 4;

/// Bytes of the halting round's checkpoint, per workload.
const GOLDEN: [(ScalingWorkload, usize); 3] = [
    (ScalingWorkload::ErdosRenyi, 128_620),
    (ScalingWorkload::ScaleFree, 110_380),
    (ScalingWorkload::Community, 174_444),
];

#[test]
fn last_checkpoint_sizes_match_the_committed_record() {
    for (workload, golden) in GOLDEN {
        let graph = workload.build(N, SEED).expect("workload builds");
        let mut network = Network::new(&graph, NetworkConfig::with_seed(SEED), |_, knowledge| {
            LubyMis::new(knowledge.degree())
        })
        .expect("network builds");
        network.run_until_halt(300).expect("Luby-MIS halts");
        let bytes = network.checkpoint().to_bytes().len();
        assert_eq!(
            bytes,
            golden,
            "{}: checkpoint size changed",
            workload.label()
        );
        assert_eq!(
            RECORDED.matches(&format!(" {golden},\n")).count(),
            INTERVALS,
            "{}: BENCH_recovery.json does not record {golden} bytes in each of its rows",
            workload.label()
        );
    }
}
