//! Golden fingerprints of the generated workload graphs.
//!
//! Every experiment, golden ledger and benchmark count starts from these
//! generators, so a change to their random stream, edge order, edge IDs or
//! incidence order must be deliberate. Each row pins one `(family, n, seed)`
//! point: the edge count and an FNV-1a digest of the whole graph. The
//! digest folds the node count, then `(id, u, v)` of every edge in storage
//! order, then every incidence list `(edge, neighbor)` node by node, all
//! little-endian. FNV-1a is fixed by its definition (unlike std's
//! `DefaultHasher`, whose algorithm may change between Rust releases).
//!
//! Erdős–Rényi at n = 10 and 11 has expected degree 8 out of 9 or 10
//! possible neighbours, so most backbone pairs are also drawn by the skip
//! sampler: those points pin that a pair is added once, at its backbone
//! position.

use freelunch_bench::{ScalingWorkload, Workload};
use freelunch_graph::MultiGraph;
use freelunch_runtime::checkpoint::fnv1a64;

fn fingerprint(graph: &MultiGraph) -> u64 {
    let mut bytes = Vec::with_capacity(8 + 40 * graph.edge_count());
    bytes.extend_from_slice(&(graph.node_count() as u64).to_le_bytes());
    for edge in graph.edges() {
        bytes.extend_from_slice(&edge.id.raw().to_le_bytes());
        bytes.extend_from_slice(&edge.u.raw().to_le_bytes());
        bytes.extend_from_slice(&edge.v.raw().to_le_bytes());
    }
    for node in graph.nodes() {
        for incident in graph.incident_edges(node) {
            bytes.extend_from_slice(&incident.edge.raw().to_le_bytes());
            bytes.extend_from_slice(&incident.neighbor.raw().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// `(n, seed, edge count, fingerprint)` per point.
type Golden = [(usize, u64, usize, u64)];

fn check(label: &str, golden: &Golden, build: impl Fn(usize, u64) -> MultiGraph) {
    for &(n, seed, edges, digest) in golden {
        let graph = build(n, seed);
        assert_eq!(
            (graph.edge_count(), fingerprint(&graph)),
            (edges, digest),
            "{label} n = {n} seed = {seed}: (edge count, fingerprint) changed"
        );
    }
}

fn check_scaling(workload: ScalingWorkload, golden: &Golden) {
    check(workload.label(), golden, |n, seed| {
        workload.build(n, seed).expect("scaling workload builds")
    });
}

#[test]
fn erdos_renyi_graphs_are_pinned() {
    check_scaling(
        ScalingWorkload::ErdosRenyi,
        &[
            (10, 1, 42, 0x5d9e_5e11_86ec_c03e),
            (10, 42, 41, 0x720b_7d4d_246e_d4a7),
            (11, 3, 45, 0x3991_5cdc_f548_7c72),
            (11, 42, 46, 0x838c_759e_154f_d92f),
            (4096, 42, 20_213, 0xf4ad_bf0f_6bc5_47a7),
        ],
    );
}

#[test]
fn scale_free_graphs_are_pinned() {
    check_scaling(
        ScalingWorkload::ScaleFree,
        &[
            (5, 1, 10, 0x0352_03e7_b905_4fb1),
            (64, 42, 246, 0xed4d_0cf1_c1b0_c9e4),
            (4096, 42, 16_374, 0x9c1e_b5e9_d065_44a0),
        ],
    );
}

#[test]
fn community_graphs_are_pinned() {
    check_scaling(
        ScalingWorkload::Community,
        &[
            (64, 42, 454, 0x5fea_78f8_93c1_7708),
            (1000, 7, 7_463, 0x7f41_e6e3_a90a_a000),
            (4096, 42, 30_334, 0x0e76_6c32_4488_d024),
        ],
    );
}

#[test]
fn skewed_hub_graphs_are_pinned() {
    check_scaling(
        ScalingWorkload::SkewedHub,
        &[
            (10, 0, 9, 0xf4bb_4eb4_7be4_1b37),
            (4096, 0, 4_095, 0x0aa4_5176_61c3_a5ab),
        ],
    );
}

#[test]
fn dense_random_graphs_are_pinned() {
    check(
        Workload::DenseRandom.label(),
        &[
            (10, 1, 12, 0x8bb8_baa5_a98b_2d9f),
            (256, 42, 6_630, 0xc5d7_612e_4f1d_4b5b),
        ],
        |n, seed| {
            Workload::DenseRandom
                .build(n, seed)
                .expect("dense workload builds")
        },
    );
}
