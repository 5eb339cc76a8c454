//! Shared workload definitions for the experiments: the graph families and
//! the standard parameter choices used across experiment binaries and
//! criterion benches, so every table in EXPERIMENTS.md is regenerated from
//! the same inputs.

use freelunch_core::params::ConstantPolicy;
use freelunch_core::sampler::SamplerParams;
use freelunch_graph::generators::{
    barabasi_albert, complete_graph, connected_erdos_renyi, planted_partition,
    sparse_connected_erdos_renyi, sparse_planted_partition, GeneratorConfig,
    PlantedPartitionParams,
};
use freelunch_graph::{GraphResult, MultiGraph, NodeId};
use serde::{Deserialize, Serialize};

/// The graph families the evaluation sweeps over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// Dense Erdős–Rényi graph with constant edge probability (the `m ≫ n`
    /// regime the paper targets).
    DenseRandom,
    /// Sparse(ish) Erdős–Rényi graph with average degree ≈ 8.
    SparseRandom,
    /// Complete graph — the extreme dense case.
    Complete,
    /// Planted-partition graph: dense communities, sparse cuts.
    Communities,
}

impl Workload {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Workload::DenseRandom => "dense-er",
            Workload::SparseRandom => "sparse-er",
            Workload::Complete => "complete",
            Workload::Communities => "communities",
        }
    }

    /// Builds the workload graph with `n` nodes.
    ///
    /// # Errors
    ///
    /// Propagates generator errors.
    pub fn build(self, n: usize, seed: u64) -> GraphResult<MultiGraph> {
        let config = GeneratorConfig::new(n, seed);
        match self {
            Workload::DenseRandom => connected_erdos_renyi(&config, 0.2),
            Workload::SparseRandom => {
                let p = (8.0 / n as f64).min(1.0);
                connected_erdos_renyi(&config, p)
            }
            Workload::Complete => complete_graph(&config),
            Workload::Communities => {
                let communities = (n / 64).clamp(2, 16);
                let params = PlantedPartitionParams::new(communities, 0.4, 0.01)?;
                planted_partition(&config, &params)
            }
        }
    }
}

/// The large-scale workload families of the engine-scaling experiment.
///
/// Unlike [`Workload`], whose dense generators scan all `n²/2` node pairs,
/// every family here is built by an `O(n + m)` sparse generator, so the
/// sweep reaches the ≥10⁶-node sizes the paper's asymptotics are about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingWorkload {
    /// Sparse connected Erdős–Rényi graph with expected average degree 8.
    ErdosRenyi,
    /// Barabási–Albert preferential attachment with 4 edges per node
    /// (heavy-tailed degrees stress the shard load balance).
    ScaleFree,
    /// Sparse planted partition: blocks of ≈256 nodes, intra degree 12,
    /// one cut edge per two nodes.
    Community,
    /// Deterministic hub-and-spokes skew: a path-connected core of at most
    /// 64 hubs at the *lowest* node indices, every remaining node attached
    /// to one hub round-robin. Every edge is incident to a hub, so the
    /// first contiguous shard range carries half of all message work — the
    /// worst case for static shard chunking and the motivating case for
    /// the work-stealing scheduler (`docs/PERF.md` §2).
    SkewedHub,
}

impl ScalingWorkload {
    /// The three calibrated scaling families, in presentation order. The
    /// planner's cost models and the committed ledger / churn / recovery
    /// recordings quantify over exactly these; [`ScalingWorkload::SkewedHub`]
    /// is deliberately *not* included (no calibration exists for it — see
    /// [`ScalingWorkload::throughput_sweep`]).
    pub fn all() -> [ScalingWorkload; 3] {
        [
            ScalingWorkload::ErdosRenyi,
            ScalingWorkload::ScaleFree,
            ScalingWorkload::Community,
        ]
    }

    /// The engine-throughput sweep: [`ScalingWorkload::all`] plus the
    /// skewed-hub starvation topology. This is the grid `exp_scaling`
    /// records and the `round_barrier` bench regresses — the extra family
    /// exists to expose scheduler imbalance, not to feed the calibrated
    /// cost models.
    pub fn throughput_sweep() -> [ScalingWorkload; 4] {
        [
            ScalingWorkload::ErdosRenyi,
            ScalingWorkload::ScaleFree,
            ScalingWorkload::Community,
            ScalingWorkload::SkewedHub,
        ]
    }

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ScalingWorkload::ErdosRenyi => "erdos-renyi",
            ScalingWorkload::ScaleFree => "scale-free",
            ScalingWorkload::Community => "communities",
            ScalingWorkload::SkewedHub => "skewed-hub",
        }
    }

    /// Builds the workload graph with `n` nodes in `O(n + m)` expected time.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (e.g. `n` too small for the family).
    pub fn build(self, n: usize, seed: u64) -> GraphResult<MultiGraph> {
        let config = GeneratorConfig::new(n, seed);
        match self {
            ScalingWorkload::ErdosRenyi => sparse_connected_erdos_renyi(&config, 8.0),
            ScalingWorkload::ScaleFree => barabasi_albert(&config, 4),
            ScalingWorkload::Community => {
                let communities = (n / 256).clamp(2, 8192);
                sparse_planted_partition(&config, communities, 12.0, 1.0)
            }
            ScalingWorkload::SkewedHub => {
                // Deterministic by construction; the seed only names the row.
                let hubs = (n / 512).clamp(2, 64).min(n);
                let mut graph = MultiGraph::with_capacity(n, n.saturating_sub(1));
                for hub in 1..hubs {
                    graph.add_edge(NodeId::from_usize(hub - 1), NodeId::from_usize(hub))?;
                }
                for leaf in hubs..n {
                    graph.add_edge(NodeId::from_usize(leaf % hubs), NodeId::from_usize(leaf))?;
                }
                Ok(graph)
            }
        }
    }
}

/// The `Sampler` constant policy used by the experiments.
///
/// The paper-faithful `log³ n` budgets exceed every node degree at
/// simulatable sizes (the algorithm then degenerates to querying everything),
/// so the experiments use explicit constants — the asymptotic *shape* of the
/// theorem is what is being reproduced, not its `whp` constants.
/// EXPERIMENTS.md states this next to every affected table.
pub fn experiment_constants() -> ConstantPolicy {
    ConstantPolicy::Practical {
        target_factor: 4.0,
        query_factor: 4.0,
    }
}

/// The standard `Sampler` parameters used by an experiment for a given `k`
/// (trial budget `h = 7`, i.e. `ε = 1/7`).
///
/// # Panics
///
/// Panics only if the hard-coded parameters were invalid, which the tests
/// rule out.
pub fn experiment_params(k: u32) -> SamplerParams {
    SamplerParams::with_constants(k, 7, experiment_constants())
        .expect("hard-coded experiment parameters are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::traversal::is_connected;

    #[test]
    fn all_scaling_workloads_build_connected_sparse_graphs() {
        for workload in ScalingWorkload::throughput_sweep() {
            let graph = workload.build(4096, 3).unwrap();
            assert_eq!(graph.node_count(), 4096, "{}", workload.label());
            assert!(
                is_connected(&graph),
                "{} should be connected",
                workload.label()
            );
            // Sparse: m = O(n), far below the quadratic regime.
            assert!(
                graph.edge_count() < 16 * graph.node_count(),
                "{} too dense: {} edges",
                workload.label(),
                graph.edge_count()
            );
        }
    }

    #[test]
    fn all_workloads_build_connected_graphs() {
        for workload in [
            Workload::DenseRandom,
            Workload::SparseRandom,
            Workload::Complete,
            Workload::Communities,
        ] {
            let graph = workload.build(192, 1).unwrap();
            assert_eq!(graph.node_count(), 192, "{}", workload.label());
            assert!(
                is_connected(&graph),
                "{} should be connected",
                workload.label()
            );
        }
    }

    #[test]
    fn dense_workloads_are_denser_than_sparse_ones() {
        let dense = Workload::DenseRandom.build(256, 2).unwrap();
        let sparse = Workload::SparseRandom.build(256, 2).unwrap();
        assert!(dense.edge_count() > 3 * sparse.edge_count());
        let complete = Workload::Complete.build(256, 2).unwrap();
        assert_eq!(complete.edge_count(), 256 * 255 / 2);
    }

    #[test]
    fn experiment_params_are_valid_for_all_k() {
        for k in 1..=3 {
            let params = experiment_params(k);
            assert_eq!(params.k, k);
            assert_eq!(params.h, 7);
        }
    }
}
