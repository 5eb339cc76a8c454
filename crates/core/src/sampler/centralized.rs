//! The faithful implementation of Algorithm `Sampler` (Pseudocode 1) and
//! procedure `Cluster_j` (Pseudocode 2), replayed with the distributed cost
//! accounting of Section 5.
//!
//! The implementation follows the paper level by level:
//!
//! 1. at level `j`, every node `v` of the (virtual) graph `G_j` runs up to
//!    `2h` sampling trials; each trial draws a budgeted number of edges
//!    uniformly at random (with replacement) from the not-yet-explored edge
//!    set `X_v`, queries the neighbors behind them, keeps one edge per newly
//!    discovered neighbor in `F_v` and *peels off* every parallel edge to
//!    that neighbor from `X_v`;
//! 2. a node ends the step **light** (all neighbors queried), **heavy**
//!    (target reached) or — with the small probability bounded by Lemma 6 —
//!    **ambiguous**;
//! 3. every node marks itself a center with probability `n^{-2^j δ}`;
//!    non-center nodes that queried a center merge into (an arbitrary) one;
//!    the merged clusters become the nodes of `G_{j+1}`;
//! 4. after the final level the union of the `F` sets is the spanner `S`.

use super::cost::{DistributedCostModel, LevelActivity};
use super::figure1::{Figure1Trace, LevelTrace};
use super::hierarchy::{level_tree_stats, ClusterInfo, LevelTreeStats};
use super::NodeClass;
use crate::error::{CoreError, CoreResult};
use crate::params::{FallbackPolicy, SamplerParams};
use freelunch_graph::cluster::{contract, ClusterAssignment};
use freelunch_graph::{ClusterId, EdgeId, MultiGraph, NodeId};
use freelunch_runtime::CostReport;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The `Sampler` spanner-construction algorithm of Theorem 2.
///
/// # Examples
///
/// ```
/// use freelunch_core::sampler::{Sampler, SamplerParams};
/// use freelunch_graph::generators::{connected_erdos_renyi, GeneratorConfig};
/// use freelunch_graph::spanner_check::verify_edge_stretch;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = connected_erdos_renyi(&GeneratorConfig::new(150, 3), 0.2)?;
/// let params = SamplerParams::new(2, 4)?;
/// let outcome = Sampler::new(params).run(&graph, 11)?;
///
/// // The spanner respects the stretch bound 2·3^k − 1 of Theorem 9 …
/// let report = verify_edge_stretch(&graph, outcome.spanner_edges().iter().copied())?;
/// assert!(report.satisfies(params.stretch_bound()));
/// // … and never has more edges than the graph itself.
/// assert!(outcome.spanner_size() <= graph.edge_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sampler {
    params: SamplerParams,
    cost_model: DistributedCostModel,
}

impl Sampler {
    /// Creates a sampler with the given parameters and the default cost
    /// model.
    pub fn new(params: SamplerParams) -> Self {
        Sampler {
            params,
            cost_model: DistributedCostModel::default(),
        }
    }

    /// The parameters this sampler runs with.
    pub(crate) fn params(&self) -> &SamplerParams {
        &self.params
    }

    /// Runs the algorithm on `graph` with the given random seed.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is empty or a cluster-graph contraction
    /// fails (which would indicate an internal invariant violation).
    pub fn run(&self, graph: &MultiGraph, seed: u64) -> CoreResult<SamplerOutcome> {
        self.run_internal(graph, seed, None)
    }

    /// Runs the algorithm and additionally records a Figure-1 style trace of
    /// every level.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sampler::run`].
    pub fn run_with_trace(
        &self,
        graph: &MultiGraph,
        seed: u64,
    ) -> CoreResult<(SamplerOutcome, Figure1Trace)> {
        let mut trace = Figure1Trace::new();
        let outcome = self.run_internal(graph, seed, Some(&mut trace))?;
        Ok((outcome, trace))
    }

    fn run_internal(
        &self,
        graph: &MultiGraph,
        seed: u64,
        mut trace: Option<&mut Figure1Trace>,
    ) -> CoreResult<SamplerOutcome> {
        if graph.node_count() == 0 {
            return Err(CoreError::invalid_parameter("the input graph has no nodes"));
        }
        let n0 = graph.node_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        let mut spanner: BTreeSet<EdgeId> = BTreeSet::new();
        let mut levels: Vec<LevelReport> = Vec::with_capacity(self.params.k as usize + 1);
        let mut hierarchy: Vec<Vec<ClusterInfo>> = Vec::with_capacity(self.params.k as usize + 1);
        let mut total_cost = CostReport::zero();

        // Level 0: every node of G is a singleton cluster.
        let mut current_graph = graph.clone();
        let mut current_clusters: Vec<ClusterInfo> =
            graph.nodes().map(ClusterInfo::singleton).collect();

        for level in 0..=self.params.k {
            let tree_stats = level_tree_stats(&current_clusters);
            let is_last = level == self.params.k;

            let step = self.sampling_step(&current_graph, level, n0, &mut rng);
            let mut query_messages = step.query_messages;
            let mut f_edges: Vec<Vec<EdgeId>> = step.f_edges;
            let classes = step.classes;
            let mut fallbacks = 0usize;

            // Step 2: center marking and clustering (all levels but the last).
            let p = self.params.center_probability(level, n0);
            let mut is_center = vec![false; current_graph.node_count()];
            let mut joined_to: Vec<Option<(usize, EdgeId)>> =
                vec![None; current_graph.node_count()];
            if !is_last {
                for center in is_center.iter_mut() {
                    *center = rng.gen_bool(p);
                }
                for v in 0..current_graph.node_count() {
                    if is_center[v] {
                        continue;
                    }
                    let node = NodeId::from_usize(v);
                    // Merge into the first queried center (the paper allows an
                    // arbitrary choice).
                    for &edge in &f_edges[v] {
                        let neighbor = current_graph.other_endpoint(edge, node)?;
                        if is_center[neighbor.index()] {
                            joined_to[v] = Some((neighbor.index(), edge));
                            break;
                        }
                    }
                }
            }

            // Fallback: a node that stays unclustered (no center at the last
            // level, not a center, not merged) must be light for the stretch
            // argument of Theorem 9. If the trials left it non-light, query
            // its remaining edges (charged) so the guarantee is unconditional.
            if self.params.fallback == FallbackPolicy::QueryRemaining {
                for v in 0..current_graph.node_count() {
                    let unclustered = !is_center[v] && joined_to[v].is_none();
                    if unclustered && classes[v] != NodeClass::Light {
                        let node = NodeId::from_usize(v);
                        let (extra_edges, extra_messages) =
                            query_all_remaining(&current_graph, node, &f_edges[v]);
                        query_messages += extra_messages;
                        f_edges[v].extend(extra_edges);
                        fallbacks += 1;
                    }
                }
            }

            // Collect F = ∪_v F_v into the spanner.
            let mut added_this_level = 0usize;
            let mut level_f: Vec<EdgeId> = Vec::new();
            for edges in &f_edges {
                for &edge in edges {
                    level_f.push(edge);
                    if spanner.insert(edge) {
                        added_this_level += 1;
                    }
                }
            }

            // Distributed cost of this level (Section 5 accounting).
            let join_messages = 2 * joined_to.iter().filter(|j| j.is_some()).count() as u64;
            let activity = LevelActivity {
                trial_slots: step.trial_slots,
                query_messages,
                join_messages,
                has_clustering_step: !is_last,
            };
            let level_cost = self.cost_model.level_cost(&tree_stats, &activity);
            total_cost += level_cost;

            let light = classes.iter().filter(|c| c.is_light()).count();
            let heavy = classes.iter().filter(|c| c.is_heavy()).count();
            let ambiguous = classes
                .iter()
                .filter(|c| **c == NodeClass::Ambiguous)
                .count();
            let centers = is_center.iter().filter(|&&c| c).count();
            let clustered = joined_to.iter().filter(|j| j.is_some()).count();

            hierarchy.push(current_clusters.clone());

            // Contract into G_{j+1}.
            let next = if is_last {
                None
            } else {
                Some(self.contract_level(
                    &current_graph,
                    &current_clusters,
                    &is_center,
                    &joined_to,
                    graph,
                )?)
            };

            if let Some(trace) = trace.as_deref_mut() {
                trace.levels.push(build_level_trace(
                    level,
                    &current_graph,
                    &current_clusters,
                    &step.query_edges,
                    &level_f,
                    &is_center,
                    &joined_to,
                    next.as_ref().map(|(g, _)| g.node_count()),
                ));
            }

            levels.push(LevelReport {
                level,
                nodes: current_graph.node_count(),
                edges: current_graph.edge_count(),
                light,
                heavy,
                ambiguous,
                fallbacks,
                centers,
                clustered_nodes: clustered,
                spanner_edges_added: added_this_level,
                query_messages,
                join_messages,
                trial_slots: step.trial_slots,
                tree_stats,
                cost: level_cost,
            });

            match next {
                Some((next_graph, next_clusters)) => {
                    current_graph = next_graph;
                    current_clusters = next_clusters;
                }
                None => break,
            }
        }

        Ok(SamplerOutcome {
            spanner: spanner.into_iter().collect(),
            levels,
            hierarchy,
            cost: total_cost,
            params: self.params,
            input_nodes: n0,
            input_edges: graph.edge_count(),
        })
    }

    /// Step 1 of `Cluster_j`: the iterative edge-sampling trials of every
    /// node of the current level graph.
    fn sampling_step(
        &self,
        graph: &MultiGraph,
        level: u32,
        n0: usize,
        rng: &mut ChaCha8Rng,
    ) -> SamplingStep {
        let node_count = graph.node_count();
        let target = self.params.neighbor_target(level, n0);
        let budget = self.params.trial_query_budget(level, n0);
        let max_trials = self.params.trials_per_level();

        let mut f_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); node_count];
        let mut classes: Vec<NodeClass> = vec![NodeClass::Light; node_count];
        let mut query_messages = 0u64;
        let mut trial_slots = 0u32;
        let mut query_edges: Vec<EdgeId> = Vec::new();

        for v in 0..node_count {
            let node = NodeId::from_usize(v);
            let incident = graph.incident_edges(node);
            // X_v and the per-neighbor edge lists used for peeling.
            let mut pool: Vec<EdgeId> = incident.iter().map(|ie| ie.edge).collect();
            let mut position: HashMap<EdgeId, usize> =
                pool.iter().enumerate().map(|(i, e)| (*e, i)).collect();
            let mut edges_to: HashMap<NodeId, Vec<EdgeId>> = HashMap::new();
            let mut neighbor_of: HashMap<EdgeId, NodeId> = HashMap::with_capacity(incident.len());
            for ie in incident {
                edges_to.entry(ie.neighbor).or_default().push(ie.edge);
                neighbor_of.insert(ie.edge, ie.neighbor);
            }

            let mut queried: HashSet<NodeId> = HashSet::new();
            let mut trials_used = 0u32;

            for _trial in 0..max_trials {
                if f_edges[v].len() >= target || pool.is_empty() {
                    break;
                }
                trials_used += 1;

                // Draw the trial's query edges. When the budget is large
                // enough that a uniform sample with replacement would cover
                // X_v with overwhelming probability (coupon-collector
                // threshold), querying all remaining edges is statistically
                // equivalent and much cheaper.
                let mut sampled: Vec<EdgeId> = Vec::new();
                let mut seen: HashSet<EdgeId> = HashSet::new();
                let coupon_threshold =
                    (pool.len() as f64 * ((pool.len().max(1) as f64).ln() + 3.0)).ceil() as usize;
                if budget >= coupon_threshold {
                    sampled.extend(pool.iter().copied());
                } else {
                    for _ in 0..budget {
                        let pick = pool[rng.gen_range(0..pool.len())];
                        if seen.insert(pick) {
                            sampled.push(pick);
                        }
                    }
                }
                // Each distinct query edge costs a query and a response.
                query_messages += 2 * sampled.len() as u64;
                query_edges.extend(sampled.iter().copied());

                let mut newly: Vec<NodeId> = Vec::new();
                for edge in sampled {
                    // Cap the additions at the neighbor-finding target: once a
                    // node has found `target` neighbors it is heavy and extra
                    // spanner edges would only violate the size bound of
                    // Theorem 2 (the queries themselves are already charged).
                    if f_edges[v].len() >= target {
                        break;
                    }
                    let neighbor = neighbor_of[&edge];
                    if queried.insert(neighbor) {
                        f_edges[v].push(edge);
                        newly.push(neighbor);
                    }
                }
                // Peel off every edge leading to a freshly queried neighbor.
                for neighbor in newly {
                    for edge in &edges_to[&neighbor] {
                        if let Some(idx) = position.remove(edge) {
                            let last = *pool.last().expect("pool is non-empty while removing");
                            pool.swap_remove(idx);
                            if idx < pool.len() {
                                position.insert(last, idx);
                            }
                        }
                    }
                }
            }

            // Heavy takes precedence: a node whose additions were capped at
            // the target has queried the target many neighbors (the paper's
            // heavy condition) even if its edge pool happens to be empty.
            classes[v] = if f_edges[v].len() >= target {
                NodeClass::Heavy
            } else if pool.is_empty() {
                NodeClass::Light
            } else {
                NodeClass::Ambiguous
            };
            trial_slots = trial_slots.max(trials_used);
        }

        SamplingStep {
            f_edges,
            classes,
            query_messages,
            trial_slots,
            query_edges,
        }
    }

    /// Step 2 aftermath: build the cluster assignment, merge the cluster
    /// infos and contract the level graph.
    fn contract_level(
        &self,
        level_graph: &MultiGraph,
        clusters: &[ClusterInfo],
        is_center: &[bool],
        joined_to: &[Option<(usize, EdgeId)>],
        original_graph: &MultiGraph,
    ) -> CoreResult<(MultiGraph, Vec<ClusterInfo>)> {
        let mut assignment = ClusterAssignment::unclustered(level_graph.node_count());
        let mut cluster_of_center: HashMap<usize, ClusterId> = HashMap::new();
        let mut center_order: Vec<usize> = Vec::new();
        for (v, &center) in is_center.iter().enumerate() {
            if center {
                let id = ClusterId::from_usize(center_order.len());
                cluster_of_center.insert(v, id);
                center_order.push(v);
                assignment.assign(NodeId::from_usize(v), id)?;
            }
        }
        let mut joined_by_center: HashMap<usize, Vec<(usize, EdgeId)>> = HashMap::new();
        for (v, join) in joined_to.iter().enumerate() {
            if let Some((center, edge)) = join {
                assignment.assign(NodeId::from_usize(v), cluster_of_center[center])?;
                joined_by_center
                    .entry(*center)
                    .or_default()
                    .push((v, *edge));
            }
        }

        let mut next_clusters = Vec::with_capacity(center_order.len());
        for &center in &center_order {
            let joined: Vec<(&ClusterInfo, EdgeId)> = joined_by_center
                .get(&center)
                .map(|list| list.iter().map(|(v, e)| (&clusters[*v], *e)).collect())
                .unwrap_or_default();
            next_clusters.push(ClusterInfo::merge(
                &clusters[center],
                &joined,
                original_graph,
            ));
        }

        let contraction = contract(level_graph, &assignment)?;
        Ok((contraction.graph, next_clusters))
    }
}

/// Queries every edge of `node` that was not yet explored (i.e. whose
/// neighbor does not yet have an `F` edge), returning one new `F` edge per
/// remaining distinct neighbor and the number of messages charged
/// (query + response per remaining incident edge).
fn query_all_remaining(
    graph: &MultiGraph,
    node: NodeId,
    existing: &[EdgeId],
) -> (Vec<EdgeId>, u64) {
    // Neighbors already queried before the fallback: every edge to them has
    // been peeled off X_v and is not queried again.
    let mut already_queried: HashSet<NodeId> = HashSet::new();
    for &edge in existing {
        if let Ok(other) = graph.other_endpoint(edge, node) {
            already_queried.insert(other);
        }
    }
    let mut covered = already_queried.clone();
    let mut extra: Vec<EdgeId> = Vec::new();
    let mut remaining_edges = 0u64;
    for ie in graph.incident_edges(node) {
        if already_queried.contains(&ie.neighbor) {
            continue;
        }
        // This edge is still in X_v: the fallback queries it (and all its
        // parallels — the node cannot tell them apart before the replies).
        remaining_edges += 1;
        if covered.insert(ie.neighbor) {
            // Keep exactly one edge per newly covered neighbor.
            extra.push(ie.edge);
        }
    }
    (extra, 2 * remaining_edges)
}

struct SamplingStep {
    f_edges: Vec<Vec<EdgeId>>,
    classes: Vec<NodeClass>,
    query_messages: u64,
    trial_slots: u32,
    query_edges: Vec<EdgeId>,
}

#[allow(clippy::too_many_arguments)]
fn build_level_trace(
    level: u32,
    graph: &MultiGraph,
    clusters: &[ClusterInfo],
    query_edges: &[EdgeId],
    f_edges: &[EdgeId],
    is_center: &[bool],
    joined_to: &[Option<(usize, EdgeId)>],
    next_level_nodes: Option<usize>,
) -> LevelTrace {
    let centers: Vec<NodeId> = is_center
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c)
        .map(|(v, _)| clusters[v].root)
        .collect();
    let mut grouped: HashMap<usize, Vec<NodeId>> = HashMap::new();
    for (v, &center) in is_center.iter().enumerate() {
        if center {
            grouped
                .entry(v)
                .or_default()
                .extend(clusters[v].members.iter().copied());
        }
    }
    for (v, join) in joined_to.iter().enumerate() {
        if let Some((center, _)) = join {
            grouped
                .entry(*center)
                .or_default()
                .extend(clusters[v].members.iter().copied());
        }
    }
    let mut cluster_members: Vec<Vec<NodeId>> = grouped
        .into_values()
        .map(|mut members| {
            members.sort_unstable();
            members
        })
        .collect();
    cluster_members.sort();
    let unclustered: Vec<NodeId> = (0..graph.node_count())
        .filter(|&v| !is_center[v] && joined_to[v].is_none())
        .map(|v| clusters[v].root)
        .collect();
    let mut query_edges = query_edges.to_vec();
    query_edges.sort_unstable();
    query_edges.dedup();
    let mut f_edges = f_edges.to_vec();
    f_edges.sort_unstable();
    f_edges.dedup();
    LevelTrace {
        level,
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        query_edges,
        f_edges,
        centers,
        clusters: cluster_members,
        unclustered,
        next_level_nodes,
    }
}

/// Per-level report of a `Sampler` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelReport {
    /// Level index `j`.
    pub level: u32,
    /// `n_j`: number of nodes of `G_j`.
    pub nodes: usize,
    /// `m_j`: number of edges of `G_j` (with multiplicities).
    pub edges: usize,
    /// Nodes classified light.
    pub light: usize,
    /// Nodes classified heavy.
    pub heavy: usize,
    /// Nodes classified ambiguous (before any fallback).
    pub ambiguous: usize,
    /// Unclustered non-light nodes repaired by the fallback policy.
    pub fallbacks: usize,
    /// Nodes marked as centers.
    pub centers: usize,
    /// Non-center nodes merged into a center's cluster.
    pub clustered_nodes: usize,
    /// Edges newly added to the spanner at this level.
    pub spanner_edges_added: usize,
    /// Messages exchanged over `G_j` edges by the sampling step (query +
    /// response per distinct query edge, fallback queries included).
    pub query_messages: u64,
    /// Messages exchanged over `G_j` edges by the clustering step.
    pub join_messages: u64,
    /// Number of synchronous trial slots executed at this level.
    pub trial_slots: u32,
    /// Tree statistics of the clusters this level's virtual nodes correspond
    /// to (these trees carry the broadcast–convergecast traffic).
    pub tree_stats: LevelTreeStats,
    /// Distributed cost of this level under the Section 5 accounting.
    pub cost: CostReport,
}

/// The result of a `Sampler` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplerOutcome {
    /// The spanner edge set `S` (sorted, deduplicated original edge IDs).
    pub spanner: Vec<EdgeId>,
    /// Per-level reports.
    pub levels: Vec<LevelReport>,
    /// The cluster hierarchy: `hierarchy[j]` lists the clusters that the
    /// nodes of `G_j` correspond to.
    pub hierarchy: Vec<Vec<ClusterInfo>>,
    /// Total distributed cost (Section 5 accounting).
    pub cost: CostReport,
    /// The parameters the run used.
    pub params: SamplerParams,
    /// Number of nodes of the input graph.
    pub input_nodes: usize,
    /// Number of edges of the input graph.
    pub input_edges: usize,
}

impl SamplerOutcome {
    /// The spanner edge set.
    pub fn spanner_edges(&self) -> &[EdgeId] {
        &self.spanner
    }

    /// Number of spanner edges.
    pub fn spanner_size(&self) -> usize {
        self.spanner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ConstantPolicy;
    use freelunch_graph::generators::{
        complete_graph, connected_erdos_renyi, cycle_graph, GeneratorConfig,
    };
    use freelunch_graph::spanner_check::verify_edge_stretch;
    use freelunch_graph::traversal::is_connected;

    fn paper_params(k: u32, h: u32) -> SamplerParams {
        SamplerParams::new(k, h).unwrap()
    }

    fn practical_params(k: u32, h: u32) -> SamplerParams {
        SamplerParams::with_constants(
            k,
            h,
            ConstantPolicy::Practical {
                target_factor: 4.0,
                query_factor: 8.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn empty_graph_is_rejected() {
        let sampler = Sampler::new(paper_params(1, 2));
        assert!(sampler.run(&MultiGraph::new(0), 0).is_err());
    }

    #[test]
    fn spanner_respects_stretch_bound_on_random_graphs() {
        for (k, seed) in [(1u32, 1u64), (2, 2), (3, 3)] {
            let graph = connected_erdos_renyi(&GeneratorConfig::new(120, seed), 0.15).unwrap();
            let params = practical_params(k, 3);
            let outcome = Sampler::new(params).run(&graph, seed).unwrap();
            let report =
                verify_edge_stretch(&graph, outcome.spanner_edges().iter().copied()).unwrap();
            assert!(
                report.satisfies(params.stretch_bound()),
                "k={k}: stretch {} exceeds bound {} (disconnected {})",
                report.max_stretch,
                params.stretch_bound(),
                report.disconnected_pairs
            );
        }
    }

    #[test]
    fn spanner_of_connected_graph_is_connected() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(100, 9), 0.2).unwrap();
        let params = practical_params(2, 3);
        let outcome = Sampler::new(params).run(&graph, 4).unwrap();
        let spanner = graph
            .edge_subgraph(outcome.spanner_edges().iter().copied())
            .unwrap();
        assert!(is_connected(&spanner));
    }

    #[test]
    fn paper_constants_classify_every_node_and_respect_the_size_bound() {
        // With the literal log³ n budgets, every node of a small graph
        // queries its whole edge pool in the very first trial, so nobody can
        // end up ambiguous; low-degree nodes are light, high-degree nodes are
        // heavy (capped at the target).
        let graph = connected_erdos_renyi(&GeneratorConfig::new(60, 5), 0.3).unwrap();
        let params = paper_params(2, 3);
        let outcome = Sampler::new(params).run(&graph, 7).unwrap();
        let level0 = &outcome.levels[0];
        assert_eq!(level0.ambiguous, 0);
        assert_eq!(level0.light + level0.heavy, graph.node_count());
        let target = params.neighbor_target(0, graph.node_count());
        for v in graph.nodes() {
            if graph.distinct_neighbor_count(v) < target {
                // A node that cannot possibly reach the target must be light.
                assert!(level0.light > 0);
            }
        }
        // The spanner never exceeds the input and respects the Õ(n^{1+δ})
        // shape: at most target + 1 edges per node per level.
        assert!(outcome.spanner_size() <= graph.edge_count());
        let per_level_cap = graph.node_count() * (target + 1) * (params.k as usize + 1);
        assert!(outcome.spanner_size() <= per_level_cap);
    }

    #[test]
    fn practical_constants_sparsify_dense_graphs() {
        let graph = complete_graph(&GeneratorConfig::new(200, 0)).unwrap();
        let params = practical_params(2, 3);
        let outcome = Sampler::new(params).run(&graph, 13).unwrap();
        assert!(
            outcome.spanner_size() < graph.edge_count() / 2,
            "spanner has {} of {} edges",
            outcome.spanner_size(),
            graph.edge_count()
        );
        let report = verify_edge_stretch(&graph, outcome.spanner_edges().iter().copied()).unwrap();
        assert!(report.satisfies(params.stretch_bound()));
    }

    #[test]
    fn levels_have_the_expected_shape() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(150, 2), 0.2).unwrap();
        let params = practical_params(2, 3);
        let outcome = Sampler::new(params).run(&graph, 21).unwrap();
        // k + 1 levels unless a level ran out of nodes.
        assert!(outcome.levels.len() <= params.k as usize + 1);
        assert_eq!(outcome.levels[0].nodes, graph.node_count());
        // Node counts are non-increasing across levels.
        for pair in outcome.levels.windows(2) {
            assert!(pair[1].nodes <= pair[0].nodes);
        }
        // Every level's light/heavy/ambiguous counts partition the nodes.
        for level in &outcome.levels {
            assert_eq!(level.light + level.heavy + level.ambiguous, level.nodes);
        }
        // The hierarchy records clusters for every executed level.
        assert_eq!(outcome.hierarchy.len(), outcome.levels.len());
    }

    #[test]
    fn cluster_trees_respect_lemma8_diameter_bound() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(150, 4), 0.2).unwrap();
        let params = practical_params(3, 3);
        let outcome = Sampler::new(params).run(&graph, 5).unwrap();
        for (j, clusters) in outcome.hierarchy.iter().enumerate() {
            let bound = 3u32.pow(j as u32) - 1;
            for cluster in clusters {
                assert!(
                    cluster.depth <= bound,
                    "level {j}: cluster rooted at {} has depth {} > {bound}",
                    cluster.root,
                    cluster.depth
                );
                // Tree is a spanning tree of the members.
                assert_eq!(cluster.tree_edges.len(), cluster.members.len() - 1);
            }
        }
    }

    #[test]
    fn cost_accounting_is_consistent_with_level_reports() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(120, 8), 0.25).unwrap();
        let outcome = Sampler::new(practical_params(2, 4)).run(&graph, 9).unwrap();
        let summed: CostReport = outcome
            .levels
            .iter()
            .fold(CostReport::zero(), |acc, level| acc + level.cost);
        assert_eq!(summed, outcome.cost);
        assert!(outcome.cost.messages > 0);
        assert!(outcome.cost.rounds > 0);
        let query_messages: u64 = outcome.levels.iter().map(|l| l.query_messages).sum();
        assert!(query_messages <= outcome.cost.messages);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(90, 3), 0.2).unwrap();
        let sampler = Sampler::new(practical_params(2, 3));
        let a = sampler.run(&graph, 99).unwrap();
        let b = sampler.run(&graph, 99).unwrap();
        assert_eq!(a.spanner, b.spanner);
        assert_eq!(a.cost, b.cost);
        let c = sampler.run(&graph, 100).unwrap();
        assert!(a.spanner != c.spanner || a.cost != c.cost);
    }

    #[test]
    fn cycle_graph_spanner_is_whole_cycle() {
        // Removing any edge of a cycle would stretch its endpoints to n−1,
        // far beyond the bound, so a correct run keeps every edge.
        let graph = cycle_graph(&GeneratorConfig::new(30, 0)).unwrap();
        let params = practical_params(1, 2);
        let outcome = Sampler::new(params).run(&graph, 3).unwrap();
        assert_eq!(outcome.spanner_size(), graph.edge_count());
    }

    #[test]
    fn trace_mirrors_figure1_panels() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(40, 6), 0.3).unwrap();
        let params = practical_params(2, 3);
        let (outcome, trace) = Sampler::new(params).run_with_trace(&graph, 17).unwrap();
        assert_eq!(trace.levels.len(), outcome.levels.len());
        let level0 = trace.level(0).unwrap();
        assert_eq!(level0.nodes, graph.node_count());
        // F edges are a subset of the query edges at every level.
        for level in &trace.levels {
            for edge in &level.f_edges {
                assert!(
                    level.query_edges.contains(edge),
                    "F edge {edge} was never queried"
                );
            }
        }
        // Clusters and unclustered roots partition the level-0 nodes.
        let clustered: usize = level0.clusters.iter().map(Vec::len).sum();
        assert_eq!(clustered + level0.unclustered.len(), graph.node_count());
    }

    #[test]
    fn fallback_none_matches_pseudocode_but_may_leave_ambiguity() {
        // With absurdly small budgets and no fallback the run still completes
        // and reports ambiguous nodes instead of silently repairing them.
        let graph = complete_graph(&GeneratorConfig::new(80, 0)).unwrap();
        let params = SamplerParams::with_constants(
            2,
            1,
            ConstantPolicy::Practical {
                target_factor: 0.5,
                query_factor: 0.5,
            },
        )
        .unwrap()
        .fallback(FallbackPolicy::None);
        let outcome = Sampler::new(params).run(&graph, 1).unwrap();
        let total_fallbacks: usize = outcome.levels.iter().map(|l| l.fallbacks).sum();
        assert_eq!(total_fallbacks, 0);
    }
}
