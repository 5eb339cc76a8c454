//! The `t`-local broadcast task (Section 6) realized by flooding on a
//! spanner.
//!
//! Every node `v` starts with a token; after the broadcast every node of
//! `B_{G,t}(v)` must hold `v`'s token. Given an `α`-spanner `H = (V, S)`,
//! flooding for `α·t` rounds *in `H`* accomplishes this: any node at
//! distance `≤ t` in `G` is at distance `≤ α·t` in `H`. Each node forwards
//! (a bundle of) newly learned tokens over its incident spanner edges once
//! per round, so at most `2·|S|` messages fly per round and the whole task
//! costs at most `2·α·t·|S|` messages — independent of `|E|`.
//!
//! The flood is failure-free, like the paper's executions: a
//! [`FaultPlan`](freelunch_runtime::FaultPlan) acts only at the engine's
//! round barrier (`docs/METRICS.md` §6).

use crate::error::{CoreError, CoreResult};
use freelunch_graph::traversal::ball;
use freelunch_graph::{EdgeId, IncidentEdge, MultiGraph, NodeId};
use freelunch_runtime::{edge_slot_count, CostReport, MessageLedger};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Wire size charged per token in a bundled flooding message (tokens are
/// node IDs, serialized as `u32`). See `docs/METRICS.md` for the sizing
/// rules.
pub const TOKEN_BYTES: u64 = 4;

/// A dense `n × n` bit matrix: row `v` records which tokens node `v` knows.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BitMatrix {
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            words_per_row,
            data: vec![0; n * words_per_row],
        }
    }

    fn set(&mut self, row: usize, column: usize) -> bool {
        let word = row * self.words_per_row + column / 64;
        let mask = 1u64 << (column % 64);
        let was_set = self.data[word] & mask != 0;
        self.data[word] |= mask;
        !was_set
    }

    fn get(&self, row: usize, column: usize) -> bool {
        self.data[row * self.words_per_row + column / 64] & (1u64 << (column % 64)) != 0
    }

    fn count_row(&self, row: usize) -> usize {
        let start = row * self.words_per_row;
        self.data[start..start + self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// Result of a flooding run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BroadcastOutcome {
    /// Rounds and messages spent by the flooding itself (spanner
    /// construction is *not* included; schemes add it separately).
    pub cost: CostReport,
    /// Radius of the flooding (`α·t` for a `t`-local broadcast on an
    /// `α`-spanner).
    pub radius: u32,
    /// For every node, the number of distinct tokens it holds at the end.
    pub tokens_received: Vec<usize>,
    /// Number of edges (with multiplicity) of the flooding subgraph.
    pub subgraph_edges: usize,
    /// Per-edge / per-round message and byte accounting of the flooding —
    /// the same meter the synchronous runtime reports through, so baseline
    /// and scheme numbers are directly comparable. `ledger.summary()`
    /// always equals [`BroadcastOutcome::cost`].
    pub ledger: MessageLedger,
    #[serde(skip)]
    known: Option<BitMatrix>,
}

impl BroadcastOutcome {
    /// Returns `true` if node `holder` ended up with the token of `source`.
    pub fn holds_token(&self, holder: NodeId, source: NodeId) -> bool {
        self.known
            .as_ref()
            .is_some_and(|known| known.get(holder.index(), source.index()))
    }

    /// Verifies the `t`-local broadcast specification: for every node `v`
    /// and every node `u ∈ B_{G,t}(v)`, `u` holds `v`'s token. Returns the
    /// number of (holder, source) violations.
    ///
    /// # Errors
    ///
    /// Propagates graph errors from the ball computations.
    pub fn coverage_violations(&self, graph: &MultiGraph, t: u32) -> CoreResult<usize> {
        let mut violations = 0;
        // One frozen view serves all n single-source ball queries.
        let frozen = graph.freeze();
        for source in graph.nodes() {
            for holder in ball(&frozen, source, t)? {
                if !self.holds_token(holder, source) {
                    violations += 1;
                }
            }
        }
        Ok(violations)
    }
}

/// Floods every node's token through the subgraph spanned by `subgraph_edges`
/// for exactly `radius` rounds, counting messages exactly: a node that
/// learned at least one new token in the previous round sends one (bundled)
/// message over each of its subgraph edges. This is
/// [`flood_on_subgraph_routed`] under [`FloodRouting::PerEdge`].
///
/// # Errors
///
/// Returns an error if any edge ID is unknown or the graph is empty.
pub fn flood_on_subgraph(
    graph: &MultiGraph,
    subgraph_edges: impl IntoIterator<Item = EdgeId>,
    radius: u32,
) -> CoreResult<BroadcastOutcome> {
    flood_on_subgraph_routed(graph, subgraph_edges, radius, FloodRouting::PerEdge)
}

/// How the flood assigns a token bundle to an edge when several parallel
/// edges join the sender to the same neighbor.
///
/// On simple graphs all three policies produce bit-identical outcomes (every
/// parallel class has size 1, so there is nothing to choose); they differ
/// only on multigraphs — e.g. spanners retaining parallel capacity links, or
/// workloads provisioned with bonded edges on high-traffic links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FloodRouting {
    /// One bundle per *incident edge*: parallel edges each carry a copy.
    /// This is the [`flood_on_subgraph`] behavior (and the paper's
    /// `2·|S|`-messages-per-round accounting, with `|S|` counting
    /// multiplicity).
    PerEdge,
    /// One bundle per *distinct neighbor*, always carried by the
    /// lowest-`EdgeId` edge of the parallel class. The deterministic
    /// first-edge baseline that congestion-aware routing is measured
    /// against.
    Canonical,
    /// One bundle per *distinct neighbor*, spread across the parallel class
    /// round-robin (with a direction-dependent offset, so for classes of
    /// size ≥ 2 the two directions never share an edge in a round). Sends
    /// exactly the same bundles as [`FloodRouting::Canonical`] — same total
    /// message count, same knowledge evolution — but its per-round maximum
    /// edge congestion is pointwise ≤ canonical's. See `docs/PLANNER.md`
    /// for the guarantee and the measured tail effect.
    CongestionAware,
}

/// The flood under an explicit [`FloodRouting`] policy.
///
/// [`FloodRouting::PerEdge`] sends one bundle per incident edge. The two
/// neighbor-routed policies ([`FloodRouting::Canonical`] and
/// [`FloodRouting::CongestionAware`]) send one bundle per (sender, distinct
/// neighbor) pair per active round; they share message totals, byte totals,
/// round activity, and token knowledge with each other — only the per-edge
/// distribution (and hence the congestion column) differs. Every policy's
/// cost is charged to the same phase accounting (callers wrap the returned
/// [`BroadcastOutcome::cost`] in [`crate::ledger::Ledger::for_tlocal`]).
///
/// # Errors
///
/// Returns an error if any edge ID is unknown or the graph is empty.
pub fn flood_on_subgraph_routed(
    graph: &MultiGraph,
    subgraph_edges: impl IntoIterator<Item = EdgeId>,
    radius: u32,
    routing: FloodRouting,
) -> CoreResult<BroadcastOutcome> {
    if graph.node_count() == 0 {
        return Err(CoreError::invalid_parameter("the graph has no nodes"));
    }
    let subgraph = graph.edge_subgraph(subgraph_edges)?;
    Ok(flood(&subgraph, radius, routing))
}

/// The flood's round loop on the subgraph itself. It is not generic over
/// the callers' edge iterators, so every caller runs one compiled copy of
/// the loop; a copy per iterator type ran the spanner flood of perfbench's
/// `simulate-dense` measurably slower than the direct flood's copy.
fn flood(subgraph: &MultiGraph, radius: u32, routing: FloodRouting) -> BroadcastOutcome {
    let n = subgraph.node_count();
    // Each node's links in serving order. `PerEdge` serves the incidence
    // list as it is, one bundle per edge; the neighbor-routed policies sort
    // it by (neighbor, edge ID), so each parallel class is one run and gets
    // one bundle. Built once; deterministic by construction.
    let per_class = routing != FloodRouting::PerEdge;
    let links: Vec<Cow<'_, [IncidentEdge]>> = subgraph
        .nodes()
        .map(|v| {
            let incident = subgraph.incident_edges(v);
            if !per_class {
                return Cow::Borrowed(incident);
            }
            let mut sorted = incident.to_vec();
            sorted.sort_unstable_by_key(|ie| (ie.neighbor.index(), ie.edge.index()));
            Cow::Owned(sorted)
        })
        .collect();

    let mut known = BitMatrix::new(n);
    let mut fresh: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (v, fresh_v) in fresh.iter_mut().enumerate() {
        known.set(v, v);
        fresh_v.push(v as u32);
    }

    // The emulated flood reports through the same per-edge/per-round meter
    // as the synchronous runtime. Nodes are scanned in ascending order every
    // round, so the accumulation order is canonical by construction.
    let mut ledger = MessageLedger::new(edge_slot_count(subgraph.edge_ids()));
    for round in 1..=radius {
        ledger.start_round();
        let mut next_fresh: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, fresh_v) in fresh.iter().enumerate() {
            if fresh_v.is_empty() {
                continue;
            }
            // One bundled message per link, sized as the number of bundled
            // tokens.
            let bundle_bytes = TOKEN_BYTES * fresh_v.len() as u64;
            for class in links[v].chunk_by(|a, b| per_class && a.neighbor == b.neighbor) {
                let neighbor = class[0].neighbor.index();
                let carrier = match routing {
                    FloodRouting::PerEdge | FloodRouting::Canonical => class[0].edge,
                    FloodRouting::CongestionAware => {
                        // Round-robin over the class; the higher-ID endpoint
                        // starts one slot ahead, so classes of size ≥ 2 never
                        // carry both directions on the same edge in a round.
                        let offset = usize::from(v > neighbor);
                        class[(round as usize - 1 + offset) % class.len()].edge
                    }
                };
                ledger.record_edge(carrier, bundle_bytes);
                for &token in fresh_v {
                    if known.set(neighbor, token as usize) {
                        next_fresh[neighbor].push(token);
                    }
                }
            }
        }
        fresh = next_fresh;
    }

    let tokens_received = (0..n).map(|v| known.count_row(v)).collect();
    BroadcastOutcome {
        cost: ledger.summary(),
        radius,
        tokens_received,
        subgraph_edges: subgraph.edge_count(),
        known: Some(known),
        ledger,
    }
}

/// The `t`-local broadcast of Lemma 12: flooding within distance
/// `stretch · t` on a `stretch`-spanner given by `spanner_edges`.
///
/// # Errors
///
/// Returns an error if `stretch` is zero or an edge ID is unknown.
pub fn t_local_broadcast(
    graph: &MultiGraph,
    spanner_edges: impl IntoIterator<Item = EdgeId>,
    t: u32,
    stretch: u32,
) -> CoreResult<BroadcastOutcome> {
    if stretch == 0 {
        return Err(CoreError::invalid_parameter(
            "the stretch must be at least 1",
        ));
    }
    flood_on_subgraph(graph, spanner_edges, stretch.saturating_mul(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{connected_erdos_renyi, cycle_graph, GeneratorConfig};

    #[test]
    fn flooding_on_full_graph_covers_balls_exactly() {
        let graph = cycle_graph(&GeneratorConfig::new(10, 0)).unwrap();
        let outcome = t_local_broadcast(&graph, graph.edge_ids(), 2, 1).unwrap();
        assert_eq!(outcome.coverage_violations(&graph, 2).unwrap(), 0);
        // On a cycle, |B(v, 2)| = 5 for every v.
        assert!(outcome.tokens_received.iter().all(|&c| c == 5));
        assert_eq!(outcome.cost.rounds, 2);
        // Round 1: every node sends over both edges (20 messages); round 2 the
        // same (every node learned 2 new tokens in round 1).
        assert_eq!(outcome.cost.messages, 40);
    }

    #[test]
    fn flooding_on_a_spanner_needs_the_stretch_factor() {
        // Spanner = cycle minus one edge (stretch n−1 for that edge); with
        // radius t·1 coverage fails, with a large enough radius it succeeds.
        let graph = cycle_graph(&GeneratorConfig::new(8, 0)).unwrap();
        let spanner: Vec<EdgeId> = graph.edge_ids().filter(|e| e.raw() != 7).collect();
        let too_short = t_local_broadcast(&graph, spanner.iter().copied(), 1, 1).unwrap();
        assert!(too_short.coverage_violations(&graph, 1).unwrap() > 0);
        let long_enough = t_local_broadcast(&graph, spanner.iter().copied(), 1, 7).unwrap();
        assert_eq!(long_enough.coverage_violations(&graph, 1).unwrap(), 0);
    }

    #[test]
    fn message_count_is_bounded_by_two_s_per_round() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(60, 3), 0.3).unwrap();
        let spanner: Vec<EdgeId> = graph.edge_ids().collect();
        let t = 3;
        let outcome = t_local_broadcast(&graph, spanner.iter().copied(), t, 1).unwrap();
        assert!(outcome.cost.messages <= 2 * spanner.len() as u64 * u64::from(t));
        assert_eq!(outcome.subgraph_edges, spanner.len());
    }

    #[test]
    fn radius_zero_sends_nothing() {
        let graph = cycle_graph(&GeneratorConfig::new(5, 0)).unwrap();
        let outcome = flood_on_subgraph(&graph, graph.edge_ids(), 0).unwrap();
        assert_eq!(outcome.cost.messages, 0);
        assert!(outcome.tokens_received.iter().all(|&c| c == 1));
        // Every node trivially holds its own token.
        assert_eq!(outcome.coverage_violations(&graph, 0).unwrap(), 0);
    }

    #[test]
    fn parameter_validation() {
        let graph = cycle_graph(&GeneratorConfig::new(5, 0)).unwrap();
        assert!(t_local_broadcast(&graph, graph.edge_ids(), 1, 0).is_err());
        assert!(flood_on_subgraph(&MultiGraph::new(0), std::iter::empty(), 1).is_err());
        assert!(flood_on_subgraph(&graph, [EdgeId::new(77)], 1).is_err());
    }

    #[test]
    fn ledger_agrees_with_cost_and_sizes_bundles() {
        let graph = cycle_graph(&GeneratorConfig::new(10, 0)).unwrap();
        let outcome = t_local_broadcast(&graph, graph.edge_ids(), 2, 1).unwrap();
        let ledger = &outcome.ledger;
        assert_eq!(ledger.summary(), outcome.cost);
        assert_eq!(
            ledger.messages_per_edge().iter().sum::<u64>(),
            outcome.cost.messages
        );
        // Round 1 bundles hold exactly one token (the node's own), so bytes
        // in slot 1 equal messages × TOKEN_BYTES.
        assert_eq!(
            ledger.bytes_per_round()[1],
            ledger.messages_per_round()[1] * TOKEN_BYTES
        );
        // On the cycle every edge carries one message per direction per
        // active round: congestion 2, and 4 messages per edge in total.
        assert_eq!(ledger.max_congestion(), 2);
        assert!(ledger.messages_per_edge().iter().all(|&c| c == 4));
        // Slot 0 (initialization) is always silent for the emulated flood.
        assert_eq!(ledger.messages_per_round()[0], 0);
    }

    #[test]
    fn routing_policies_coincide_on_simple_graphs() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(40, 9), 0.15).unwrap();
        let per_edge = flood_on_subgraph(&graph, graph.edge_ids(), 3).unwrap();
        for routing in [
            FloodRouting::PerEdge,
            FloodRouting::Canonical,
            FloodRouting::CongestionAware,
        ] {
            let routed = flood_on_subgraph_routed(&graph, graph.edge_ids(), 3, routing).unwrap();
            assert_eq!(routed, per_edge, "{routing:?}");
        }
    }

    /// Doubled cycle edges: canonical routing piles both directions onto the
    /// first parallel edge, congestion-aware routing gives each direction its
    /// own — same bundles, same totals, flatter congestion.
    #[test]
    fn congestion_aware_routing_flattens_parallel_classes() {
        let mut graph = MultiGraph::new(6);
        for v in 0..6u32 {
            let u = NodeId::new(v);
            let w = NodeId::new((v + 1) % 6);
            graph.add_edge(u, w).unwrap();
            graph.add_edge(u, w).unwrap();
        }
        let canonical =
            flood_on_subgraph_routed(&graph, graph.edge_ids(), 3, FloodRouting::Canonical).unwrap();
        let aware =
            flood_on_subgraph_routed(&graph, graph.edge_ids(), 3, FloodRouting::CongestionAware)
                .unwrap();
        // Identical traffic and knowledge...
        assert_eq!(aware.cost, canonical.cost);
        assert_eq!(aware.ledger.total_bytes(), canonical.ledger.total_bytes());
        assert_eq!(aware.tokens_received, canonical.tokens_received);
        // ...but the congestion column flattens from 2 to 1.
        let aware_snap = aware.ledger.congestion_snapshot();
        let canonical_snap = canonical.ledger.congestion_snapshot();
        assert_eq!(canonical_snap.peak, 2);
        assert_eq!(aware_snap.peak, 1);
        assert!(aware_snap.never_exceeds(&canonical_snap));
        // One bundle per (sender, distinct neighbor): half the per-edge
        // flood's traffic on a doubled graph.
        let per_edge = flood_on_subgraph(&graph, graph.edge_ids(), 3).unwrap();
        assert_eq!(2 * canonical.cost.messages, per_edge.cost.messages);
    }

    #[test]
    fn neighbor_routed_policies_share_knowledge_with_the_per_edge_flood() {
        let mut graph = connected_erdos_renyi(&GeneratorConfig::new(30, 4), 0.2).unwrap();
        // Thicken a few links with parallel capacity.
        for (u, v) in [(0u32, 1u32), (3, 7), (10, 11)] {
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            if !graph.edges_between(u, v).is_empty() {
                graph.add_edge(u, v).unwrap();
            }
        }
        let per_edge = flood_on_subgraph(&graph, graph.edge_ids(), 4).unwrap();
        for routing in [FloodRouting::Canonical, FloodRouting::CongestionAware] {
            let routed = flood_on_subgraph_routed(&graph, graph.edge_ids(), 4, routing).unwrap();
            assert_eq!(routed.tokens_received, per_edge.tokens_received);
            assert_eq!(routed.coverage_violations(&graph, 4).unwrap(), 0);
            assert!(routed.cost.messages <= per_edge.cost.messages);
        }
    }

    #[test]
    fn routed_parameter_validation() {
        let graph = cycle_graph(&GeneratorConfig::new(5, 0)).unwrap();
        assert!(flood_on_subgraph_routed(
            &MultiGraph::new(0),
            std::iter::empty(),
            1,
            FloodRouting::Canonical
        )
        .is_err());
        assert!(
            flood_on_subgraph_routed(&graph, [EdgeId::new(77)], 1, FloodRouting::Canonical)
                .is_err()
        );
    }

    #[test]
    fn holds_token_reports_exact_knowledge() {
        let graph = cycle_graph(&GeneratorConfig::new(6, 0)).unwrap();
        let outcome = flood_on_subgraph(&graph, graph.edge_ids(), 1).unwrap();
        let v0 = NodeId::new(0);
        assert!(outcome.holds_token(v0, v0));
        assert!(outcome.holds_token(v0, NodeId::new(1)));
        assert!(outcome.holds_token(v0, NodeId::new(5)));
        assert!(!outcome.holds_token(v0, NodeId::new(3)));
    }
}
