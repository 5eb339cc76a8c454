//! Randomized maximal matching — a fourth LOCAL simulation target whose
//! output lives on edges rather than nodes.
//!
//! Each phase, every unmatched node picks one incident edge towards an
//! unmatched neighbor uniformly at random and proposes over it; an edge
//! whose two endpoints propose to each other (or a proposal accepted by the
//! receiver) becomes matched. Retired nodes announce themselves so their
//! neighbors stop proposing to them.

use freelunch_graph::EdgeId;
use freelunch_runtime::transport::{check_size_and_padding, pad_to_size, CodecError, WireCodec};
use freelunch_runtime::{Context, Envelope, NodeProgram};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Messages of the matching protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchingMessage {
    /// Proposal to match over the edge the message travels on.
    Propose,
    /// Acceptance of a proposal received in the previous round.
    Accept,
    /// The sender is matched; stop proposing to it.
    Retired,
}

/// Wire encoding: a single tag byte (0 = `Propose`, 1 = `Accept`,
/// 2 = `Retired`), padded to `size_of::<MatchingMessage>()` so the encoded
/// length equals the program's default `payload_bytes`.
impl WireCodec for MatchingMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.push(match self {
            MatchingMessage::Propose => 0,
            MatchingMessage::Accept => 1,
            MatchingMessage::Retired => 2,
        });
        pad_to_size(buf, start, std::mem::size_of::<MatchingMessage>());
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        check_size_and_padding(bytes, 1, std::mem::size_of::<MatchingMessage>())?;
        match bytes[0] {
            0 => Ok(MatchingMessage::Propose),
            1 => Ok(MatchingMessage::Accept),
            2 => Ok(MatchingMessage::Retired),
            tag => Err(CodecError::InvalidTag { tag }),
        }
    }
}

/// The per-node program.
///
/// Phases are two rounds long. In the propose round every unmatched node
/// becomes a *proposer* with probability 1/2 and sends a proposal over one
/// random live edge; in the accept round every unmatched *non-proposer*
/// accepts (at most) one received proposal, which finalises the match on
/// both sides — proposers never accept, so a proposal cannot be accepted by
/// a node that simultaneously matched elsewhere.
#[derive(Debug)]
pub struct MaximalMatching {
    matched_over: Option<EdgeId>,
    retired_sent: bool,
    dead_edges: HashSet<EdgeId>,
    is_proposer: bool,
    proposed_over: Option<EdgeId>,
}

impl MaximalMatching {
    /// Creates the per-node program.
    pub fn new() -> Self {
        MaximalMatching {
            matched_over: None,
            retired_sent: false,
            dead_edges: HashSet::new(),
            is_proposer: false,
            proposed_over: None,
        }
    }

    /// The edge this node is matched over, if any.
    pub fn matched_over(&self) -> Option<EdgeId> {
        self.matched_over
    }

    fn live_edges(&self, ctx: &Context<'_, MatchingMessage>) -> Vec<EdgeId> {
        ctx.ports()
            .filter_map(|p| p.edge_id)
            .filter(|e| !self.dead_edges.contains(e) && Some(*e) != self.matched_over)
            .collect()
    }

    fn retire(&mut self, ctx: &mut Context<'_, MatchingMessage>) {
        if !self.retired_sent {
            for edge in self.live_edges(ctx) {
                ctx.send(edge, MatchingMessage::Retired);
            }
            self.retired_sent = true;
        }
        ctx.halt();
    }
}

impl Default for MaximalMatching {
    fn default() -> Self {
        MaximalMatching::new()
    }
}

impl NodeProgram for MaximalMatching {
    type Message = MatchingMessage;

    fn round(
        &mut self,
        ctx: &mut Context<'_, MatchingMessage>,
        inbox: &[Envelope<MatchingMessage>],
    ) {
        // Process incoming traffic.
        let mut proposals: Vec<EdgeId> = Vec::new();
        for envelope in inbox {
            match envelope.payload {
                MatchingMessage::Propose => proposals.push(envelope.edge),
                MatchingMessage::Accept => {
                    if self.matched_over.is_none()
                        && self.is_proposer
                        && Some(envelope.edge) == self.proposed_over
                    {
                        self.matched_over = Some(envelope.edge);
                    }
                }
                MatchingMessage::Retired => {
                    self.dead_edges.insert(envelope.edge);
                }
            }
        }

        if ctx.round() % 2 == 1 {
            // Propose round. A matched node (finalised by an Accept that just
            // arrived, or earlier) retires instead of proposing.
            if self.matched_over.is_some() {
                self.retire(ctx);
                return;
            }
            let live = self.live_edges(ctx);
            if live.is_empty() {
                ctx.halt();
                return;
            }
            self.is_proposer = ctx.rng().gen_bool(0.5);
            self.proposed_over = None;
            if self.is_proposer {
                let pick = live[ctx.rng().gen_range(0..live.len())];
                self.proposed_over = Some(pick);
                ctx.send(pick, MatchingMessage::Propose);
            }
        } else {
            // Accept round: only unmatched non-proposers accept.
            if self.matched_over.is_none() && !self.is_proposer {
                if let Some(&edge) = proposals.first() {
                    self.matched_over = Some(edge);
                    ctx.send(edge, MatchingMessage::Accept);
                }
            }
        }
    }
}

/// Verifies that the per-node matched edges form a maximal matching: matched
/// edges agree on both endpoints, no node is matched twice, and no edge has
/// two unmatched endpoints.
pub fn is_maximal_matching(
    graph: &freelunch_graph::MultiGraph,
    matched: &[Option<EdgeId>],
) -> bool {
    for (v, m) in matched.iter().enumerate() {
        if let Some(edge) = m {
            let Ok((a, b)) = graph.endpoints(*edge) else {
                return false;
            };
            let other = if a.index() == v { b } else { a };
            if matched[other.index()] != Some(*edge) {
                return false;
            }
        }
    }
    for edge in graph.edges() {
        if matched[edge.u.index()].is_none() && matched[edge.v.index()].is_none() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{complete_graph, connected_erdos_renyi, GeneratorConfig};
    use freelunch_graph::MultiGraph;
    use freelunch_runtime::{Network, NetworkConfig};

    fn run_matching(graph: &MultiGraph, seed: u64) -> Vec<Option<EdgeId>> {
        let run = |shards: usize| {
            let config = NetworkConfig::with_seed(seed).sharded(shards);
            let mut network = Network::new(graph, config, |_, _| MaximalMatching::new()).unwrap();
            network.run_until_halt(500).unwrap();
            network
                .programs()
                .iter()
                .map(MaximalMatching::matched_over)
                .collect::<Vec<_>>()
        };
        let sequential = run(1);
        // Every matching test doubles as a sharded-engine equivalence check.
        assert_eq!(sequential, run(2));
        sequential
    }

    #[test]
    fn produces_a_maximal_matching_on_random_graphs() {
        for seed in 0..4u64 {
            let graph = connected_erdos_renyi(&GeneratorConfig::new(60, seed), 0.1).unwrap();
            let matched = run_matching(&graph, seed);
            assert!(is_maximal_matching(&graph, &matched), "seed {seed}");
        }
    }

    #[test]
    fn complete_graph_matches_almost_everyone() {
        let graph = complete_graph(&GeneratorConfig::new(21, 0)).unwrap();
        let matched = run_matching(&graph, 5);
        assert!(is_maximal_matching(&graph, &matched));
        let unmatched = matched.iter().filter(|m| m.is_none()).count();
        // An odd clique leaves exactly one node unmatched.
        assert_eq!(unmatched, 1);
    }

    #[test]
    fn validator_detects_inconsistencies() {
        let graph = complete_graph(&GeneratorConfig::new(3, 0)).unwrap();
        // Node 0 claims edge 0 (0-1) but node 1 does not.
        assert!(!is_maximal_matching(
            &graph,
            &[Some(EdgeId::new(0)), None, None]
        ));
        // Edge (1,2) has both endpoints unmatched.
        assert!(!is_maximal_matching(&graph, &[None, None, None]));
        // A proper maximal matching.
        assert!(is_maximal_matching(
            &graph,
            &[Some(EdgeId::new(0)), Some(EdgeId::new(0)), None]
        ));
    }
}
