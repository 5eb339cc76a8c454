//! A genuine message-passing implementation of the level-0 procedure
//! `Cluster_0`, running as a [`NodeProgram`] on the synchronous runtime.
//!
//! At level 0 every cluster is a singleton, so the Section 5 simulation layer
//! (broadcast–convergecast over cluster trees) is the identity and the
//! protocol acts directly on the communication graph:
//!
//! * odd rounds: nodes that are still sampling draw a budgeted number of
//!   their unexplored incident edges and send a `Query` over each distinct
//!   one;
//! * even rounds: queried endpoints answer with `Reply { is_center }`
//!   (center marking is decided locally at initialization, so the reply can
//!   carry it and no extra probe is needed);
//! * after the `2h` trials, non-center nodes that discovered a center `Join`
//!   it over one of the discovered edges and receive an `Ack`.
//!
//! The higher levels (`j ≥ 1`) of the hierarchy are executed by the
//! centralized replay with the Section 5 cost accounting
//! (see [`centralized`](super::centralized) and [`cost`](super::cost)); this
//! module exists to validate that accounting against real message counts on
//! the level where the protocol is the most intricate (per-edge sampling).

use super::NodeClass;
use crate::params::SamplerParams;
use freelunch_graph::EdgeId;
use freelunch_runtime::transport::{check_size_and_padding, pad_to_size, CodecError, WireCodec};
use freelunch_runtime::{Context, Envelope, InitialKnowledge, NodeProgram};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Messages exchanged by the level-0 protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Level0Message {
    /// "Are you there (and are you a center)?" — sent over a sampled edge.
    Query,
    /// Answer to a query, carrying the responder's center status.
    Reply {
        /// Whether the responder marked itself as a center.
        is_center: bool,
    },
    /// Request to join the responder's cluster.
    Join,
    /// Acknowledgement of a join.
    Ack,
}

/// Wire encoding: one tag byte folding the `Reply` payload into the tag
/// (0 = `Query`, 1 = `Reply { is_center: false }`,
/// 2 = `Reply { is_center: true }`, 3 = `Join`, 4 = `Ack`), padded to
/// `size_of::<Level0Message>()` so the encoded length equals the program's
/// default `payload_bytes`.
impl WireCodec for Level0Message {
    fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.push(match self {
            Level0Message::Query => 0,
            Level0Message::Reply { is_center: false } => 1,
            Level0Message::Reply { is_center: true } => 2,
            Level0Message::Join => 3,
            Level0Message::Ack => 4,
        });
        pad_to_size(buf, start, std::mem::size_of::<Level0Message>());
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        check_size_and_padding(bytes, 1, std::mem::size_of::<Level0Message>())?;
        match bytes[0] {
            0 => Ok(Level0Message::Query),
            1 => Ok(Level0Message::Reply { is_center: false }),
            2 => Ok(Level0Message::Reply { is_center: true }),
            3 => Ok(Level0Message::Join),
            4 => Ok(Level0Message::Ack),
            tag => Err(CodecError::InvalidTag { tag }),
        }
    }
}

/// Concrete numeric configuration of the level-0 protocol, derived from
/// [`SamplerParams`] and the node count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Level0Config {
    /// Neighbor-finding target (`min` with the degree is implicit).
    pub target: usize,
    /// Edges sampled per trial (with replacement).
    pub budget: usize,
    /// Number of trials (`2h`).
    pub trials: u32,
    /// Center-marking probability `p_0 = n^{-δ}`.
    pub center_probability: f64,
}

impl Level0Config {
    /// Derives the level-0 configuration from the algorithm parameters and
    /// the number of nodes.
    pub fn from_params(params: &SamplerParams, n: usize) -> Self {
        Level0Config {
            target: params.neighbor_target(0, n),
            budget: params.trial_query_budget(0, n),
            trials: params.trials_per_level(),
            center_probability: params.center_probability(0, n),
        }
    }

    /// Number of rounds after which every node is guaranteed to have halted.
    pub fn round_budget(&self) -> u32 {
        2 * self.trials + 4
    }
}

/// The observable result of one node's level-0 run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Level0Output {
    /// Whether the node marked itself a center.
    pub is_center: bool,
    /// The edges the node added to `F_v` (one per queried neighbor).
    pub f_edges: Vec<EdgeId>,
    /// Light / heavy / ambiguous classification.
    pub class: NodeClass,
    /// The edge over which the node joined a center, if any.
    pub joined_via: Option<EdgeId>,
}

/// The per-node program of the level-0 protocol.
#[derive(Debug)]
pub struct Level0Program {
    config: Level0Config,
    is_center: bool,
    unexplored: Vec<EdgeId>,
    pending: HashSet<EdgeId>,
    f_edges: Vec<EdgeId>,
    center_edges: Vec<EdgeId>,
    trials_used: u32,
    class: Option<NodeClass>,
    joined_via: Option<EdgeId>,
}

impl Level0Program {
    /// Creates the program for one node given its initial knowledge.
    pub fn new(config: Level0Config, knowledge: &InitialKnowledge) -> Self {
        let unexplored = knowledge.ports().filter_map(|p| p.edge_id).collect();
        Level0Program {
            config,
            is_center: false,
            unexplored,
            pending: HashSet::new(),
            f_edges: Vec::new(),
            center_edges: Vec::new(),
            trials_used: 0,
            class: None,
            joined_via: None,
        }
    }

    /// The node's result (meaningful once the execution has halted).
    pub fn output(&self) -> Level0Output {
        Level0Output {
            is_center: self.is_center,
            f_edges: self.f_edges.clone(),
            class: self.class.unwrap_or(NodeClass::Ambiguous),
            joined_via: self.joined_via,
        }
    }

    fn sampling_finished(&self) -> bool {
        self.f_edges.len() >= self.config.target
            || (self.unexplored.is_empty() && self.pending.is_empty())
            || self.trials_used >= self.config.trials
    }

    fn classify(&mut self) {
        let class = if self.f_edges.len() >= self.config.target {
            NodeClass::Heavy
        } else if self.unexplored.is_empty() && self.pending.is_empty() {
            NodeClass::Light
        } else {
            NodeClass::Ambiguous
        };
        self.class = Some(class);
    }
}

impl NodeProgram for Level0Program {
    type Message = Level0Message;

    fn init(&mut self, ctx: &mut Context<'_, Level0Message>) {
        self.is_center = ctx.rng().gen_bool(self.config.center_probability);
    }

    fn round(&mut self, ctx: &mut Context<'_, Level0Message>, inbox: &[Envelope<Level0Message>]) {
        // 1. Handle incoming traffic.
        for envelope in inbox {
            match envelope.payload {
                Level0Message::Query => {
                    ctx.send(
                        envelope.edge,
                        Level0Message::Reply {
                            is_center: self.is_center,
                        },
                    );
                }
                Level0Message::Reply { is_center } => {
                    if self.pending.remove(&envelope.edge)
                        && self.f_edges.len() < self.config.target
                    {
                        // Additions are capped at the target (Theorem 2's
                        // size bound); the queries were charged regardless.
                        self.f_edges.push(envelope.edge);
                        if is_center {
                            self.center_edges.push(envelope.edge);
                        }
                    }
                }
                Level0Message::Join => {
                    ctx.send(envelope.edge, Level0Message::Ack);
                }
                Level0Message::Ack => {}
            }
        }

        let round = ctx.round();
        let join_round = 2 * self.config.trials + 1;

        // 2. Sampling trials on odd rounds of the trial phase.
        if round < join_round && round % 2 == 1 && !self.sampling_finished() {
            self.trials_used += 1;
            let mut sampled: Vec<EdgeId> = Vec::new();
            let mut seen: HashSet<EdgeId> = HashSet::new();
            let pool = &self.unexplored;
            let coupon_threshold =
                (pool.len() as f64 * ((pool.len().max(1) as f64).ln() + 3.0)).ceil() as usize;
            if self.config.budget >= coupon_threshold {
                sampled.extend(pool.iter().copied());
            } else {
                for _ in 0..self.config.budget {
                    let pick = pool[ctx.rng().gen_range(0..pool.len())];
                    if seen.insert(pick) {
                        sampled.push(pick);
                    }
                }
            }
            for edge in sampled {
                self.pending.insert(edge);
                ctx.send(edge, Level0Message::Query);
            }
            self.unexplored.retain(|e| !self.pending.contains(e));
        }

        // 3. Classification and clustering.
        if round == join_round {
            self.classify();
            if !self.is_center {
                if let Some(&edge) = self.center_edges.first() {
                    self.joined_via = Some(edge);
                    ctx.send(edge, Level0Message::Join);
                } else {
                    ctx.halt();
                }
            }
        } else if round == join_round + 1 && self.is_center {
            // Joins (if any) have been answered above; the center is done.
            ctx.halt();
        } else if round >= join_round + 2 {
            // Joiners have received their acks by now.
            ctx.halt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{ConstantPolicy, SamplerParams};
    use freelunch_graph::generators::{complete_graph, connected_erdos_renyi, GeneratorConfig};
    use freelunch_graph::MultiGraph;
    use freelunch_runtime::{Network, NetworkConfig};

    fn run_level0(
        graph: &MultiGraph,
        params: &SamplerParams,
        seed: u64,
    ) -> (Vec<Level0Output>, freelunch_runtime::CostReport) {
        let config = Level0Config::from_params(params, graph.node_count());
        let mut network = Network::new(graph, NetworkConfig::with_seed(seed), |_, knowledge| {
            Level0Program::new(config, knowledge)
        })
        .unwrap();
        network.run_until_halt(config.round_budget()).unwrap();
        let cost = network.cost();
        let outputs = network
            .programs()
            .iter()
            .map(Level0Program::output)
            .collect();
        (outputs, cost)
    }

    fn practical_params() -> SamplerParams {
        SamplerParams::with_constants(
            2,
            3,
            ConstantPolicy::Practical {
                target_factor: 4.0,
                query_factor: 8.0,
            },
        )
        .unwrap()
    }

    #[test]
    fn every_node_is_classified_and_f_edges_are_valid() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(80, 3), 0.2).unwrap();
        let (outputs, cost) = run_level0(&graph, &practical_params(), 7);
        assert_eq!(outputs.len(), graph.node_count());
        assert!(cost.messages > 0);
        for (v, output) in outputs.iter().enumerate() {
            let node = freelunch_graph::NodeId::from_usize(v);
            // Every F edge is incident to the node and leads to a distinct
            // neighbor.
            let mut neighbors = HashSet::new();
            for &edge in &output.f_edges {
                let other = graph.other_endpoint(edge, node).unwrap();
                assert!(neighbors.insert(other), "duplicate neighbor via {edge}");
            }
            // Light nodes discovered every neighbor.
            if output.class == NodeClass::Light {
                assert_eq!(neighbors.len(), graph.distinct_neighbor_count(node));
            }
        }
    }

    #[test]
    fn joins_point_at_actual_centers() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(100, 9), 0.15).unwrap();
        let (outputs, _) = run_level0(&graph, &practical_params(), 11);
        for (v, output) in outputs.iter().enumerate() {
            if let Some(edge) = output.joined_via {
                assert!(!output.is_center, "centers never join another cluster");
                let node = freelunch_graph::NodeId::from_usize(v);
                let other = graph.other_endpoint(edge, node).unwrap();
                assert!(
                    outputs[other.index()].is_center,
                    "join edge must lead to a center"
                );
            }
        }
    }

    #[test]
    fn paper_constants_leave_no_node_ambiguous_and_query_every_edge() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(50, 2), 0.3).unwrap();
        let params = SamplerParams::new(2, 3).unwrap();
        let (outputs, cost) = run_level0(&graph, &params, 5);
        // The literal log³ n budget covers every node's pool in trial 1, so
        // nobody ends ambiguous.
        assert!(outputs.iter().all(|o| o.class != NodeClass::Ambiguous));
        // Every edge is queried from both sides and answered: ≥ 4m messages,
        // plus join/ack traffic.
        assert!(cost.messages >= 4 * graph.edge_count() as u64);
    }

    #[test]
    fn dense_graph_with_practical_constants_sends_o_of_m_messages() {
        let graph = complete_graph(&GeneratorConfig::new(150, 0)).unwrap();
        // ε = 1/7 keeps the per-trial budget (≈ 4·n^{2/7}) well below the
        // average degree, which is exactly the regime where the algorithm
        // beats flooding.
        let params = SamplerParams::with_constants(
            2,
            7,
            ConstantPolicy::Practical {
                target_factor: 4.0,
                query_factor: 4.0,
            },
        )
        .unwrap();
        let (outputs, cost) = run_level0(&graph, &params, 3);
        // Heavy nodes exist (the target is far below the degree 149) …
        assert!(outputs.iter().any(|o| o.class == NodeClass::Heavy));
        // … and the message count stays well below the 2m a flooding-based
        // approach would need.
        assert!(
            cost.messages < graph.edge_count() as u64,
            "sent {} messages on a graph with {} edges",
            cost.messages,
            graph.edge_count()
        );
    }

    #[test]
    fn distributed_and_centralized_level0_agree_qualitatively() {
        use crate::sampler::Sampler;
        let graph = complete_graph(&GeneratorConfig::new(120, 0)).unwrap();
        let params = practical_params();
        let (outputs, cost) = run_level0(&graph, &params, 21);
        let centralized = Sampler::new(params).run(&graph, 21).unwrap();
        let level0 = &centralized.levels[0];

        let distributed_heavy = outputs
            .iter()
            .filter(|o| o.class == NodeClass::Heavy)
            .count();
        // Both executions classify the overwhelming majority of nodes of a
        // dense graph as heavy (randomness differs, so allow slack).
        assert!(distributed_heavy as f64 > 0.5 * graph.node_count() as f64);
        assert!(level0.heavy as f64 > 0.5 * graph.node_count() as f64);
        // Message counts are within a small factor of each other (the
        // distributed run adds join/ack and reply traffic).
        let centralized_messages = level0.query_messages + level0.join_messages;
        let ratio = cost.messages as f64 / centralized_messages as f64;
        assert!(
            ratio > 0.2 && ratio < 5.0,
            "message ratio {ratio} out of range"
        );
    }

    #[test]
    fn round_budget_is_sufficient_and_tight() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(40, 4), 0.2).unwrap();
        let params = practical_params();
        let config = Level0Config::from_params(&params, graph.node_count());
        let mut network = Network::new(&graph, NetworkConfig::with_seed(1), |_, knowledge| {
            Level0Program::new(config, knowledge)
        })
        .unwrap();
        network.run_until_halt(config.round_budget()).unwrap();
        assert!(network.cost().rounds <= u64::from(config.round_budget()));
    }
}
