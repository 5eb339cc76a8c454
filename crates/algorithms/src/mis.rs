//! Luby's randomized maximal independent set (MIS) — a classic `O(log n)`
//! round LOCAL algorithm used as a simulation target for the
//! message-reduction schemes.
//!
//! In each phase every undecided node draws a random priority and broadcasts
//! it; a node joins the MIS if its priority beats all undecided neighbors,
//! and a node with a neighbor in the MIS leaves the graph. One phase takes
//! two communication rounds here (priority exchange, then membership
//! announcement).

use freelunch_runtime::transport::{check_size_and_padding, pad_to_size, CodecError, WireCodec};
use freelunch_runtime::{Context, Envelope, NodeProgram};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Decision state of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MisState {
    /// Still competing.
    Undecided,
    /// Joined the independent set.
    InSet,
    /// A neighbor joined the set; this node is permanently out.
    OutOfSet,
}

/// Messages exchanged by the algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MisMessage {
    /// Random priority drawn for the current phase.
    Priority(u64),
    /// Announcement that the sender joined the MIS.
    Joined,
    /// Announcement that the sender is out (its edges can be ignored from
    /// now on).
    Retired,
}

/// Wire encoding: a tag byte (0 = `Priority`, 1 = `Joined`, 2 = `Retired`),
/// the priority as 8 little-endian bytes when present, zero-padded to
/// `size_of::<MisMessage>()` so the encoded length equals the program's
/// default `payload_bytes`.
impl WireCodec for MisMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        match self {
            MisMessage::Priority(priority) => {
                buf.push(0);
                buf.extend_from_slice(&priority.to_le_bytes());
            }
            MisMessage::Joined => buf.push(1),
            MisMessage::Retired => buf.push(2),
        }
        pad_to_size(buf, start, std::mem::size_of::<MisMessage>());
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        const SIZE: usize = std::mem::size_of::<MisMessage>();
        match bytes.first() {
            Some(0) => {
                check_size_and_padding(bytes, 9, SIZE)?;
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&bytes[1..9]);
                Ok(MisMessage::Priority(u64::from_le_bytes(raw)))
            }
            Some(1) => {
                check_size_and_padding(bytes, 1, SIZE)?;
                Ok(MisMessage::Joined)
            }
            Some(2) => {
                check_size_and_padding(bytes, 1, SIZE)?;
                Ok(MisMessage::Retired)
            }
            Some(&tag) => Err(CodecError::InvalidTag { tag }),
            None => Err(CodecError::Truncated {
                needed: SIZE,
                got: 0,
            }),
        }
    }
}

/// Luby's MIS as a node program.
#[derive(Debug)]
pub struct LubyMis {
    state: MisState,
    /// Ports whose neighbor is still undecided, as stored in the checkpoint
    /// (`u32`: 4 bytes a port rather than 8).
    active_ports: Vec<u32>,
    my_priority: u64,
    /// Highest priority heard from an active neighbor in the current phase.
    best_neighbor_priority: Option<u64>,
}

impl LubyMis {
    /// Creates the per-node program.
    pub fn new(degree: usize) -> Self {
        LubyMis {
            state: MisState::Undecided,
            active_ports: (0..u32::try_from(degree).expect("port numbers fit in u32")).collect(),
            my_priority: 0,
            best_neighbor_priority: None,
        }
    }

    /// The node's decision (meaningful once the execution has halted).
    pub fn state(&self) -> MisState {
        self.state
    }
}

impl NodeProgram for LubyMis {
    type Message = MisMessage;

    fn round(&mut self, ctx: &mut Context<'_, MisMessage>, inbox: &[Envelope<MisMessage>]) {
        // Membership / retirement notifications are processed first: they can
        // settle this node or shrink its active neighborhood.
        let mut neighbor_joined = false;
        for envelope in inbox {
            match envelope.payload {
                MisMessage::Joined => neighbor_joined = true,
                MisMessage::Retired => {
                    // The sender's port is unknown; retire lazily by priority
                    // silence (it will simply stop sending priorities).
                }
                MisMessage::Priority(p) => {
                    self.best_neighbor_priority =
                        Some(self.best_neighbor_priority.map_or(p, |b| b.max(p)));
                }
            }
        }

        if self.state != MisState::Undecided {
            ctx.halt();
            return;
        }
        if neighbor_joined {
            self.state = MisState::OutOfSet;
            for &port in &self.active_ports {
                ctx.send_port(port as usize, MisMessage::Retired);
            }
            ctx.halt();
            return;
        }

        // Phases are two rounds long: odd rounds exchange priorities, even
        // rounds resolve them.
        if ctx.round() % 2 == 1 {
            self.my_priority = ctx.rng().gen();
            self.best_neighbor_priority = None;
            if self.active_ports.is_empty() {
                // No undecided neighbors left: join immediately.
                self.state = MisState::InSet;
                ctx.halt();
                return;
            }
            for &port in &self.active_ports {
                ctx.send_port(port as usize, MisMessage::Priority(self.my_priority));
            }
        } else if ctx.round() > 1 {
            let wins = match self.best_neighbor_priority {
                Some(best) => self.my_priority > best,
                None => true,
            };
            if wins {
                self.state = MisState::InSet;
                for &port in &self.active_ports {
                    ctx.send_port(port as usize, MisMessage::Joined);
                }
                ctx.halt();
            }
        }
    }

    /// Checkpoint encoding: decision tag, current priority, the best
    /// neighbor priority as a flagged `u64`, then the active-port list with
    /// a `u32` count prefix (all little-endian).
    fn save_state(&self, buf: &mut Vec<u8>) {
        buf.push(match self.state {
            MisState::Undecided => 0,
            MisState::InSet => 1,
            MisState::OutOfSet => 2,
        });
        buf.extend_from_slice(&self.my_priority.to_le_bytes());
        match self.best_neighbor_priority {
            None => {
                buf.push(0);
                buf.extend_from_slice(&0u64.to_le_bytes());
            }
            Some(best) => {
                buf.push(1);
                buf.extend_from_slice(&best.to_le_bytes());
            }
        }
        buf.extend_from_slice(&(self.active_ports.len() as u32).to_le_bytes());
        for &port in &self.active_ports {
            buf.extend_from_slice(&port.to_le_bytes());
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        const FIXED: usize = 1 + 8 + 1 + 8 + 4;
        if bytes.len() < FIXED {
            return Err(CodecError::Truncated {
                needed: FIXED,
                got: bytes.len(),
            });
        }
        let state = match bytes[0] {
            0 => MisState::Undecided,
            1 => MisState::InSet,
            2 => MisState::OutOfSet,
            tag => return Err(CodecError::InvalidTag { tag }),
        };
        let mut raw8 = [0u8; 8];
        raw8.copy_from_slice(&bytes[1..9]);
        let my_priority = u64::from_le_bytes(raw8);
        raw8.copy_from_slice(&bytes[10..18]);
        let best = u64::from_le_bytes(raw8);
        let best_neighbor_priority = match bytes[9] {
            0 if best != 0 => return Err(CodecError::InvalidPadding),
            0 => None,
            1 => Some(best),
            tag => return Err(CodecError::InvalidTag { tag }),
        };
        let mut raw4 = [0u8; 4];
        raw4.copy_from_slice(&bytes[18..22]);
        let count = u32::from_le_bytes(raw4) as usize;
        let expected = FIXED + count * 4;
        if bytes.len() < expected {
            return Err(CodecError::Truncated {
                needed: expected,
                got: bytes.len(),
            });
        }
        if bytes.len() > expected {
            return Err(CodecError::Oversized {
                expected,
                got: bytes.len(),
            });
        }
        self.state = state;
        self.my_priority = my_priority;
        self.best_neighbor_priority = best_neighbor_priority;
        self.active_ports = bytes[FIXED..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Ok(())
    }
}

/// Verifies that the per-node states form a maximal independent set of the
/// graph: no two adjacent nodes are in the set, and every out-of-set node has
/// a neighbor in the set.
pub fn is_maximal_independent_set(
    graph: &freelunch_graph::MultiGraph,
    states: &[MisState],
) -> bool {
    for edge in graph.edges() {
        if states[edge.u.index()] == MisState::InSet && states[edge.v.index()] == MisState::InSet {
            return false;
        }
    }
    for v in graph.nodes() {
        match states[v.index()] {
            MisState::InSet => {}
            _ => {
                let covered = graph
                    .incident_edges(v)
                    .iter()
                    .any(|ie| states[ie.neighbor.index()] == MisState::InSet);
                if !covered {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{
        complete_graph, connected_erdos_renyi, cycle_graph, GeneratorConfig,
    };
    use freelunch_graph::MultiGraph;
    use freelunch_runtime::{Network, NetworkConfig};

    fn run_mis(graph: &MultiGraph, seed: u64) -> (Vec<MisState>, u64) {
        let run = |shards: usize| {
            let config = NetworkConfig::with_seed(seed).sharded(shards);
            let mut network = Network::new(graph, config, |_, knowledge| {
                LubyMis::new(knowledge.degree())
            })
            .unwrap();
            network.run_until_halt(200).unwrap();
            let rounds = network.cost().rounds;
            (
                network
                    .programs()
                    .iter()
                    .map(LubyMis::state)
                    .collect::<Vec<_>>(),
                rounds,
            )
        };
        let sequential = run(1);
        // Every MIS test doubles as a sharded-engine equivalence check.
        assert_eq!(sequential, run(2));
        sequential
    }

    #[test]
    fn produces_a_maximal_independent_set_on_random_graphs() {
        for seed in 0..5u64 {
            let graph = connected_erdos_renyi(&GeneratorConfig::new(80, seed), 0.1).unwrap();
            let (states, _) = run_mis(&graph, seed);
            assert!(is_maximal_independent_set(&graph, &states), "seed {seed}");
        }
    }

    #[test]
    fn complete_graph_selects_exactly_one_node() {
        let graph = complete_graph(&GeneratorConfig::new(40, 0)).unwrap();
        let (states, _) = run_mis(&graph, 3);
        assert_eq!(states.iter().filter(|s| **s == MisState::InSet).count(), 1);
        assert!(is_maximal_independent_set(&graph, &states));
    }

    #[test]
    fn cycle_terminates_quickly() {
        let graph = cycle_graph(&GeneratorConfig::new(50, 0)).unwrap();
        let (states, rounds) = run_mis(&graph, 1);
        assert!(is_maximal_independent_set(&graph, &states));
        // Luby terminates in O(log n) phases whp; allow a generous margin.
        assert!(rounds < 60, "took {rounds} rounds");
    }

    #[test]
    fn isolated_nodes_join_the_set() {
        let graph = MultiGraph::new(5);
        let (states, _) = run_mis(&graph, 0);
        assert!(states.iter().all(|s| *s == MisState::InSet));
    }

    #[test]
    fn validator_detects_broken_sets() {
        let graph = cycle_graph(&GeneratorConfig::new(4, 0)).unwrap();
        // Adjacent members.
        assert!(!is_maximal_independent_set(
            &graph,
            &[
                MisState::InSet,
                MisState::InSet,
                MisState::OutOfSet,
                MisState::OutOfSet
            ]
        ));
        // Uncovered node.
        assert!(!is_maximal_independent_set(
            &graph,
            &[
                MisState::OutOfSet,
                MisState::OutOfSet,
                MisState::OutOfSet,
                MisState::OutOfSet
            ]
        ));
        // A valid configuration.
        assert!(is_maximal_independent_set(
            &graph,
            &[
                MisState::InSet,
                MisState::OutOfSet,
                MisState::InSet,
                MisState::OutOfSet
            ]
        ));
    }

    /// The send grid holds every message of a round as one `Outgoing`
    /// record: edge (8 B), sender and receiver (4 B each) and the payload,
    /// with no byte count beside them. A 16-byte `MisMessage` makes a
    /// 32-byte record and a `u64` a 24-byte one.
    #[test]
    fn outgoing_records_carry_no_byte_count() {
        use freelunch_runtime::Outgoing;
        use std::mem::size_of;
        assert_eq!(size_of::<MisMessage>(), 16);
        assert_eq!(size_of::<Outgoing<MisMessage>>(), 32);
        assert_eq!(size_of::<Outgoing<u64>>(), 24);
    }
}
