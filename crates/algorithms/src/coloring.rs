//! Randomized `(Δ+1)`-coloring — another classic `O(log n)`-round LOCAL
//! algorithm used as a simulation target.
//!
//! Each phase, every uncolored node proposes a color drawn uniformly from
//! its remaining palette and keeps it if no uncolored neighbor proposed the
//! same color; colored neighbors' colors are removed from the palette.

use freelunch_runtime::transport::{check_size_and_padding, pad_to_size, CodecError, WireCodec};
use freelunch_runtime::{Context, Envelope, NodeProgram};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Messages exchanged by the coloring algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColoringMessage {
    /// Tentative color proposed this phase.
    Proposal(u32),
    /// Final color adopted by the sender.
    Final(u32),
}

/// Wire encoding: a tag byte (0 = `Proposal`, 1 = `Final`) plus the color
/// as 4 little-endian bytes, zero-padded to `size_of::<ColoringMessage>()`
/// so the encoded length equals the program's default `payload_bytes`.
impl WireCodec for ColoringMessage {
    fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        let (tag, color) = match self {
            ColoringMessage::Proposal(color) => (0, color),
            ColoringMessage::Final(color) => (1, color),
        };
        buf.push(tag);
        buf.extend_from_slice(&color.to_le_bytes());
        pad_to_size(buf, start, std::mem::size_of::<ColoringMessage>());
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        check_size_and_padding(bytes, 5, std::mem::size_of::<ColoringMessage>())?;
        let color = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]);
        match bytes[0] {
            0 => Ok(ColoringMessage::Proposal(color)),
            1 => Ok(ColoringMessage::Final(color)),
            tag => Err(CodecError::InvalidTag { tag }),
        }
    }
}

/// The per-node program.
#[derive(Debug)]
pub struct RandomizedColoring {
    palette_size: u32,
    forbidden: HashSet<u32>,
    proposal: Option<u32>,
    color: Option<u32>,
    conflict: bool,
}

impl RandomizedColoring {
    /// Creates the program for a node with the given degree (the palette is
    /// `{0, …, degree}`, i.e. `Δ_v + 1` colors, which always suffices).
    pub fn new(degree: usize) -> Self {
        RandomizedColoring {
            palette_size: degree as u32 + 1,
            forbidden: HashSet::new(),
            proposal: None,
            color: None,
            conflict: false,
        }
    }

    /// The node's final color (meaningful once the execution has halted).
    pub fn color(&self) -> Option<u32> {
        self.color
    }

    fn draw_proposal(&self, rng: &mut impl Rng) -> u32 {
        loop {
            let candidate = rng.gen_range(0..self.palette_size);
            if !self.forbidden.contains(&candidate) {
                return candidate;
            }
        }
    }
}

impl NodeProgram for RandomizedColoring {
    type Message = ColoringMessage;

    fn round(
        &mut self,
        ctx: &mut Context<'_, ColoringMessage>,
        inbox: &[Envelope<ColoringMessage>],
    ) {
        for envelope in inbox {
            match envelope.payload {
                ColoringMessage::Proposal(c) => {
                    if self.proposal == Some(c) {
                        self.conflict = true;
                    }
                }
                ColoringMessage::Final(c) => {
                    self.forbidden.insert(c);
                    if self.proposal == Some(c) {
                        self.conflict = true;
                    }
                }
            }
        }

        if self.color.is_some() {
            ctx.halt();
            return;
        }

        if ctx.round() % 2 == 1 {
            // Propose.
            self.conflict = false;
            let proposal = self.draw_proposal(ctx.rng());
            self.proposal = Some(proposal);
            ctx.broadcast(ColoringMessage::Proposal(proposal));
        } else {
            // Resolve.
            if !self.conflict {
                let color = self
                    .proposal
                    .expect("a proposal was made in the previous round");
                self.color = Some(color);
                ctx.broadcast(ColoringMessage::Final(color));
                ctx.halt();
            }
        }
    }

    /// Checkpoint encoding: palette size, conflict flag, proposal and color
    /// as flagged `u32`s, then the forbidden set *sorted* with a `u32`
    /// count prefix — the set iterates in hash order, so sorting is what
    /// keeps the blob deterministic (all little-endian).
    fn save_state(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.palette_size.to_le_bytes());
        buf.push(u8::from(self.conflict));
        for option in [self.proposal, self.color] {
            match option {
                None => {
                    buf.push(0);
                    buf.extend_from_slice(&0u32.to_le_bytes());
                }
                Some(value) => {
                    buf.push(1);
                    buf.extend_from_slice(&value.to_le_bytes());
                }
            }
        }
        let mut forbidden: Vec<u32> = self.forbidden.iter().copied().collect();
        forbidden.sort_unstable();
        buf.extend_from_slice(&(forbidden.len() as u32).to_le_bytes());
        for color in forbidden {
            buf.extend_from_slice(&color.to_le_bytes());
        }
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        const FIXED: usize = 4 + 1 + 5 + 5 + 4;
        if bytes.len() < FIXED {
            return Err(CodecError::Truncated {
                needed: FIXED,
                got: bytes.len(),
            });
        }
        let u32_at =
            |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        // Only `new` sets the palette, and restore builds every program
        // through the factory first: a blob with another size is not this
        // node's state (and a size of 0 would make `draw_proposal` panic).
        if u32_at(0) != self.palette_size {
            return Err(CodecError::InvalidValue {
                field: "palette size",
            });
        }
        let conflict = match bytes[4] {
            0 => false,
            1 => true,
            tag => return Err(CodecError::InvalidTag { tag }),
        };
        let flagged = |flag_at: usize| -> Result<Option<u32>, CodecError> {
            let value = u32_at(flag_at + 1);
            match bytes[flag_at] {
                0 if value != 0 => Err(CodecError::InvalidPadding),
                0 => Ok(None),
                1 => Ok(Some(value)),
                tag => Err(CodecError::InvalidTag { tag }),
            }
        };
        let proposal = flagged(5)?;
        let color = flagged(10)?;
        let count = u32_at(15) as usize;
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
        let forbidden: HashSet<u32> = bytes[FIXED..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        // A palette with no free color would spin `draw_proposal` forever;
        // a real node never gets there (its neighbours hold at most
        // `palette_size - 1` colors).
        if (0..self.palette_size).all(|c| forbidden.contains(&c)) {
            return Err(CodecError::InvalidValue {
                field: "forbidden colors",
            });
        }
        self.conflict = conflict;
        self.proposal = proposal;
        self.color = color;
        self.forbidden = forbidden;
        Ok(())
    }
}

/// Verifies that the assignment is a proper coloring with at most
/// `max_degree + 1` colors.
pub fn is_proper_coloring(graph: &freelunch_graph::MultiGraph, colors: &[Option<u32>]) -> bool {
    if colors.iter().any(Option::is_none) {
        return false;
    }
    for edge in graph.edges() {
        if colors[edge.u.index()] == colors[edge.v.index()] {
            return false;
        }
    }
    colors
        .iter()
        .flatten()
        .all(|&c| (c as usize) <= graph.max_degree())
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{complete_graph, connected_erdos_renyi, GeneratorConfig};
    use freelunch_graph::MultiGraph;
    use freelunch_runtime::{Network, NetworkConfig};

    fn run_coloring(graph: &MultiGraph, seed: u64) -> (Vec<Option<u32>>, u64) {
        let run = |shards: usize| {
            let config = NetworkConfig::with_seed(seed).sharded(shards);
            let mut network = Network::new(graph, config, |_, knowledge| {
                RandomizedColoring::new(knowledge.degree())
            })
            .unwrap();
            network.run_until_halt(400).unwrap();
            (
                network
                    .programs()
                    .iter()
                    .map(RandomizedColoring::color)
                    .collect::<Vec<_>>(),
                network.cost().rounds,
            )
        };
        let sequential = run(1);
        // Every coloring test doubles as a sharded-engine equivalence check.
        assert_eq!(sequential, run(2));
        sequential
    }

    #[test]
    fn colors_random_graphs_properly() {
        for seed in 0..4u64 {
            let graph = connected_erdos_renyi(&GeneratorConfig::new(70, seed), 0.1).unwrap();
            let (colors, _) = run_coloring(&graph, seed);
            assert!(is_proper_coloring(&graph, &colors), "seed {seed}");
        }
    }

    #[test]
    fn complete_graph_uses_all_colors() {
        let graph = complete_graph(&GeneratorConfig::new(20, 0)).unwrap();
        let (colors, _) = run_coloring(&graph, 7);
        assert!(is_proper_coloring(&graph, &colors));
        let distinct: HashSet<u32> = colors.iter().flatten().copied().collect();
        assert_eq!(distinct.len(), 20);
    }

    #[test]
    fn terminates_in_logarithmically_many_rounds() {
        let graph = connected_erdos_renyi(&GeneratorConfig::new(100, 5), 0.05).unwrap();
        let (colors, rounds) = run_coloring(&graph, 5);
        assert!(is_proper_coloring(&graph, &colors));
        assert!(rounds < 80, "took {rounds} rounds");
    }

    #[test]
    fn hostile_checkpoints_return_instead_of_panicking() {
        /// A `save_state` blob: palette size, no conflict, no proposal, no
        /// color, then the forbidden colors.
        fn blob(palette_size: u32, forbidden: &[u32]) -> Vec<u8> {
            let mut bytes = palette_size.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0; 11]);
            bytes.extend_from_slice(&(forbidden.len() as u32).to_le_bytes());
            for color in forbidden {
                bytes.extend_from_slice(&color.to_le_bytes());
            }
            bytes
        }
        // A node of degree 2 holds a palette of 3.
        let mut program = RandomizedColoring::new(2);
        let mut saved = Vec::new();
        program.save_state(&mut saved);
        assert_eq!(saved, blob(3, &[]));
        // A palette of 0 would panic in `gen_range(0..0)`; one of 1 with
        // color 0 forbidden would spin forever in `draw_proposal`.
        for hostile in [blob(0, &[]), blob(1, &[0]), blob(4, &[])] {
            assert_eq!(
                program.load_state(&hostile),
                Err(CodecError::InvalidValue {
                    field: "palette size"
                })
            );
        }
        assert_eq!(
            program.load_state(&blob(3, &[2, 0, 1])),
            Err(CodecError::InvalidValue {
                field: "forbidden colors"
            })
        );
        // Two of three colors forbidden, and a neighbour's color beyond the
        // palette, still leave color 1 to draw.
        program.load_state(&blob(3, &[0, 2, 7])).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        assert_eq!(program.draw_proposal(&mut rng), 1);
    }

    #[test]
    fn validator_detects_conflicts_and_missing_colors() {
        let graph = complete_graph(&GeneratorConfig::new(3, 0)).unwrap();
        assert!(!is_proper_coloring(&graph, &[Some(0), Some(0), Some(1)]));
        assert!(!is_proper_coloring(&graph, &[Some(0), None, Some(1)]));
        assert!(is_proper_coloring(&graph, &[Some(0), Some(2), Some(1)]));
    }
}
