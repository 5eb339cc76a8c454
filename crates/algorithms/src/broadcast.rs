//! `t`-bounded information gathering: after `t` rounds every node knows the
//! IDs of all nodes in its ball `B_{G,t}(v)`.
//!
//! This is the purest example of a `t`-round LOCAL algorithm (its output is
//! literally the `t`-ball), which makes it the canonical workload for the
//! `t`-local broadcast experiments: the direct execution floods `G` every
//! round, the message-reduced execution floods a spanner.

use freelunch_graph::NodeId;
use freelunch_runtime::transport::CodecError;
use freelunch_runtime::{Context, Envelope, NodeProgram};
use std::sync::Arc;

/// The per-node program: repeatedly broadcast everything newly learned.
#[derive(Debug)]
pub struct BallGathering {
    horizon: u32,
    /// Sorted and duplicate-free.
    known: Vec<u32>,
    fresh: Vec<u32>,
}

impl BallGathering {
    /// Creates the program for `node` with gathering horizon `t`.
    pub fn new(node: NodeId, horizon: u32) -> Self {
        BallGathering {
            horizon,
            known: vec![node.raw()],
            fresh: vec![node.raw()],
        }
    }

    /// The IDs gathered so far (the node's view of its ball), ascending.
    pub fn known_ids(&self) -> Vec<u32> {
        self.known.clone()
    }
}

/// Merges every ID in `bundles` into `known` (sorted, duplicate-free) and
/// appends the IDs it did not hold before to `fresh`, in ascending order.
///
/// A dense round (many IDs over a narrow span) is deduplicated with a word
/// bitmap over the span; a sparse one, whose span in 64-bit words exceeds
/// its ID count, is gathered and sorted instead, so the bitmap never
/// outgrows the round's ID count and no node allocates O(n) for a few
/// far-apart IDs. One linear merge with `known` then yields both the new
/// `known` and the fresh IDs.
fn absorb<'a>(
    known: &mut Vec<u32>,
    fresh: &mut Vec<u32>,
    bundles: impl Iterator<Item = &'a [u32]> + Clone,
) {
    let (mut count, mut lo, mut hi) = (0usize, u32::MAX, 0u32);
    for bundle in bundles.clone() {
        count += bundle.len();
        for &id in bundle {
            lo = lo.min(id);
            hi = hi.max(id);
        }
    }
    if count == 0 {
        return;
    }
    let words = ((hi - lo) / 64) as usize + 1;
    let ids = if words <= count {
        let mut bits = vec![0u64; words];
        for &id in bundles.flatten() {
            let offset = id - lo;
            bits[(offset / 64) as usize] |= 1 << (offset % 64);
        }
        let mut ids = Vec::new();
        for (word_index, mut word) in bits.into_iter().enumerate() {
            let base = lo + 64 * word_index as u32;
            while word != 0 {
                ids.push(base + word.trailing_zeros());
                word &= word - 1;
            }
        }
        ids
    } else {
        let mut ids = Vec::with_capacity(count);
        for bundle in bundles {
            ids.extend_from_slice(bundle);
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    };

    let mut merged = Vec::with_capacity(known.len() + ids.len());
    let mut old = known.iter().copied().peekable();
    for id in ids {
        while let Some(held) = old.next_if(|&held| held < id) {
            merged.push(held);
        }
        if old.next_if_eq(&id).is_none() {
            fresh.push(id);
        }
        merged.push(id);
    }
    merged.extend(old);
    *known = merged;
}

impl NodeProgram for BallGathering {
    /// One shared bundle per broadcast: every port gets a pointer to the
    /// same allocation, so a round allocates one bundle per sender, not one
    /// per message.
    type Message = Arc<[u32]>;

    fn init(&mut self, ctx: &mut Context<'_, Arc<[u32]>>) {
        if self.horizon > 0 {
            ctx.broadcast(Arc::from(self.fresh.as_slice()));
        }
        self.fresh.clear();
    }

    fn round(&mut self, ctx: &mut Context<'_, Arc<[u32]>>, inbox: &[Envelope<Arc<[u32]>>]) {
        absorb(
            &mut self.known,
            &mut self.fresh,
            inbox.iter().map(|envelope| &*envelope.payload),
        );
        if ctx.round() < self.horizon && !self.fresh.is_empty() {
            ctx.broadcast(Arc::from(self.fresh.as_slice()));
        }
        self.fresh.clear();
        if ctx.round() >= self.horizon {
            ctx.halt();
        }
    }

    /// Each gathered ID costs 4 bytes — exactly the bundle's wire encoding
    /// (4 little-endian bytes per element) and the 4-byte token convention
    /// of the emulated broadcast paths. Every receiver is charged the whole
    /// bundle, although the copies of one broadcast share one allocation.
    /// The default sizing would charge `size_of::<Arc<[u32]>>()` (the
    /// pointer), independent of the bundle length.
    fn payload_bytes(message: &Arc<[u32]>) -> u64 {
        4 * message.len() as u64
    }

    /// Checkpoint encoding: horizon, then the known set (ascending) and the
    /// fresh list, each with a `u32` count prefix (all little-endian).
    fn save_state(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.horizon.to_le_bytes());
        for list in [&self.known, &self.fresh] {
            buf.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for &id in list {
                buf.extend_from_slice(&id.to_le_bytes());
            }
        }
    }

    /// Decodes [`save_state`](NodeProgram::save_state)'s encoding. The known
    /// list is sorted and deduplicated on load, so a hand-edited or hostile
    /// blob cannot break the set invariant `absorb` relies on.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let u32_at = |i: usize| -> Result<u32, CodecError> {
            if i + 4 > bytes.len() {
                return Err(CodecError::Truncated {
                    needed: i + 4,
                    got: bytes.len(),
                });
            }
            Ok(u32::from_le_bytes([
                bytes[i],
                bytes[i + 1],
                bytes[i + 2],
                bytes[i + 3],
            ]))
        };
        let list_at = |cursor: &mut usize| -> Result<Vec<u32>, CodecError> {
            let count = u32_at(*cursor)? as usize;
            *cursor += 4;
            // A count read from the blob cannot reserve more than its bytes.
            let mut list = Vec::with_capacity(count.min((bytes.len() - *cursor) / 4 + 1));
            for _ in 0..count {
                list.push(u32_at(*cursor)?);
                *cursor += 4;
            }
            Ok(list)
        };
        let horizon = u32_at(0)?;
        let mut cursor = 4;
        let mut known = list_at(&mut cursor)?;
        let fresh = list_at(&mut cursor)?;
        if cursor != bytes.len() {
            return Err(CodecError::Oversized {
                expected: cursor,
                got: bytes.len(),
            });
        }
        known.sort_unstable();
        known.dedup();
        self.horizon = horizon;
        self.known = known;
        self.fresh = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::generators::{connected_erdos_renyi, cycle_graph, GeneratorConfig};
    use freelunch_graph::traversal::ball;
    use freelunch_graph::MultiGraph;
    use freelunch_runtime::{Network, NetworkConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    fn run_gathering(graph: &MultiGraph, t: u32) -> Vec<Vec<u32>> {
        let run = |shards: usize| {
            let config = NetworkConfig::with_seed(0).sharded(shards);
            let mut network =
                Network::new(graph, config, |node, _| BallGathering::new(node, t)).unwrap();
            network.run_rounds(t).unwrap();
            network
                .programs()
                .iter()
                .map(BallGathering::known_ids)
                .collect::<Vec<_>>()
        };
        let sequential = run(1);
        // Every gathering test doubles as a sharded-engine equivalence check.
        assert_eq!(sequential, run(2));
        sequential
    }

    fn assert_gathers_the_t_ball(graph: &MultiGraph, horizons: &[u32]) {
        for &t in horizons {
            let views = run_gathering(graph, t);
            for v in graph.nodes() {
                let expected: Vec<u32> = ball(graph, v, t)
                    .unwrap()
                    .into_iter()
                    .map(NodeId::raw)
                    .collect();
                assert_eq!(views[v.index()], expected, "node {v}, t={t}");
            }
        }
    }

    #[test]
    fn gathers_exactly_the_t_ball() {
        let dense = connected_erdos_renyi(&GeneratorConfig::new(60, 3), 0.08).unwrap();
        assert_gathers_the_t_ball(&dense, &[0, 1, 2, 3]);

        // Sparse and wide: a round-1 inbox holds a few neighbour IDs spread
        // over the whole 0..n range, so `absorb` takes its sort side.
        let sparse = connected_erdos_renyi(&GeneratorConfig::new(600, 5), 0.006).unwrap();
        let sorted_inboxes = sparse
            .nodes()
            .filter(|&v| {
                let ids: Vec<u32> = sparse
                    .incident_edges(v)
                    .iter()
                    .map(|incident| incident.neighbor.raw())
                    .collect();
                let span = ids.iter().max().unwrap() - ids.iter().min().unwrap();
                (span / 64) as usize + 1 > ids.len()
            })
            .count();
        assert!(sorted_inboxes > 100, "only {sorted_inboxes} sparse inboxes");
        assert_gathers_the_t_ball(&sparse, &[1, 2, 3]);
    }

    #[test]
    fn cycle_ball_sizes_are_correct() {
        let graph = cycle_graph(&GeneratorConfig::new(12, 0)).unwrap();
        let views = run_gathering(&graph, 2);
        assert!(views.iter().all(|view| view.len() == 5));
    }

    #[test]
    fn horizon_zero_knows_only_itself() {
        let graph = cycle_graph(&GeneratorConfig::new(5, 0)).unwrap();
        let views = run_gathering(&graph, 0);
        for (v, view) in views.iter().enumerate() {
            assert_eq!(view, &vec![v as u32]);
        }
    }

    /// `BallGathering` that also keeps every envelope it receives, with the
    /// round it arrived in.
    struct Keeper {
        inner: BallGathering,
        kept: Vec<(u32, Envelope<Arc<[u32]>>)>,
    }

    impl NodeProgram for Keeper {
        type Message = Arc<[u32]>;

        fn init(&mut self, ctx: &mut Context<'_, Arc<[u32]>>) {
            self.inner.init(ctx);
        }

        fn round(&mut self, ctx: &mut Context<'_, Arc<[u32]>>, inbox: &[Envelope<Arc<[u32]>>]) {
            let round = ctx.round();
            self.kept
                .extend(inbox.iter().map(|envelope| (round, envelope.clone())));
            self.inner.round(ctx, inbox);
        }

        fn payload_bytes(message: &Arc<[u32]>) -> u64 {
            BallGathering::payload_bytes(message)
        }
    }

    #[test]
    fn a_broadcast_ships_one_shared_bundle() {
        // A star (centre 0, leaves 1-4) beside a path 5-6-7-8.
        let mut graph = MultiGraph::new(9);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (6, 7), (7, 8)] {
            graph.add_edge(NodeId::new(u), NodeId::new(v)).unwrap();
        }
        for shards in [1, 2] {
            let config = NetworkConfig::with_seed(0).sharded(shards);
            let mut network = Network::new(&graph, config, |node, _| Keeper {
                inner: BallGathering::new(node, 2),
                kept: Vec::new(),
            })
            .unwrap();
            network.run_rounds(2).unwrap();

            // Round 2's inboxes hold what round 1 broadcast: one bundle per
            // sender, one pointer to it in each of its receivers' mailboxes.
            let mut copies: BTreeMap<NodeId, Vec<&Arc<[u32]>>> = BTreeMap::new();
            for keeper in network.programs() {
                for (_, envelope) in keeper.kept.iter().filter(|(round, _)| *round == 2) {
                    copies
                        .entry(envelope.from)
                        .or_default()
                        .push(&envelope.payload);
                }
            }
            for v in graph.nodes() {
                let bundles = &copies[&v];
                assert_eq!(bundles.len(), graph.degree(v), "node {v}");
                assert!(
                    bundles.iter().all(|bundle| Arc::ptr_eq(bundle, bundles[0])),
                    "node {v}'s receivers hold different allocations"
                );
            }
            assert_eq!(copies[&NodeId::new(0)][0][..], [1, 2, 3, 4]);
            assert_eq!(copies[&NodeId::new(6)][0][..], [5, 7]);

            // The ledger still charges every copy in full: 4 bytes per ID
            // per envelope, on the edge it travelled.
            let mut bytes = vec![0u64; graph.edge_count()];
            for keeper in network.programs() {
                for (_, envelope) in &keeper.kept {
                    bytes[envelope.edge.index()] += 4 * envelope.payload.len() as u64;
                }
            }
            assert_eq!(network.ledger().bytes_per_edge(), bytes);
            // Init sends a one-ID bundle over each of the 14 ports; round 1
            // sends 30 IDs: the centre's 4 over its 4 ports, each leaf's 1,
            // and 1 + 4 + 4 + 1 along the path.
            assert_eq!(network.ledger().bytes_per_round(), [4 * 14, 4 * 30, 0]);
        }
    }

    /// `absorb` against the `BTreeSet` insertion loop it replaces.
    fn check_absorb(known: &[u32], bundles: &[Vec<u32>]) {
        let mut reference: BTreeSet<u32> = known.iter().copied().collect();
        let mut expected_fresh: Vec<u32> = bundles
            .iter()
            .flatten()
            .copied()
            .filter(|&id| reference.insert(id))
            .collect();
        expected_fresh.sort_unstable();
        expected_fresh.insert(0, 42);

        let mut merged = known.to_vec();
        let mut fresh = vec![42];
        absorb(&mut merged, &mut fresh, bundles.iter().map(Vec::as_slice));
        let expected_known: Vec<u32> = reference.into_iter().collect();
        assert_eq!(
            merged, expected_known,
            "known {known:?}, bundles {bundles:?}"
        );
        assert_eq!(
            fresh, expected_fresh,
            "known {known:?}, bundles {bundles:?}"
        );
    }

    #[test]
    fn absorb_matches_a_btreeset_on_seeded_inboxes() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for trial in 0..500 {
            // The ID pool: narrow spans near 0 and near u32::MAX take the
            // bitmap side, wide spans the sort side.
            let (base, span) = match trial % 5 {
                0 => (0, 64),
                1 => (u32::MAX - 200, 200),
                2 => (rng.gen_range(0..1u32 << 20), 1 << 12),
                3 => (0, u32::MAX),
                _ => (rng.gen_range(0..u32::MAX / 2), u32::MAX / 2),
            };
            let draw = |rng: &mut StdRng| base + rng.gen_range(0..span) + rng.gen_range(0..2u32);
            let known: BTreeSet<u32> = (0..rng.gen_range(0..40usize))
                .map(|_| draw(&mut rng))
                .collect();
            let known: Vec<u32> = known.into_iter().collect();
            let bundles: Vec<Vec<u32>> = (0..rng.gen_range(0..8usize))
                .map(|_| {
                    let len = rng.gen_range(0..200usize);
                    let mut bundle: Vec<u32> = (0..len).map(|_| draw(&mut rng)).collect();
                    // Repeat some IDs within the bundle, and some known ones.
                    for _ in 0..len / 4 {
                        let pick = bundle[rng.gen_range(0..len)];
                        bundle.push(pick);
                    }
                    if !known.is_empty() && rng.gen_bool(0.5) {
                        bundle.push(known[rng.gen_range(0..known.len())]);
                    }
                    bundle
                })
                .collect();
            check_absorb(&known, &bundles);
            // The same bundles twice: every ID repeats across bundles.
            let doubled: Vec<Vec<u32>> = bundles.iter().chain(&bundles).cloned().collect();
            check_absorb(&known, &doubled);
        }
    }

    #[test]
    fn absorb_handles_edge_inboxes() {
        check_absorb(&[], &[]);
        check_absorb(&[3], &[]);
        check_absorb(&[3], &[vec![], vec![]]);
        check_absorb(&[], &[vec![0], vec![u32::MAX], vec![u32::MAX, 0]]);
        check_absorb(&[0, u32::MAX], &[vec![u32::MAX - 1, 1, u32::MAX]]);
        check_absorb(&[1, 5, 9], &[vec![9, 5, 1], vec![1]]);
        // Either side of the bitmap/sort rule: `count` distinct IDs whose
        // span is exactly `count` 64-bit words (bitmap), then one word wider
        // (sort), each in descending order and split into two bundles.
        for count in [2u32, 17, 64] {
            let bitmap: Vec<u32> = (0..count).rev().map(|i| 64 * i).collect();
            let mut sort = bitmap.clone();
            sort[0] += 64;
            for known in [vec![], vec![0, 64], vec![5, 64 * count]] {
                for ids in [&bitmap, &sort] {
                    let (first, second) = ids.split_at(ids.len() / 2);
                    check_absorb(&known, &[first.to_vec(), second.to_vec()]);
                }
            }
        }
    }

    #[test]
    fn save_state_encoding_is_pinned() {
        let words = |program: &BallGathering| {
            let mut buf = Vec::new();
            program.save_state(&mut buf);
            buf.chunks(4)
                .map(|chunk| u32::from_le_bytes(chunk.try_into().unwrap()))
                .collect::<Vec<u32>>()
        };
        // Horizon, then the count-prefixed ascending known list, then the
        // count-prefixed fresh list.
        let fresh_node = BallGathering::new(NodeId::new(5), 2);
        assert_eq!(words(&fresh_node), [2, 1, 5, 1, 5]);
        let program = BallGathering {
            horizon: 3,
            known: vec![1, 7, 300, u32::MAX],
            fresh: vec![7, 300],
        };
        let mut buf = Vec::new();
        program.save_state(&mut buf);
        assert_eq!(
            buf,
            [
                3, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 44, 1, 0, 0, 255, 255, 255, 255, 2,
                0, 0, 0, 7, 0, 0, 0, 44, 1, 0, 0,
            ]
        );
        let mut restored = BallGathering::new(NodeId::new(0), 0);
        restored.load_state(&buf).unwrap();
        assert_eq!(words(&restored), words(&program));
    }

    #[test]
    fn hostile_checkpoints_return_instead_of_aborting() {
        let blob =
            |words: &[u32]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
        let mut program = BallGathering::new(NodeId::new(0), 2);
        // Counts far beyond the blob's bytes are refused, not allocated.
        for hostile in [[2, 0, u32::MAX], [2, u32::MAX, 0]] {
            assert!(matches!(
                program.load_state(&blob(&hostile)),
                Err(CodecError::Truncated { .. })
            ));
        }
        // An unsorted known list with duplicates is normalised to a set.
        program
            .load_state(&blob(&[2, 5, 9, 3, 9, 1, 3, 0]))
            .unwrap();
        assert_eq!(program.known_ids(), [1, 3, 9]);
        let mut fresh = Vec::new();
        absorb(&mut program.known, &mut fresh, [&[4, 9, 0][..]].into_iter());
        assert_eq!(program.known_ids(), [0, 1, 3, 4, 9]);
        assert_eq!(fresh, [0, 4]);
    }
}
