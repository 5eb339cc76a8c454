//! Wire-codec law sweeps over every shipped message type.
//!
//! `docs/TRANSPORT.md` §3 states three laws every [`WireCodec`] must obey:
//!
//! 1. roundtrip — `decode(encode(m)) == m`;
//! 2. sizing — the encoded length equals the shipping program's
//!    `payload_bytes(m)`, byte for byte (this is what keeps the
//!    [`MessageLedger`](freelunch::runtime::MessageLedger) identical across
//!    backends);
//! 3. rejection — `decode` errors on every buffer `encode` cannot produce
//!    (truncated, oversized, unknown tag, non-zero padding).
//!
//! The sweeps below are deterministic (exhaustive tags × structured value
//! grids), so a law violation is always reproducible.

use freelunch::algorithms::broadcast::BallGathering;
use freelunch::algorithms::coloring::{ColoringMessage, RandomizedColoring};
use freelunch::algorithms::leader::LocalLeaderElection;
use freelunch::algorithms::matching::{MatchingMessage, MaximalMatching};
use freelunch::algorithms::mis::{LubyMis, MisMessage};
use freelunch::core::sampler::distributed::{Level0Message, Level0Program};
use freelunch::graph::{EdgeId, NodeId};
use freelunch::runtime::transport::{CodecError, WireCodec};
use freelunch::runtime::{CheckpointHeader, ChurnEvent, NodeProgram, RejoinHello};
use std::fmt::Debug;
use std::sync::Arc;

/// The structured value grid the payload-carrying variants are swept over.
const VALUE_GRID: [u64; 12] = [
    0,
    1,
    2,
    7,
    0xFF,
    0x100,
    0xFFFF,
    0x1_0000,
    0xDEAD_BEEF,
    u32::MAX as u64,
    u64::MAX / 3,
    u64::MAX,
];

/// Checks laws 1–3 for one message of one program type.
fn check_message<P>(message: P::Message)
where
    P: NodeProgram,
    P::Message: WireCodec + PartialEq,
{
    let encoded = message.encode_to_vec();

    // Law 2: sizing — encoded length equals the ledger's payload_bytes.
    assert_eq!(
        encoded.len() as u64,
        P::payload_bytes(&message),
        "codec/payload_bytes mismatch for {message:?}"
    );

    // Law 1: roundtrip.
    match P::Message::decode(&encoded) {
        Ok(decoded) => assert!(decoded == message, "roundtrip mangled {message:?}"),
        Err(err) => panic!("decode(encode({message:?})) failed: {err}"),
    }

    // Law 3a: no strict prefix may decode back to the original message.
    // Fixed-size codecs reject every prefix outright; a variable-length
    // codec (token bundles, delimited by the frame length) may accept a
    // prefix, but only ever as a *different* message — truncation is never
    // silent.
    for cut in 0..encoded.len() {
        if let Ok(decoded) = P::Message::decode(&encoded[..cut]) {
            assert!(
                decoded != message,
                "{message:?} survived truncation to {cut} of {} bytes",
                encoded.len()
            );
        }
    }

    // Law 3b: trailing garbage is rejected (both a zero byte, which also
    // guards against padding confusion, and a non-zero one).
    for extra in [0x00, 0xA5] {
        let mut oversized = encoded.clone();
        oversized.push(extra);
        assert!(
            P::Message::decode(&oversized).is_err(),
            "{message:?} decoded with a trailing {extra:#04x} byte"
        );
    }
}

#[test]
fn coloring_messages_obey_the_codec_laws() {
    for value in VALUE_GRID {
        let color = value as u32;
        check_message::<RandomizedColoring>(ColoringMessage::Proposal(color));
        check_message::<RandomizedColoring>(ColoringMessage::Final(color));
    }
}

#[test]
fn matching_messages_obey_the_codec_laws() {
    for message in [
        MatchingMessage::Propose,
        MatchingMessage::Accept,
        MatchingMessage::Retired,
    ] {
        check_message::<MaximalMatching>(message);
    }
}

#[test]
fn mis_messages_obey_the_codec_laws() {
    for value in VALUE_GRID {
        check_message::<LubyMis>(MisMessage::Priority(value));
    }
    check_message::<LubyMis>(MisMessage::Joined);
    check_message::<LubyMis>(MisMessage::Retired);
}

#[test]
fn level0_messages_obey_the_codec_laws() {
    for message in [
        Level0Message::Query,
        Level0Message::Reply { is_center: false },
        Level0Message::Reply { is_center: true },
        Level0Message::Join,
        Level0Message::Ack,
    ] {
        check_message::<Level0Program>(message);
    }
}

#[test]
fn leader_ids_obey_the_codec_laws() {
    for value in VALUE_GRID {
        check_message::<LocalLeaderElection>(value as u32);
    }
}

#[test]
fn token_bundles_obey_the_codec_laws() {
    // Bundles of every length in 0..=17 plus a large one, filled from the
    // value grid.
    for len in (0..=17).chain([512]) {
        let bundle: Arc<[u32]> = (0..len)
            .map(|i| VALUE_GRID[i % VALUE_GRID.len()] as u32 ^ i as u32)
            .collect();
        check_message::<BallGathering>(bundle);
    }
}

#[test]
fn unknown_tags_are_rejected_not_misread() {
    // Flip the tag byte of a valid encoding to every invalid value the
    // type's tag space excludes; decode must answer InvalidTag, never a
    // wrong message.
    let coloring = ColoringMessage::Proposal(3).encode_to_vec();
    for tag in 2..=255u8 {
        let mut bad = coloring.clone();
        bad[0] = tag;
        assert_eq!(
            ColoringMessage::decode(&bad),
            Err(CodecError::InvalidTag { tag })
        );
    }
    let mis = MisMessage::Joined.encode_to_vec();
    for tag in 3..=255u8 {
        let mut bad = mis.clone();
        bad[0] = tag;
        assert_eq!(
            MisMessage::decode(&bad),
            Err(CodecError::InvalidTag { tag })
        );
    }
    let level0 = Level0Message::Ack.encode_to_vec();
    for tag in 5..=255u8 {
        let mut bad = level0.clone();
        bad[0] = tag;
        assert_eq!(
            Level0Message::decode(&bad),
            Err(CodecError::InvalidTag { tag })
        );
    }
    let matching = MatchingMessage::Propose.encode_to_vec();
    for tag in 3..=255u8 {
        let mut bad = matching.clone();
        bad[0] = tag;
        assert_eq!(
            MatchingMessage::decode(&bad),
            Err(CodecError::InvalidTag { tag })
        );
    }
}

#[test]
fn nonzero_padding_is_rejected() {
    // Corrupting any padding byte of a padded encoding must be caught:
    // otherwise a corrupted frame could silently alias a valid message.
    fn corrupt_padding<M: WireCodec + Debug>(message: M, used: usize) {
        let encoded = message.encode_to_vec();
        for position in used..encoded.len() {
            let mut bad = encoded.clone();
            bad[position] = 0x7F;
            assert_eq!(
                M::decode(&bad).map(drop),
                Err(CodecError::InvalidPadding),
                "padding corruption at byte {position} of {message:?} went unnoticed"
            );
        }
    }
    corrupt_padding(ColoringMessage::Final(9), 5);
    corrupt_padding(MisMessage::Retired, 1);
    corrupt_padding(MisMessage::Priority(4), 9);
    corrupt_padding(Level0Message::Join, 1);
    corrupt_padding(MatchingMessage::Accept, 1);
}

/// The value grid the churn-event frame section is swept over: every event
/// kind × edge/node IDs spanning the full value range.
fn churn_event_grid() -> Vec<ChurnEvent> {
    let mut events = Vec::new();
    for value in VALUE_GRID {
        let edge = EdgeId::new(value);
        let node = NodeId::new(value as u32);
        events.push(ChurnEvent::EdgeInsert {
            edge,
            u: node,
            v: NodeId::new((value as u32).wrapping_add(1)),
        });
        events.push(ChurnEvent::EdgeDelete { edge });
        events.push(ChurnEvent::NodeJoin { node });
        events.push(ChurnEvent::NodeLeave { node });
    }
    events
}

/// Laws 1–3 for the churn-event frame section (`docs/CHURN.md`): churn
/// events are not a program's payload — they ride their own fixed-size slot
/// of every wire frame — so they are swept directly rather than through
/// [`check_message`]. The sizing law here is the frame layout itself:
/// every event occupies exactly [`ChurnEvent::WIRE_BYTES`].
#[test]
fn churn_events_obey_the_codec_laws() {
    for event in churn_event_grid() {
        let encoded = event.encode_to_vec();

        // Law 2: fixed frame-slot sizing.
        assert_eq!(
            encoded.len(),
            ChurnEvent::WIRE_BYTES,
            "frame slot drifted for {event:?}"
        );

        // Law 1: roundtrip.
        assert_eq!(ChurnEvent::decode(&encoded), Ok(event));

        // Law 3: every strict prefix is rejected (the codec is fixed-size,
        // so truncation can never silently decode) …
        for cut in 0..encoded.len() {
            assert!(
                ChurnEvent::decode(&encoded[..cut]).is_err(),
                "{event:?} survived truncation to {cut} bytes"
            );
        }
        // … and so is trailing garbage, zero or not.
        for extra in [0x00, 0xA5] {
            let mut oversized = encoded.clone();
            oversized.push(extra);
            assert!(
                ChurnEvent::decode(&oversized).is_err(),
                "{event:?} decoded with a trailing {extra:#04x} byte"
            );
        }
    }
}

#[test]
fn churn_event_bad_tags_are_rejected_not_misread() {
    // Tags 1–4 are the only live ones; flipping the tag byte to anything
    // else must answer InvalidTag, never a wrong event.
    let valid = ChurnEvent::EdgeDelete {
        edge: EdgeId::new(7),
    }
    .encode_to_vec();
    for tag in [0u8].into_iter().chain(5..=255) {
        let mut bad = valid.clone();
        bad[0] = tag;
        assert_eq!(
            ChurnEvent::decode(&bad),
            Err(CodecError::InvalidTag { tag })
        );
    }
}

#[test]
fn churn_event_padding_corruption_is_rejected() {
    // Bytes 1–3 are structural zero padding in every event; each node
    // event additionally zeroes the edge slot and the second node slot, and
    // an edge delete zeroes both node slots. Corrupting any such byte must
    // be caught — a corrupted frame slot may never alias a valid event.
    let events: Vec<(ChurnEvent, Vec<usize>)> = vec![
        (
            ChurnEvent::EdgeInsert {
                edge: EdgeId::new(3),
                u: NodeId::new(1),
                v: NodeId::new(2),
            },
            (1..4).collect(),
        ),
        (
            ChurnEvent::EdgeDelete {
                edge: EdgeId::new(3),
            },
            (1..4).chain(12..20).collect(),
        ),
        (
            ChurnEvent::NodeJoin {
                node: NodeId::new(9),
            },
            (1..4).chain(4..12).chain(16..20).collect(),
        ),
        (
            ChurnEvent::NodeLeave {
                node: NodeId::new(9),
            },
            (1..4).chain(4..12).chain(16..20).collect(),
        ),
    ];
    for (event, zero_positions) in events {
        let encoded = event.encode_to_vec();
        for position in zero_positions {
            assert_eq!(encoded[position], 0, "{event:?}: byte {position} not pad");
            let mut bad = encoded.clone();
            bad[position] = 0x7F;
            assert_eq!(
                ChurnEvent::decode(&bad),
                Err(CodecError::InvalidPadding),
                "padding corruption at byte {position} of {event:?} went unnoticed"
            );
        }
    }
}

/// Laws 1–3 for the checkpoint-file header (`docs/RECOVERY.md`): like churn
/// events, the header is not a program payload — it is the 24-byte front of
/// every checkpoint file — so it is swept directly. Its rejection law is
/// what makes torn and corrupt checkpoint files detectable before any
/// section parsing.
#[test]
fn checkpoint_headers_obey_the_codec_laws() {
    for body_len in VALUE_GRID {
        for checksum in [0u64, 0xDEAD_BEEF_CAFE_F00D, u64::MAX] {
            let header = CheckpointHeader { body_len, checksum };
            let encoded = header.encode_to_vec();

            // Law 2: fixed sizing.
            assert_eq!(encoded.len(), CheckpointHeader::WIRE_BYTES);

            // Law 1: roundtrip.
            assert_eq!(CheckpointHeader::decode(&encoded), Ok(header));

            // Law 3: every strict prefix is a torn write…
            for cut in 0..encoded.len() {
                assert_eq!(
                    CheckpointHeader::decode(&encoded[..cut]),
                    Err(CodecError::Truncated {
                        needed: CheckpointHeader::WIRE_BYTES,
                        got: cut
                    }),
                    "{header:?} survived truncation to {cut} bytes"
                );
            }
            // …and trailing garbage is rejected, zero or not.
            for extra in [0x00, 0xA5] {
                let mut oversized = encoded.clone();
                oversized.push(extra);
                assert_eq!(
                    CheckpointHeader::decode(&oversized),
                    Err(CodecError::Oversized {
                        expected: CheckpointHeader::WIRE_BYTES,
                        got: CheckpointHeader::WIRE_BYTES + 1
                    })
                );
            }
        }
    }
}

#[test]
fn checkpoint_header_magic_version_and_padding_corruption_is_rejected() {
    let encoded = CheckpointHeader {
        body_len: 64,
        checksum: 7,
    }
    .encode_to_vec();
    // A corrupted magic answers InvalidTag with the first differing byte —
    // "not a checkpoint file" beats a checksum wild-goose chase.
    for position in 0..4 {
        let mut bad = encoded.clone();
        bad[position] = 0x7F;
        assert_eq!(
            CheckpointHeader::decode(&bad),
            Err(CodecError::InvalidTag { tag: 0x7F }),
            "magic corruption at byte {position} went unnoticed"
        );
    }
    // Every unknown version byte is rejected (version 2 is the only live
    // one), so a future layout bump can never be misparsed by this build.
    for version in (0u8..=255).filter(|&v| v != 2) {
        let mut bad = encoded.clone();
        bad[4] = version;
        assert_eq!(
            CheckpointHeader::decode(&bad),
            Err(CodecError::InvalidTag { tag: version })
        );
    }
    // Structural padding must be zero.
    for position in 5..8 {
        let mut bad = encoded.clone();
        bad[position] = 0x7F;
        assert_eq!(
            CheckpointHeader::decode(&bad),
            Err(CodecError::InvalidPadding),
            "padding corruption at byte {position} went unnoticed"
        );
    }
}

/// Laws 1–3 for the rejoin-handshake frame (`docs/RECOVERY.md`): the
/// 24-byte [`RejoinHello`] a relaunched rank opens with when it dials a
/// survivor. A corrupted or truncated hello must be rejected before the
/// survivor decides whether to re-admit the rank.
#[test]
fn rejoin_hellos_obey_the_codec_laws() {
    for value in VALUE_GRID {
        let hello = RejoinHello {
            world: value as u32,
            rank: (value as u32).wrapping_add(1),
            resume_round: (value as u32).wrapping_mul(3),
        };
        let encoded = hello.encode_to_vec();

        // Law 2: fixed sizing.
        assert_eq!(encoded.len(), RejoinHello::WIRE_BYTES);

        // Law 1: roundtrip.
        assert_eq!(RejoinHello::decode(&encoded), Ok(hello));

        // Law 3: truncation and trailing garbage are rejected.
        for cut in 0..encoded.len() {
            assert_eq!(
                RejoinHello::decode(&encoded[..cut]),
                Err(CodecError::Truncated {
                    needed: RejoinHello::WIRE_BYTES,
                    got: cut
                }),
                "{hello:?} survived truncation to {cut} bytes"
            );
        }
        for extra in [0x00, 0xA5] {
            let mut oversized = encoded.clone();
            oversized.push(extra);
            assert_eq!(
                RejoinHello::decode(&oversized),
                Err(CodecError::Oversized {
                    expected: RejoinHello::WIRE_BYTES,
                    got: RejoinHello::WIRE_BYTES + 1
                })
            );
        }
    }
}

#[test]
fn rejoin_hello_magic_version_and_padding_corruption_is_rejected() {
    let encoded = RejoinHello {
        world: 2,
        rank: 1,
        resume_round: 5,
    }
    .encode_to_vec();
    for position in 0..4 {
        let mut bad = encoded.clone();
        bad[position] = 0x7F;
        assert_eq!(
            RejoinHello::decode(&bad),
            Err(CodecError::InvalidTag { tag: 0x7F }),
            "magic corruption at byte {position} went unnoticed"
        );
    }
    for version in (0u8..=255).filter(|&v| v != 1) {
        let mut bad = encoded.clone();
        bad[4] = version;
        assert_eq!(
            RejoinHello::decode(&bad),
            Err(CodecError::InvalidTag { tag: version })
        );
    }
    // Both padding runs — after the version byte and at the tail.
    for position in (5..8).chain(20..24) {
        let mut bad = encoded.clone();
        bad[position] = 0x7F;
        assert_eq!(
            RejoinHello::decode(&bad),
            Err(CodecError::InvalidPadding),
            "padding corruption at byte {position} went unnoticed"
        );
    }
}

/// The runtime's built-in codecs (unit and integers) are swept here too so
/// an engine-internal message type can ride a wire transport unchanged.
#[test]
fn builtin_codecs_obey_the_codec_laws() {
    assert_eq!(().encode_to_vec().len(), 0);
    assert_eq!(<()>::decode(&[]), Ok(()));
    assert!(<()>::decode(&[0]).is_err());
    for value in VALUE_GRID {
        let encoded = value.encode_to_vec();
        assert_eq!(encoded.len(), 8);
        assert_eq!(u64::decode(&encoded), Ok(value));
        assert!(u64::decode(&encoded[..7]).is_err());
        let narrow = (value as u32).encode_to_vec();
        assert_eq!(narrow.len(), 4);
        assert_eq!(u32::decode(&narrow), Ok(value as u32));
    }
}
