//! A loopback test backend that pushes every payload through its wire
//! encoding.
//!
//! The mock delivers serially in canonical order like the in-process
//! backend, but every payload makes a round trip through its [`WireCodec`]
//! — so with no disturbances installed, a mock execution is bit-identical
//! to an in-process one **if and only if** the codec obeys its laws, which
//! is exactly what the cross-backend tests exploit. On top of that it can
//! record every frame it carries and inject deterministic wire-level
//! disturbances (drop, delay, corrupt) for transport-robustness tests.
//!
//! Wire disturbances live *below* the ledger: a dropped or delayed frame
//! was still sent (and is still counted as sent); only its delivery is
//! affected. This is deliberately different from the
//! [`FaultPlan`](crate::fault::FaultPlan) message faults, which model
//! protocol-level adversity and are resolved (and accounted) before any
//! transport sees the messages — `tests/fault_matrix.rs` proves the fault
//! plane is transport-independent by running the same plans over this
//! backend.
//!
//! Like every backend, the mock charges the ledger only when a barrier
//! succeeds: a barrier that fails (a codec/`payload_bytes` mismatch, a frame
//! that no longer decodes) charges none of its sends.

use super::codec::WireCodec;
use super::{BarrierOutcome, RoundBarrier, Transport};
use crate::error::{RuntimeError, RuntimeResult};
use crate::metrics::EdgeTally;
use crate::node::Envelope;
use crate::trace::TraceEvent;
use freelunch_graph::{EdgeId, NodeId};

/// One frame the mock carried: the resolved routing header plus the
/// encoded payload exactly as a wire transport would ship it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRecord {
    /// Round the frame was sent in (0 = initialization).
    pub round: u32,
    /// Edge the message travelled over.
    pub edge: EdgeId,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The encoded payload bytes.
    pub payload: Vec<u8>,
}

/// A deterministic wire-level disturbance rule, applied to the mock's
/// frame sequence (frames are numbered 1, 2, 3, … in canonical send order
/// across the whole execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disturbance {
    /// Silently lose every `nth` frame (the sender still counts it as
    /// sent; the receiver never sees it).
    DropEveryNth {
        /// Period of the loss (1 = every frame).
        nth: u64,
    },
    /// Hold every `nth` frame back and deliver it `rounds` barriers later
    /// (appended before that round's fresh traffic, in original order).
    DelayEveryNth {
        /// Period of the delay.
        nth: u64,
        /// Barriers to hold the frame for (≥ 1).
        rounds: u32,
    },
    /// Flip the lowest bit of the first payload byte of every `nth` frame.
    /// Depending on the codec this surfaces as a decode error (failing the
    /// barrier with [`RuntimeError::Transport`]) or as a silently altered
    /// message — both are realities of a corrupted wire.
    CorruptEveryNth {
        /// Period of the corruption.
        nth: u64,
    },
}

/// A delayed frame waiting for its due barrier.
#[derive(Debug)]
struct DelayedFrame {
    due_round: u32,
    edge: EdgeId,
    from: NodeId,
    to: NodeId,
    payload: Vec<u8>,
}

/// The loopback mock backend (see the module docs above).
#[derive(Debug, Default)]
pub struct MockTransport {
    disturbance: Option<Disturbance>,
    recording: bool,
    frames: Vec<FrameRecord>,
    delayed: Vec<DelayedFrame>,
    /// 1-based frame sequence counter driving the disturbance rules.
    sequence: u64,
    frames_dropped: u64,
    frames_delayed: u64,
    frames_corrupted: u64,
    scratch: Vec<u8>,
    /// This barrier's sends per edge, charged to the ledger only once the
    /// barrier has succeeded.
    tally: EdgeTally,
}

impl MockTransport {
    /// A neutral mock: encodes and decodes every payload, disturbs
    /// nothing, records nothing.
    pub fn new() -> Self {
        MockTransport::default()
    }

    /// Returns a copy of the builder with frame recording enabled: every
    /// carried frame is kept and exposed via [`MockTransport::frames`].
    pub fn recording(mut self) -> Self {
        self.recording = true;
        self
    }

    /// Returns a copy of the builder with the given disturbance installed.
    pub fn with_disturbance(mut self, disturbance: Disturbance) -> Self {
        self.disturbance = Some(disturbance);
        self
    }

    /// The recorded frames, in canonical send order (empty unless built
    /// with [`MockTransport::recording`]).
    pub fn frames(&self) -> &[FrameRecord] {
        &self.frames
    }

    /// Frames lost to [`Disturbance::DropEveryNth`] so far.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Frames held back by [`Disturbance::DelayEveryNth`] so far.
    pub fn frames_delayed(&self) -> u64 {
        self.frames_delayed
    }

    /// Frames altered by [`Disturbance::CorruptEveryNth`] so far.
    pub fn frames_corrupted(&self) -> u64 {
        self.frames_corrupted
    }

    /// Total frames the mock has carried (including disturbed ones).
    pub fn frames_carried(&self) -> u64 {
        self.sequence
    }
}

impl<M: WireCodec + Send + Sync + Clone + std::fmt::Debug> Transport<M> for MockTransport {
    fn deliver(&mut self, barrier: RoundBarrier<'_, M>) -> RuntimeResult<BarrierOutcome> {
        let RoundBarrier {
            round,
            traced,
            local_sent,
            grid,
            mailboxes,
            ledger,
            trace,
            churn,
            ..
        } = barrier;
        // Wire-faithfulness for the churn section too: every event the
        // engine applied this round must survive a codec round trip, just
        // like a TCP rank's round frame would carry it.
        for event in churn {
            let mut encoded = Vec::with_capacity(crate::churn::ChurnEvent::WIRE_BYTES);
            event.encode(&mut encoded);
            let decoded = crate::churn::ChurnEvent::decode(&encoded).map_err(|e| {
                RuntimeError::transport(format!(
                    "mock: churn event failed its wire round trip: {e}"
                ))
            })?;
            if decoded != *event {
                return Err(RuntimeError::transport(
                    "mock: churn event changed across its wire round trip".to_string(),
                ));
            }
        }
        for mailbox in mailboxes.iter_mut() {
            mailbox.clear();
        }
        // A barrier that failed left its tally uncharged; discard it rather
        // than charge it to this round.
        self.tally.discard();
        self.tally.fit(ledger.edge_slots());
        // Release frames whose delay expired, before this round's fresh
        // traffic, in original send order. Their ledger/trace entries were
        // made when they were sent.
        let mut index = 0;
        while index < self.delayed.len() {
            if self.delayed[index].due_round <= round {
                let frame = self.delayed.remove(index);
                let payload = M::decode(&frame.payload).map_err(|e| {
                    RuntimeError::transport(format!(
                        "mock: delayed frame on edge {} failed to decode: {e}",
                        frame.edge
                    ))
                })?;
                mailboxes[frame.to.index()].push(Envelope {
                    edge: frame.edge,
                    from: frame.from,
                    payload,
                });
            } else {
                index += 1;
            }
        }
        // The mock states one grid column: its buckets, in row order, are
        // the canonical send order.
        for bucket in grid.iter_mut() {
            for outgoing in bucket.drain(..) {
                self.scratch.clear();
                outgoing.payload.encode(&mut self.scratch);
                if self.scratch.len() as u64 != outgoing.bytes {
                    return Err(RuntimeError::transport(format!(
                        "mock: codec/payload_bytes mismatch on edge {}: encoded {} bytes, \
                         payload_bytes charges {} (see docs/TRANSPORT.md)",
                        outgoing.edge,
                        self.scratch.len(),
                        outgoing.bytes
                    )));
                }
                // Sender-side accounting, identical to the in-process path.
                self.tally.add(outgoing.edge.index(), outgoing.bytes);
                if traced {
                    trace.record(TraceEvent {
                        round,
                        from: outgoing.sender,
                        to: outgoing.receiver,
                        edge: outgoing.edge,
                    });
                }
                self.sequence += 1;
                if self.recording {
                    self.frames.push(FrameRecord {
                        round,
                        edge: outgoing.edge,
                        from: outgoing.sender,
                        to: outgoing.receiver,
                        payload: self.scratch.clone(),
                    });
                }
                match self.disturbance {
                    Some(Disturbance::DropEveryNth { nth })
                        if self.sequence.is_multiple_of(nth) =>
                    {
                        self.frames_dropped += 1;
                        continue;
                    }
                    Some(Disturbance::DelayEveryNth { nth, rounds })
                        if self.sequence.is_multiple_of(nth) =>
                    {
                        self.frames_delayed += 1;
                        self.delayed.push(DelayedFrame {
                            due_round: round + rounds.max(1),
                            edge: outgoing.edge,
                            from: outgoing.sender,
                            to: outgoing.receiver,
                            payload: self.scratch.clone(),
                        });
                        continue;
                    }
                    Some(Disturbance::CorruptEveryNth { nth })
                        if self.sequence.is_multiple_of(nth) =>
                    {
                        self.frames_corrupted += 1;
                        if let Some(byte) = self.scratch.first_mut() {
                            *byte ^= 1;
                        }
                    }
                    _ => {}
                }
                let payload = M::decode(&self.scratch).map_err(|e| {
                    RuntimeError::transport(format!(
                        "mock: frame on edge {} failed to decode: {e}",
                        outgoing.edge
                    ))
                })?;
                mailboxes[outgoing.receiver.index()].push(Envelope {
                    edge: outgoing.edge,
                    from: outgoing.sender,
                    payload,
                });
            }
        }
        self.tally.charge(ledger);
        Ok(BarrierOutcome::local(local_sent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ExecutionMetrics, MessageLedger};
    use crate::node::Outgoing;
    use crate::transport::codec::CodecError;

    /// A one-byte payload whose codec rejects odd bytes, so a corrupted
    /// frame (lowest bit flipped) fails to decode.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Even(u8);

    impl WireCodec for Even {
        fn encode(&self, buf: &mut Vec<u8>) {
            buf.push(self.0);
        }

        fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
            let byte = u8::decode(bytes)?;
            if byte % 2 == 0 {
                Ok(Even(byte))
            } else {
                Err(CodecError::InvalidTag { tag: byte })
            }
        }
    }

    /// One message from node 0 on `edge` to `receiver`, charged `bytes`.
    fn outgoing<M>(edge: u64, receiver: u32, bytes: u64, payload: M) -> Outgoing<M> {
        Outgoing {
            edge: EdgeId::new(edge),
            sender: NodeId::new(0),
            receiver: NodeId::new(receiver),
            bytes,
            payload,
        }
    }

    /// Runs one barrier of a 4-node, 8-edge-slot execution directly on
    /// `mock`, with `sends` as its one-bucket send grid.
    fn barrier<M: WireCodec + Send + Sync + Clone + std::fmt::Debug>(
        mock: &mut MockTransport,
        sends: Vec<Outgoing<M>>,
        ledger: &mut MessageLedger,
    ) -> RuntimeResult<BarrierOutcome> {
        let local_sent = sends.len() as u64;
        let mut mailboxes: Vec<Vec<Envelope<M>>> = (0..4).map(|_| Vec::new()).collect();
        mock.deliver(RoundBarrier {
            round: 0,
            shards: 1,
            traced: false,
            local_sent,
            halted: &[false; 4],
            grid: &mut [sends],
            column_width: 4,
            mailboxes: &mut mailboxes,
            metrics: &mut ExecutionMetrics::new(4),
            ledger,
            trace: &mut crate::trace::Trace::with_capacity(0),
            churn: &[],
        })
    }

    /// A barrier that fails on a codec/`payload_bytes` mismatch charges
    /// none of its sends, and its tally does not leak into the next one.
    #[test]
    fn a_barrier_that_fails_in_staging_charges_nothing() {
        let mut mock = MockTransport::new();
        let mut ledger = MessageLedger::new(8);
        // Edge 1 passes the codec check, edge 2 fails it (a u64 is 8 bytes).
        let failed = vec![outgoing(1, 1, 8, 7u64), outgoing(2, 2, 3, 7u64)];
        let error = barrier(&mut mock, failed, &mut ledger).unwrap_err();
        assert!(error.to_string().contains("codec/payload_bytes mismatch"));
        assert_eq!(ledger.total_messages(), 0);
        barrier(&mut mock, vec![outgoing(3, 3, 8, 7u64)], &mut ledger).unwrap();
        assert_eq!(ledger.messages_per_edge(), &[0, 0, 0, 1, 0, 0, 0, 0]);
    }

    /// A barrier that fails because a corrupted frame no longer decodes
    /// charges nothing either, the corrupted send included.
    #[test]
    fn a_barrier_that_fails_to_decode_charges_nothing() {
        let mut mock =
            MockTransport::new().with_disturbance(Disturbance::CorruptEveryNth { nth: 2 });
        let mut ledger = MessageLedger::new(8);
        let failed = vec![outgoing(1, 1, 1, Even(2)), outgoing(2, 2, 1, Even(4))];
        let error = barrier(&mut mock, failed, &mut ledger).unwrap_err();
        assert!(error.to_string().contains("failed to decode"));
        assert_eq!(mock.frames_corrupted(), 1);
        assert_eq!(ledger.total_messages(), 0);
        barrier(&mut mock, vec![outgoing(3, 3, 1, Even(6))], &mut ledger).unwrap();
        assert_eq!(ledger.messages_per_edge(), &[0, 0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(ledger.bytes_per_edge(), &[0, 0, 0, 1, 0, 0, 0, 0]);
    }
}
