//! A loopback test backend that pushes every payload through its wire
//! encoding.
//!
//! The mock delivers serially in canonical order like the in-process
//! backend, but every payload makes a round trip through its [`WireCodec`]
//! — so a mock execution is bit-identical to an in-process one **if and
//! only if** the codec obeys its laws, which is exactly what the
//! cross-backend tests exploit. The [`FaultPlan`](crate::fault::FaultPlan)
//! message faults are resolved (and accounted) before any transport sees
//! the messages; `tests/fault_matrix.rs` proves the fault plane is
//! transport-independent by running the same plans over this backend.
//!
//! Like every backend, the mock charges the ledger only when a barrier
//! succeeds: a barrier that fails (a codec/`payload_bytes` mismatch, a frame
//! that does not decode) charges none of its sends.

use super::codec::WireCodec;
use super::{BarrierOutcome, RoundBarrier, Transport};
use crate::error::{RuntimeError, RuntimeResult};
use crate::metrics::EdgeTally;
use crate::node::Envelope;
use crate::trace::TraceEvent;

/// The loopback mock backend (see the module docs above).
#[derive(Debug, Default)]
pub struct MockTransport {
    scratch: Vec<u8>,
    /// This barrier's sends per edge, charged to the ledger only once the
    /// barrier has succeeded.
    tally: EdgeTally,
}

impl MockTransport {
    /// A mock that encodes and decodes every payload.
    pub fn new() -> Self {
        MockTransport::default()
    }
}

impl<M: WireCodec + Send + Sync + Clone + std::fmt::Debug> Transport<M> for MockTransport {
    fn deliver(&mut self, barrier: RoundBarrier<'_, M>) -> RuntimeResult<BarrierOutcome> {
        let RoundBarrier {
            round,
            traced,
            local_sent,
            payload_bytes,
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
        // The mock states one grid column: its buckets, in row order, are
        // the canonical send order.
        for bucket in grid.iter_mut() {
            for outgoing in bucket.drain(..) {
                let bytes = payload_bytes(&outgoing.payload);
                self.scratch.clear();
                outgoing.payload.encode(&mut self.scratch);
                if self.scratch.len() as u64 != bytes {
                    return Err(RuntimeError::transport(format!(
                        "mock: codec/payload_bytes mismatch on edge {}: encoded {} bytes, \
                         payload_bytes charges {bytes} (see docs/TRANSPORT.md)",
                        outgoing.edge,
                        self.scratch.len(),
                    )));
                }
                // Sender-side accounting, identical to the in-process path.
                self.tally.add(outgoing.edge.index(), bytes);
                if traced {
                    trace.record(TraceEvent {
                        round,
                        from: outgoing.sender,
                        to: outgoing.receiver,
                        edge: outgoing.edge,
                    });
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
    use freelunch_graph::{EdgeId, NodeId};

    /// A one-byte payload whose codec rejects odd bytes, so an odd payload
    /// encodes to a frame that fails to decode.
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

    /// One message from node 0 on `edge` to `receiver`.
    fn outgoing<M>(edge: u64, receiver: u32, payload: M) -> Outgoing<M> {
        Outgoing {
            edge: EdgeId::new(edge),
            sender: NodeId::new(0),
            receiver: NodeId::new(receiver),
            payload,
        }
    }

    /// Runs one barrier of a 4-node, 8-edge-slot execution directly on
    /// `mock`, with `sends` as its one-bucket send grid, sized by
    /// `payload_bytes`.
    fn barrier<M: WireCodec + Send + Sync + Clone + std::fmt::Debug>(
        mock: &mut MockTransport,
        sends: Vec<Outgoing<M>>,
        payload_bytes: fn(&M) -> u64,
        ledger: &mut MessageLedger,
    ) -> RuntimeResult<BarrierOutcome> {
        let local_sent = sends.len() as u64;
        let mut mailboxes: Vec<Vec<Envelope<M>>> = (0..4).map(|_| Vec::new()).collect();
        mock.deliver(RoundBarrier {
            round: 0,
            shards: 1,
            traced: false,
            local_sent,
            payload_bytes,
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
        // A u64 encodes to 8 bytes; this sizing charges the payload 9 only
        // 3, so edge 1 passes the codec check and edge 2 fails it.
        let sizing: fn(&u64) -> u64 = |&payload| if payload == 9 { 3 } else { 8 };
        let failed = vec![outgoing(1, 1, 7u64), outgoing(2, 2, 9u64)];
        let error = barrier(&mut mock, failed, sizing, &mut ledger).unwrap_err();
        assert!(error.to_string().contains("codec/payload_bytes mismatch"));
        assert_eq!(ledger.total_messages(), 0);
        barrier(&mut mock, vec![outgoing(3, 3, 7u64)], sizing, &mut ledger).unwrap();
        assert_eq!(ledger.messages_per_edge(), &[0, 0, 0, 1, 0, 0, 0, 0]);
    }

    /// A barrier that fails because a frame does not decode charges
    /// nothing either, the frame that decoded before it included.
    #[test]
    fn a_barrier_that_fails_to_decode_charges_nothing() {
        let mut mock = MockTransport::new();
        let mut ledger = MessageLedger::new(8);
        let one_byte: fn(&Even) -> u64 = |_| 1;
        let failed = vec![outgoing(1, 1, Even(2)), outgoing(2, 2, Even(3))];
        let error = barrier(&mut mock, failed, one_byte, &mut ledger).unwrap_err();
        assert!(
            error.to_string().contains("edge e2 failed to decode"),
            "{error}"
        );
        assert_eq!(ledger.total_messages(), 0);
        barrier(
            &mut mock,
            vec![outgoing(3, 3, Even(6))],
            one_byte,
            &mut ledger,
        )
        .unwrap();
        assert_eq!(ledger.messages_per_edge(), &[0, 0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(ledger.bytes_per_edge(), &[0, 0, 0, 1, 0, 0, 0, 0]);
    }
}
