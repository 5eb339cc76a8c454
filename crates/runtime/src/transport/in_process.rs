//! The default backend: the zero-allocation in-process message plane.
//!
//! Payloads move by value from outbox to mailbox (never serialized, never
//! cloned), and all exchange buffers are allocated once and reused. Every
//! delivery path first counts each receiver's incoming messages, then
//! clears its mailbox — which the programs have already read — and
//! `reserve_exact`s it to that count, so a mailbox is allocated once, in
//! node order, at its exact size. The parallel path is the
//! receiver-chunked bucket exchange described in `docs/PERF.md` §2; both
//! of its steps hand their chunks to the engine's `claim_each` workers,
//! the calling thread among them.

use super::{BarrierOutcome, RoundBarrier, Transport};
use crate::engine::claim_each;
use crate::error::RuntimeResult;
use crate::metrics::EdgeTally;
use crate::node::{Envelope, Outgoing};
use crate::trace::{Trace, TraceEvent};
use std::fmt;

/// Upper bound on dispatch chunks *per worker*: the chunk grid is
/// coarsened until at most this many chunks per worker remain, so the
/// chunk×chunk bucket matrix stays `O((16 · shards)²)` `Vec` headers
/// however large the graph — while a 16-way-finer grid than one chunk per
/// shard already caps any single hub chunk at ~1/16th of a worker's round.
const DISPATCH_CHUNKS_PER_WORKER: usize = 16;

/// The in-process delivery backend (the default `Network` transport).
///
/// Serial delivery when single-sharded or traced, the receiver-chunked
/// parallel bucket exchange otherwise; a silent barrier only clears the
/// plane. Every buffer is reused across rounds, so steady-state rounds
/// allocate nothing.
pub struct InProcessTransport<M> {
    /// Bucket exchange of the parallel barrier, row-major:
    /// `buckets[s * cols + r]` holds the messages nodes of sender chunk `s`
    /// sent to receivers of chunk `r`, in canonical (node, send) order.
    /// Empty until the first parallel dispatch; reused afterwards.
    buckets: Vec<Vec<Outgoing<M>>>,
    /// Transposed view of `buckets` during delivery (column-major), so each
    /// receiver chunk's worker can take a contiguous `&mut` slice of its
    /// column. Only `Vec` headers move between the two layouts.
    bucket_scratch: Vec<Vec<Outgoing<M>>>,
    /// Per-receiver message counts of the barrier being delivered, each
    /// taken back to zero as its mailbox is sized. Sized at the first
    /// barrier with sends; kept across barriers.
    incoming: Vec<usize>,
    /// The barrier's per-edge totals, charged to the ledger when it closes.
    /// Sized at the first barrier with sends; drained, not freed, at every
    /// barrier.
    tally: EdgeTally,
}

impl<M> fmt::Debug for InProcessTransport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcessTransport")
            .field("buckets", &self.buckets.len())
            .finish_non_exhaustive()
    }
}

impl<M> Default for InProcessTransport<M> {
    fn default() -> Self {
        InProcessTransport::new()
    }
}

/// Clears each mailbox and reserves exactly its incoming count, resetting
/// the count to zero. A mailbox whose capacity already suffices is left as
/// it is, so steady-state rounds allocate nothing.
fn size_mailboxes<M>(mailboxes: &mut [Vec<Envelope<M>>], incoming: &mut [usize]) {
    for (mailbox, count) in mailboxes.iter_mut().zip(incoming) {
        mailbox.clear();
        mailbox.reserve_exact(std::mem::take(count));
    }
}

impl<M> InProcessTransport<M> {
    /// Creates the backend (no buffers are allocated until the first
    /// barrier with sends).
    pub fn new() -> Self {
        InProcessTransport {
            buckets: Vec::new(),
            bucket_scratch: Vec::new(),
            incoming: Vec::new(),
            tally: EdgeTally::default(),
        }
    }

    /// Serial delivery in canonical (sender-major) order; the only path
    /// that records trace events (when given a trace), because they must
    /// appear in that order. Outboxes are drained, so payloads move without
    /// cloning.
    fn deliver_serial(
        &mut self,
        round: u32,
        outboxes: &mut [Vec<Outgoing<M>>],
        mailboxes: &mut [Vec<Envelope<M>>],
        mut trace: Option<&mut Trace>,
    ) {
        for outgoing in outboxes.iter().flatten() {
            self.incoming[outgoing.receiver.index()] += 1;
        }
        size_mailboxes(mailboxes, &mut self.incoming);
        for outbox in outboxes.iter_mut() {
            for outgoing in outbox.drain(..) {
                self.tally.add(outgoing.edge.index(), outgoing.bytes);
                if let Some(trace) = trace.as_deref_mut() {
                    trace.record(TraceEvent {
                        round,
                        from: outgoing.sender,
                        to: outgoing.receiver,
                        edge: outgoing.edge,
                    });
                }
                mailboxes[outgoing.receiver.index()].push(Envelope {
                    edge: outgoing.edge,
                    from: outgoing.sender,
                    payload: outgoing.payload,
                });
            }
        }
    }
}

impl<M: Send + Sync> InProcessTransport<M> {
    /// Receiver-chunked parallel delivery, as a two-step bucket exchange
    /// over a chunk grid, with both steps claiming chunks through
    /// `claim_each` — so a hub chunk's heavy column stalls one worker for
    /// one chunk, not one shard for the whole barrier.
    ///
    /// * The node range is split into `cols` chunks of `chunk` nodes: the
    ///   given `chunk_size`, coarsened until at most
    ///   [`DISPATCH_CHUNKS_PER_WORKER`] chunks per worker remain (the
    ///   bucket matrix is `cols²` and must stay cheap to transpose). A
    ///   `chunk_size` of `⌈n/shards⌉` gives one chunk per shard.
    /// * *Route* — a worker claims a sender chunk and drains its outboxes
    ///   into that chunk's bucket row, keyed by receiver chunk. Each bucket
    ///   is written by exactly one worker, in canonical (node, send) order.
    /// * *Deliver* — a worker claims a receiver chunk, counts its bucket
    ///   column per receiver and sizes the chunk's mailboxes, then drains
    ///   the column in ascending sender-chunk order, filling each mailbox in
    ///   exactly the serial order. The chunk doubles as the cache block:
    ///   until its column is dry a worker touches only `chunk` consecutive
    ///   mailboxes, so receiver-side writes stay inside an L2-sized window
    ///   instead of striding the whole mailbox array.
    ///
    /// The workers add every message to the shared tally (sums —
    /// order-independent), so the charged ledger is bit-identical to the
    /// serial one whichever worker claimed what. Total memory traffic is
    /// `O(messages)` regardless of the shard count.
    fn deliver_parallel(
        &mut self,
        shards: usize,
        chunk_size: usize,
        outboxes: &mut [Vec<Outgoing<M>>],
        mailboxes: &mut [Vec<Envelope<M>>],
    ) {
        let node_count = mailboxes.len();
        let chunk = chunk_size
            .max(node_count.div_ceil(shards * DISPATCH_CHUNKS_PER_WORKER))
            .max(1);
        let cols = node_count.div_ceil(chunk);
        if self.buckets.len() != cols * cols {
            self.buckets.clear();
            self.buckets.resize_with(cols * cols, Vec::new);
            self.bucket_scratch.clear();
            self.bucket_scratch.resize_with(cols * cols, Vec::new);
        }

        // Route: each sender chunk drains into its own bucket row.
        let route_chunks: Vec<_> = outboxes
            .chunks_mut(chunk)
            .zip(self.buckets.chunks_mut(cols))
            .collect();
        claim_each(shards, route_chunks, |_: &mut (), (outboxes, row)| {
            for outbox in outboxes {
                for outgoing in outbox.drain(..) {
                    row[outgoing.receiver.index() / chunk].push(outgoing);
                }
            }
        });

        // Transpose to column-major (header moves only), on the cols×cols
        // grid.
        for sender in 0..cols {
            for receiver in 0..cols {
                self.bucket_scratch[receiver * cols + sender] =
                    std::mem::take(&mut self.buckets[sender * cols + receiver]);
            }
        }

        // Deliver: each receiver chunk drains its column in ascending
        // sender-chunk order.
        let tally = &self.tally;
        let delivery_chunks: Vec<_> = mailboxes
            .chunks_mut(chunk)
            .zip(self.incoming.chunks_mut(chunk))
            .zip(self.bucket_scratch.chunks_mut(cols))
            .enumerate()
            .collect();
        claim_each(
            shards,
            delivery_chunks,
            |_: &mut (), (slot, ((mailboxes, incoming), column))| {
                let lo = slot * chunk;
                for outgoing in column.iter().flatten() {
                    incoming[outgoing.receiver.index() - lo] += 1;
                }
                size_mailboxes(mailboxes, incoming);
                for bucket in column {
                    for outgoing in bucket.drain(..) {
                        tally.add_shared(outgoing.edge.index(), outgoing.bytes);
                        mailboxes[outgoing.receiver.index() - lo].push(Envelope {
                            edge: outgoing.edge,
                            from: outgoing.sender,
                            payload: outgoing.payload,
                        });
                    }
                }
            },
        );

        // Back to row-major for the next round's route step.
        for sender in 0..cols {
            for receiver in 0..cols {
                self.buckets[sender * cols + receiver] =
                    std::mem::take(&mut self.bucket_scratch[receiver * cols + sender]);
            }
        }
    }
}

impl<M: Send + Sync> Transport<M> for InProcessTransport<M> {
    fn deliver(&mut self, b: RoundBarrier<'_, M>) -> RuntimeResult<BarrierOutcome> {
        if b.local_sent == 0 {
            // Nothing to deliver or charge: the read plane is only cleared,
            // and a send-less barrier (often initialization) allocates
            // nothing.
            for mailbox in b.mailboxes.iter_mut() {
                mailbox.clear();
            }
            return Ok(BarrierOutcome::local(0));
        }
        // Every barrier with sends, because a churn insert can grow the
        // edge range.
        self.tally.fit(b.ledger.edge_slots());
        self.incoming.resize(b.mailboxes.len(), 0);
        if b.shards == 1 || b.traced {
            let trace = b.traced.then_some(b.trace);
            self.deliver_serial(b.round, b.outboxes, b.mailboxes, trace);
        } else {
            self.deliver_parallel(b.shards, b.chunk_size, b.outboxes, b.mailboxes);
        }
        // Every touched edge's round total is complete now: one bulk record
        // per edge, in ascending edge order, reproduces the per-message
        // ledger bit for bit.
        self.tally.charge(b.ledger);
        Ok(BarrierOutcome::local(b.local_sent))
    }
}
