//! The default backend: the zero-allocation in-process message plane.
//!
//! This is the double-buffered fast path the engine has always used, moved
//! byte-for-byte behind the [`Transport`] trait: payloads move by value
//! from outbox to mailbox (never serialized, never cloned), all exchange
//! buffers are allocated once and reused, and the parallel path is the
//! receiver-sharded bucket exchange described in `docs/PERF.md` §2.

use super::{BarrierOutcome, RoundBarrier, Transport};
use crate::engine::Scheduling;
use crate::error::RuntimeResult;
use crate::metrics::EdgeTally;
use crate::node::{Envelope, Outgoing};
use crate::trace::{Trace, TraceEvent};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on dispatch chunks *per worker* under
/// [`Scheduling::Dynamic`]: the chunk grid is coarsened until at most this
/// many chunks per worker remain, so the chunk×chunk bucket matrix stays
/// `O((16 · shards)²)` `Vec` headers however large the graph — while a
/// 16-way-finer grid than the static partition already caps any single
/// hub chunk at ~1/16th of a worker's round.
const DISPATCH_CHUNKS_PER_WORKER: usize = 16;

/// One claimable unit of the dynamic route pass: a sender chunk's outboxes
/// paired with its row of the chunk×chunk bucket matrix. Slots are `take`n
/// exactly once off the claim cursor.
type RouteQueue<'a, M> =
    Vec<Mutex<Option<(&'a mut [Vec<Outgoing<M>>], &'a mut [Vec<Outgoing<M>>])>>>;

/// One claimable unit of the dynamic delivery pass: `(first receiver index,
/// receiver-chunk mailboxes, that chunk's bucket column)`.
type DeliveryQueue<'a, M> = Vec<
    Mutex<
        Option<(
            usize,
            &'a mut [Vec<Envelope<M>>],
            &'a mut [Vec<Outgoing<M>>],
        )>,
    >,
>;

/// The in-process delivery backend (the default `Network` transport).
///
/// Serial delivery when single-sharded, traced, or silent; the
/// receiver-sharded parallel bucket exchange otherwise. Every buffer is
/// reused across rounds, so steady-state rounds allocate nothing.
pub struct InProcessTransport<M> {
    /// Bucket exchange of the parallel barrier, row-major:
    /// `buckets[s * cols + r]` holds the messages nodes of sender chunk `s`
    /// sent to receivers of chunk `r`, in canonical (node, send) order. The
    /// grid is one chunk per shard under [`Scheduling::Static`] and the
    /// finer work-stealing chunk grid under [`Scheduling::Dynamic`]. Empty
    /// until the first parallel dispatch; reused afterwards.
    buckets: Vec<Vec<Outgoing<M>>>,
    /// Transposed view of `buckets` during delivery (column-major), so each
    /// receiver shard's worker can take a contiguous `&mut` slice of its
    /// column. Only `Vec` headers move between the two layouts.
    bucket_scratch: Vec<Vec<Outgoing<M>>>,
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

impl<M> InProcessTransport<M> {
    /// Creates the backend (no buffers are allocated until the first
    /// parallel dispatch).
    pub fn new() -> Self {
        InProcessTransport {
            buckets: Vec::new(),
            bucket_scratch: Vec::new(),
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
        for mailbox in mailboxes.iter_mut() {
            mailbox.clear();
        }
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
    /// Receiver-sharded parallel delivery, as a two-step bucket exchange:
    ///
    /// 1. *Route* — the execute-phase node shards drain their outboxes into
    ///    per-(sender shard × receiver shard) buckets, so every message is
    ///    copied once and each receiver shard's messages end up in exactly
    ///    `shards` buckets, already in canonical (node, send) order.
    /// 2. *Deliver* — worker `k` owns the contiguous receiver range of
    ///    shard `k`; it drains its bucket column in ascending sender-shard
    ///    order (payloads move, never clone), filling each mailbox in
    ///    exactly the order the serial path produces.
    ///
    /// The delivery workers add every message to the shared tally (sums —
    /// order-independent). Unlike a naive scan-all barrier (every worker
    /// reading every outbox), total memory traffic is `O(messages)`
    /// regardless of the shard count.
    fn deliver_parallel(
        &mut self,
        shards: usize,
        outboxes: &mut [Vec<Outgoing<M>>],
        mailboxes: &mut [Vec<Envelope<M>>],
    ) {
        if self.buckets.len() != shards * shards {
            self.buckets.clear();
            self.buckets.resize_with(shards * shards, Vec::new);
            self.bucket_scratch.clear();
            self.bucket_scratch.resize_with(shards * shards, Vec::new);
        }
        let chunk = mailboxes.len().div_ceil(shards);

        // Route: node-sharded workers bucket their outboxes by receiver
        // shard. Buckets are empty here (drained by the previous delivery).
        std::thread::scope(|scope| {
            for (outboxes, row) in outboxes
                .chunks_mut(chunk)
                .zip(self.buckets.chunks_mut(shards))
            {
                scope.spawn(move || {
                    for outbox in outboxes {
                        for outgoing in outbox.drain(..) {
                            row[outgoing.receiver.index() / chunk].push(outgoing);
                        }
                    }
                });
            }
        });

        // Transpose to column-major so each delivery worker can borrow its
        // receiver shard's column as one contiguous slice (header moves
        // only, no message is copied).
        for sender_shard in 0..shards {
            for receiver_shard in 0..shards {
                self.bucket_scratch[receiver_shard * shards + sender_shard] =
                    std::mem::take(&mut self.buckets[sender_shard * shards + receiver_shard]);
            }
        }

        // Deliver: receiver-sharded workers drain their columns.
        let tally = &self.tally;
        std::thread::scope(|scope| {
            for ((shard, mailboxes), column) in mailboxes
                .chunks_mut(chunk)
                .enumerate()
                .zip(self.bucket_scratch.chunks_mut(shards))
            {
                let lo = shard * chunk;
                scope.spawn(move || {
                    for mailbox in mailboxes.iter_mut() {
                        mailbox.clear();
                    }
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
                });
            }
        });

        // Return the (empty, capacity-bearing) buckets to row-major for the
        // next round's route step.
        for sender_shard in 0..shards {
            for receiver_shard in 0..shards {
                self.buckets[sender_shard * shards + receiver_shard] = std::mem::take(
                    &mut self.bucket_scratch[receiver_shard * shards + sender_shard],
                );
            }
        }
    }

    /// The work-stealing variant of the bucket exchange
    /// ([`Scheduling::Dynamic`]): the same two-step route/deliver shape,
    /// but over a chunk grid *finer than the worker count*, with both steps
    /// claiming chunks off shared atomic cursors — so a hub chunk's heavy
    /// column stalls one worker for one chunk, not one shard for the whole
    /// barrier.
    ///
    /// * The node range is split into `cols` chunks of `chunk` nodes: the
    ///   configured [`RoundBarrier::chunk_size`], coarsened until at most
    ///   [`DISPATCH_CHUNKS_PER_WORKER`] chunks per worker remain (the
    ///   bucket matrix is `cols²` and must stay cheap to transpose).
    /// * *Route* — a worker claims a sender chunk and drains its outboxes
    ///   into that chunk's bucket row, keyed by receiver chunk. Each bucket
    ///   is written by exactly one worker, in canonical (node, send) order.
    /// * *Deliver* — a worker claims a receiver chunk and drains its bucket
    ///   column in ascending sender-chunk order, filling each mailbox in
    ///   exactly the serial order. The chunk doubles as the cache block:
    ///   until its column is dry a worker touches only `chunk` consecutive
    ///   mailboxes, so receiver-side writes stay inside an L2-sized window
    ///   instead of striding the whole mailbox array.
    ///
    /// The workers add to the same shared tally as the static path, so the
    /// charged ledger is bit-identical to the serial one whichever worker
    /// claimed what.
    fn deliver_parallel_dynamic(
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
        let workers = shards.min(cols);

        // Route: claim sender chunks until the cursor runs dry.
        let route_chunks: RouteQueue<'_, M> = outboxes
            .chunks_mut(chunk)
            .zip(self.buckets.chunks_mut(cols))
            .map(|pair| Mutex::new(Some(pair)))
            .collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let cursor = &cursor;
                let route_chunks = &route_chunks;
                scope.spawn(move || loop {
                    let claimed = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = route_chunks.get(claimed) else {
                        break;
                    };
                    let (outboxes, row) = slot
                        .lock()
                        .expect("a chunk claim cannot be poisoned")
                        .take()
                        .expect("the cursor hands each chunk to exactly one worker");
                    for outbox in outboxes {
                        for outgoing in outbox.drain(..) {
                            row[outgoing.receiver.index() / chunk].push(outgoing);
                        }
                    }
                });
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

        // Deliver: claim receiver chunks; each column drains in ascending
        // sender-chunk order.
        let tally = &self.tally;
        let delivery_chunks: DeliveryQueue<'_, M> = mailboxes
            .chunks_mut(chunk)
            .zip(self.bucket_scratch.chunks_mut(cols))
            .enumerate()
            .map(|(slot, (mailboxes, column))| Mutex::new(Some((slot * chunk, mailboxes, column))))
            .collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let cursor = &cursor;
                let delivery_chunks = &delivery_chunks;
                scope.spawn(move || loop {
                    let claimed = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = delivery_chunks.get(claimed) else {
                        break;
                    };
                    let (lo, mailboxes, column) = slot
                        .lock()
                        .expect("a chunk claim cannot be poisoned")
                        .take()
                        .expect("the cursor hands each chunk to exactly one worker");
                    for mailbox in mailboxes.iter_mut() {
                        mailbox.clear();
                    }
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
                });
            }
        });

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
        if b.local_sent > 0 {
            // Every barrier with sends, because a churn insert can grow the
            // edge range; a send-less one (often initialization) allocates
            // nothing.
            self.tally.fit(b.ledger.edge_slots());
        }
        if b.shards == 1 || b.traced || b.local_sent == 0 {
            let trace = b.traced.then_some(b.trace);
            self.deliver_serial(b.round, b.outboxes, b.mailboxes, trace);
        } else if b.sched == Scheduling::Static {
            self.deliver_parallel(b.shards, b.outboxes, b.mailboxes);
        } else {
            self.deliver_parallel_dynamic(b.shards, b.chunk_size, b.outboxes, b.mailboxes);
        }
        // Every touched edge's round total is complete now: one bulk record
        // per edge, in ascending edge order, reproduces the per-message
        // ledger bit for bit.
        self.tally.charge(b.ledger);
        Ok(BarrierOutcome::local(b.local_sent))
    }
}
