//! The default backend: the zero-allocation in-process message plane.
//!
//! Payloads move by value from the send grid to the mailboxes (never
//! serialized, never cloned), and all exchange buffers are allocated once
//! and reused. Every column of the grid is delivered by one function: it
//! counts each of the column's receivers' incoming messages, clears their
//! mailboxes — which the programs have already read — and `reserve_exact`s
//! each to its count, so a mailbox is allocated once, in node order, at its
//! exact size; then it drains the column's buckets in row order. Sharded
//! and untraced, the grid has up to `COLUMNS_PER_WORKER` columns
//! per worker, which the engine's `claim_each` workers claim one by one,
//! the calling thread among them (`docs/PERF.md` §2); otherwise it has one
//! column, delivered on the calling thread.

use super::{BarrierOutcome, RoundBarrier, Transport};
use crate::engine::{claim_each, NetworkConfig};
use crate::error::RuntimeResult;
use crate::metrics::EdgeTally;
use crate::node::{Envelope, Outgoing};
use crate::trace::{Trace, TraceEvent, TraceMode};
use std::fmt;

/// Upper bound on grid columns *per worker*: the column width is coarsened
/// until at most this many columns per worker remain, so a grid row holds
/// at most `16 · shards` buckets and, with the engine widening columns for
/// tiny execute chunks, the grid stays `O(owned + (16 · shards)²)` `Vec`
/// headers however large the graph — while a 16-way-finer split than one
/// column per shard already caps any single hub column at ~1/16th of a
/// worker's round.
const COLUMNS_PER_WORKER: usize = 16;

/// The in-process delivery backend (the default `Network` transport).
///
/// A one-column grid (single shard or traced) is delivered serially, a
/// wider one column by column on the shard workers; a silent barrier only
/// clears the plane. Every buffer is reused across rounds, so steady-state
/// rounds allocate nothing.
pub struct InProcessTransport<M> {
    /// The grid transposed to column-major during delivery, so each
    /// column's worker can take a contiguous `&mut` slice of its buckets.
    /// Only `Vec` headers move between the two layouts; empty between
    /// barriers.
    columns: Vec<Vec<Outgoing<M>>>,
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
            .field("columns", &self.columns.len())
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
    /// barrier with sends).
    pub fn new() -> Self {
        InProcessTransport {
            columns: Vec::new(),
            incoming: Vec::new(),
            tally: EdgeTally::default(),
        }
    }
}

/// Delivers one grid column to its receivers, the mailboxes of nodes
/// `lo .. lo + mailboxes.len()`: counts each receiver's messages, clears
/// its mailbox and reserves exactly that count (a mailbox whose capacity
/// already suffices is left as it is, so steady-state rounds allocate
/// nothing), then drains the buckets in row order — ascending sender, per
/// sender in send order — handing every message's edge slot and payload to
/// `tally`, which sizes and adds it. Records trace events when given a trace, which only a
/// one-column grid does, because they must appear in canonical send order.
fn deliver_column<M>(
    round: u32,
    column: &mut [Vec<Outgoing<M>>],
    lo: usize,
    mailboxes: &mut [Vec<Envelope<M>>],
    incoming: &mut [usize],
    mut tally: impl FnMut(usize, &M),
    mut trace: Option<&mut Trace>,
) {
    for outgoing in column.iter().flatten() {
        incoming[outgoing.receiver.index() - lo] += 1;
    }
    for (mailbox, count) in mailboxes.iter_mut().zip(incoming) {
        mailbox.clear();
        mailbox.reserve_exact(std::mem::take(count));
    }
    for bucket in column {
        for outgoing in bucket.drain(..) {
            tally(outgoing.edge.index(), &outgoing.payload);
            if let Some(trace) = trace.as_deref_mut() {
                trace.record(TraceEvent {
                    round,
                    from: outgoing.sender,
                    to: outgoing.receiver,
                    edge: outgoing.edge,
                });
            }
            mailboxes[outgoing.receiver.index() - lo].push(Envelope {
                edge: outgoing.edge,
                from: outgoing.sender,
                payload: outgoing.payload,
            });
        }
    }
}

/// Swaps each bucket of the row-major `grid`, `cols` wide, with its
/// column-major slot in `columns`. Applied twice, it restores both.
fn swap_transposed<T>(grid: &mut [T], columns: &mut [T], cols: usize) {
    let rows = grid.len() / cols;
    for row in 0..rows {
        for col in 0..cols {
            std::mem::swap(&mut grid[row * cols + col], &mut columns[col * rows + row]);
        }
    }
}

impl<M: Send + Sync> Transport<M> for InProcessTransport<M> {
    /// Single shard or traced: one column. Otherwise the configured chunk
    /// size, coarsened until at most 16 columns per worker remain; a
    /// `chunk_size` of `⌈n/shards⌉` gives one column per shard.
    fn column_width(&self, node_count: usize, config: &NetworkConfig) -> usize {
        if config.shards == 1 || config.trace_mode == TraceMode::Full {
            node_count
        } else {
            config
                .chunk_size
                .max(node_count.div_ceil(config.shards * COLUMNS_PER_WORKER))
        }
    }

    /// Delivers the grid column by column through one function. A
    /// wider grid is transposed to column-major (header moves only), its
    /// columns are claimed by the shard workers through `claim_each` — so
    /// a hub column's heavy load stalls one worker for one column, not one
    /// shard for the whole barrier — and it is transposed back, every
    /// bucket keeping its capacity. Each column fills its mailboxes in
    /// exactly the serial order, and the column doubles as the cache block:
    /// until it is dry a worker touches only `column_width` consecutive
    /// mailboxes. The workers size every payload
    /// ([`RoundBarrier::payload_bytes`]) and add it to the shared tally
    /// (atomic sums — order-independent), so the charged ledger is bit-identical to
    /// the serial one whichever worker claimed what. A one-column grid
    /// (one shard, tracing, or `n` within the column width) is delivered on
    /// the calling thread, which adds through `&mut` and pays no atomics.
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
        let width = b.column_width;
        let payload_bytes = b.payload_bytes;
        let cols = b.mailboxes.len().div_ceil(width);
        if cols == 1 {
            let trace = b.traced.then_some(b.trace);
            deliver_column(
                b.round,
                b.grid,
                0,
                b.mailboxes,
                &mut self.incoming,
                |slot, payload| self.tally.add(slot, payload_bytes(payload)),
                trace,
            );
        } else {
            let rows = b.grid.len() / cols;
            self.columns.resize_with(b.grid.len(), Vec::new);
            swap_transposed(b.grid, &mut self.columns, cols);
            let round = b.round;
            let tally = &self.tally;
            let claims: Vec<_> = b
                .mailboxes
                .chunks_mut(width)
                .zip(self.incoming.chunks_mut(width))
                .zip(self.columns.chunks_mut(rows))
                .enumerate()
                .collect();
            claim_each(
                vec![(); b.shards],
                claims,
                |_: &mut (), (col, ((mailboxes, incoming), column))| {
                    let add = |slot, payload: &M| tally.add_shared(slot, payload_bytes(payload));
                    deliver_column(round, column, col * width, mailboxes, incoming, add, None);
                },
            );
            swap_transposed(b.grid, &mut self.columns, cols);
        }
        // Every touched edge's round total is complete now: one bulk record
        // per edge, in ascending edge order, reproduces the per-message
        // ledger bit for bit.
        self.tally.charge(b.ledger);
        Ok(BarrierOutcome::local(b.local_sent))
    }
}
