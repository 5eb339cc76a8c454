//! Cost accounting: the round and message complexities that the paper's
//! theorems bound.
//!
//! Every execution path in the workspace — the real synchronous runtime, the
//! Sampler cost emulation of Section 5, and every baseline — reports its cost
//! through the same [`CostReport`] type so experiments compare like with
//! like.

use freelunch_graph::EdgeId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign};
use std::sync::atomic::{AtomicU64, Ordering};

/// Summary of the cost of one distributed execution (or one phase of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostReport {
    /// Number of synchronous communication rounds used.
    pub rounds: u64,
    /// Total number of messages sent (each message over one edge in one
    /// direction counts once, as in the paper's message-complexity measure).
    pub messages: u64,
}

impl CostReport {
    /// A zero-cost report.
    pub const fn zero() -> Self {
        CostReport {
            rounds: 0,
            messages: 0,
        }
    }

    /// Creates a report from explicit counts.
    pub const fn new(rounds: u64, messages: u64) -> Self {
        CostReport { rounds, messages }
    }

    /// Sequential composition: rounds add, messages add.
    pub(crate) fn then(self, later: CostReport) -> CostReport {
        CostReport {
            rounds: self.rounds + later.rounds,
            messages: self.messages + later.messages,
        }
    }

    /// Messages per round (0 if no rounds were used).
    pub fn messages_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.messages as f64 / self.rounds as f64
        }
    }
}

impl Add for CostReport {
    type Output = CostReport;
    fn add(self, rhs: CostReport) -> CostReport {
        self.then(rhs)
    }
}

impl AddAssign for CostReport {
    fn add_assign(&mut self, rhs: CostReport) {
        *self = self.then(rhs);
    }
}

/// Detailed per-round and per-node accounting produced by the synchronous
/// runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionMetrics {
    /// Messages sent in each executed round (`messages_per_round[r]` is the
    /// count of round `r`, starting at round 1; index 0 holds messages sent
    /// during initialization).
    pub messages_per_round: Vec<u64>,
    /// Messages sent by each node over the whole execution.
    pub messages_per_node: Vec<u64>,
}

impl ExecutionMetrics {
    /// Creates empty metrics for a network of `node_count` nodes.
    pub(crate) fn new(node_count: usize) -> Self {
        ExecutionMetrics {
            messages_per_round: vec![0],
            messages_per_node: vec![0; node_count],
        }
    }

    /// Records that `node` sent `count` messages during the current round
    /// slot — the bulk form the engine uses at the round barrier, with the
    /// node's send count from the execute phase.
    pub(crate) fn record_sends(&mut self, node_index: usize, count: u64) {
        *self
            .messages_per_round
            .last_mut()
            .expect("at least one round slot exists") += count;
        self.messages_per_node[node_index] += count;
    }

    /// Opens a new round slot.
    pub(crate) fn start_round(&mut self) {
        self.messages_per_round.push(0);
    }

    /// Number of rounds executed so far (the initialization slot does not
    /// count as a round).
    pub fn rounds(&self) -> u64 {
        (self.messages_per_round.len() - 1) as u64
    }

    /// Total messages sent so far.
    pub fn total_messages(&self) -> u64 {
        self.messages_per_round.iter().sum()
    }

    /// Collapses the detailed metrics into a [`CostReport`].
    pub(crate) fn summary(&self) -> CostReport {
        CostReport {
            rounds: self.rounds(),
            messages: self.total_messages(),
        }
    }
}

/// Number of dense per-edge slots needed to index every edge of `edges` by
/// [`EdgeId::index`] (the largest index plus one).
///
/// Edge IDs are dense (`0..m`) for every generated graph, but IDs inserted
/// via `add_edge_with_id` — e.g. the crossing edges surviving cluster
/// contraction — may be sparse, so per-edge tables are sized by the largest
/// index actually present rather than by the edge count. The count
/// saturates at `usize::MAX` (edge ID `u64::MAX`), a size no table can
/// take; `Network` rejects any graph needing more than `u32::MAX` slots.
pub fn edge_slot_count(edges: impl IntoIterator<Item = EdgeId>) -> usize {
    edges
        .into_iter()
        .map(|e| e.index().saturating_add(1))
        .max()
        .unwrap_or(0)
}

/// Why a message injected with a fault was dropped (the attribution recorded
/// in the [`MessageLedger`]'s fault-accounting column; see `docs/METRICS.md`
/// §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum FaultCause {
    /// Dropped by the per-message drop probability of the fault plan.
    Random,
    /// Dropped because its edge was cut.
    LinkCut,
    /// Dropped because its receiver had crashed.
    Crash,
}

/// Aggregate fault-accounting totals of a [`MessageLedger`] (all zero for a
/// failure-free execution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultTotals {
    /// Messages dropped, over all causes.
    pub dropped: u64,
    /// Messages duplicated (each duplicate also appears in the ordinary
    /// per-edge / per-round counts, because it really crossed the edge).
    pub duplicated: u64,
    /// Drops attributed to the random per-message drop probability.
    pub dropped_random: u64,
    /// Drops attributed to link cuts.
    pub dropped_link_cut: u64,
    /// Drops attributed to receiver crashes.
    pub dropped_crash: u64,
}

/// A frozen per-round congestion summary of a [`MessageLedger`]: the
/// congestion column (per-round maximum edge load) pulled out into a
/// self-contained, serializable value so congestion-aware routing
/// experiments can compare executions without carrying whole ledgers.
///
/// Produced by [`MessageLedger::congestion_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CongestionSnapshot {
    /// The maximum number of messages carried by any single edge in each
    /// round slot (slot 0 = initialization), copied from the ledger's
    /// congestion column.
    pub per_round_max: Vec<u64>,
    /// The worst per-round edge congestion over the whole execution.
    pub peak: u64,
    /// The edge carrying the most messages over the whole execution, as
    /// `(edge_index, message_count)`; `None` if nothing was recorded.
    pub busiest_edge: Option<(usize, u64)>,
    /// Total messages recorded by the ledger the snapshot was taken from
    /// (so "congestion flattened, traffic unchanged" is checkable from the
    /// snapshot alone).
    pub total_messages: u64,
}

impl CongestionSnapshot {
    /// Number of round slots with per-round congestion strictly above
    /// `threshold` — the congestion *tail* that congestion-aware routing
    /// tries to flatten.
    pub fn rounds_above(&self, threshold: u64) -> usize {
        self.per_round_max
            .iter()
            .filter(|&&c| c > threshold)
            .count()
    }

    /// Returns `true` if this snapshot's congestion never exceeds `other`'s
    /// in any round slot (missing slots count as zero). This is the pointwise
    /// guarantee congestion-aware routing makes against canonical routing.
    pub fn never_exceeds(&self, other: &CongestionSnapshot) -> bool {
        let slots = self.per_round_max.len().max(other.per_round_max.len());
        (0..slots).all(|r| {
            let mine = self.per_round_max.get(r).copied().unwrap_or(0);
            let theirs = other.per_round_max.get(r).copied().unwrap_or(0);
            mine <= theirs
        })
    }
}

/// The message-complexity ledger: per-edge and per-round message counts plus
/// payload byte sizing (a CONGEST-style bandwidth view of the execution).
///
/// This is the **single meter** every execution path in the workspace
/// reports through — the synchronous [`Network`](crate::engine::Network)
/// engine (sequential and sharded), the emulated flooding of
/// `freelunch-core`'s `t`-local broadcast, and the baseline constructions —
/// so baseline-vs-scheme comparisons are always measured the same way. The
/// exact semantics (what counts as a message, byte-sizing rules, round-slot
/// conventions) are specified in `docs/METRICS.md`; that document is the
/// stable contract for the recorded `BENCH_message_ledger.json` data.
///
/// Round slots follow the [`ExecutionMetrics`] convention: slot 0 holds
/// initialization traffic, slot `r ≥ 1` holds the messages *sent* during
/// round `r`. Accumulation is canonical — entries are recorded in ascending
/// node order at the engine's round barrier (or in the deterministic
/// iteration order of the emulated process) — so two ledgers of the same
/// seeded execution are bit-identical regardless of shard count or thread
/// scheduling.
///
/// # Examples
///
/// ```
/// use freelunch_runtime::metrics::MessageLedger;
///
/// let mut ledger = MessageLedger::new(2);
/// ledger.record(0, 8); // initialization: one 8-byte message on edge 0
/// ledger.start_round();
/// ledger.record(0, 8);
/// ledger.record(0, 8);
/// ledger.record(1, 4);
/// assert_eq!(ledger.total_messages(), 4);
/// assert_eq!(ledger.total_bytes(), 28);
/// assert_eq!(ledger.messages_per_edge(), &[3, 1]);
/// assert_eq!(ledger.max_edge_messages_per_round(), &[1, 2]);
/// assert_eq!(ledger.max_congestion(), 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MessageLedger {
    /// Messages carried by each edge over the whole execution, indexed by
    /// [`EdgeId::index`].
    messages_per_edge: Vec<u64>,
    /// Payload bytes carried by each edge over the whole execution.
    bytes_per_edge: Vec<u64>,
    /// Messages sent in each round slot (slot 0 = initialization).
    messages_per_round: Vec<u64>,
    /// Payload bytes sent in each round slot.
    bytes_per_round: Vec<u64>,
    /// Congestion per round slot: the maximum number of messages carried by
    /// any single edge within that slot.
    max_edge_messages_per_round: Vec<u64>,
    /// Fault column: messages dropped by fault injection in each round slot
    /// (all causes). Always all-zero for failure-free executions; the
    /// `serde(default)` keeps ledgers recorded before the column existed
    /// deserializable.
    #[serde(default)]
    dropped_per_round: Vec<u64>,
    /// Fault column: messages duplicated by fault injection in each round
    /// slot.
    #[serde(default)]
    duplicated_per_round: Vec<u64>,
    /// Fault column: total drops attributed to [`FaultCause::Random`].
    #[serde(default)]
    dropped_random: u64,
    /// Fault column: total drops attributed to [`FaultCause::LinkCut`].
    #[serde(default)]
    dropped_link_cut: u64,
    /// Fault column: total drops attributed to [`FaultCause::Crash`].
    #[serde(default)]
    dropped_crash: u64,
    /// Scratch: per-edge counts within the current round slot only. Not part
    /// of the serialized contract.
    #[serde(skip)]
    round_edge_counts: Vec<u64>,
    /// Scratch: one bit per edge slot, set for the edges recorded in the
    /// current round slot, so [`MessageLedger::start_round`] resets
    /// `round_edge_counts` in ascending edge order in `O(slots / 64 +
    /// touched)`. Not part of the serialized contract.
    #[serde(skip)]
    touched: Vec<u64>,
}

impl Default for MessageLedger {
    /// An empty ledger with no per-edge slots — unlike the derived default,
    /// this upholds the "at least one round slot exists" invariant.
    fn default() -> Self {
        MessageLedger::new(0)
    }
}

/// Equality covers exactly the serialized contract (per-edge and per-round
/// counts, bytes, congestion, and the fault-accounting column). The
/// `#[serde(skip)]` scratch is excluded: it only carries the open round
/// slot's congestion state, and a deserialized ledger has none.
impl PartialEq for MessageLedger {
    fn eq(&self, other: &Self) -> bool {
        self.messages_per_edge == other.messages_per_edge
            && self.bytes_per_edge == other.bytes_per_edge
            && self.messages_per_round == other.messages_per_round
            && self.bytes_per_round == other.bytes_per_round
            && self.max_edge_messages_per_round == other.max_edge_messages_per_round
            && self.dropped_per_round == other.dropped_per_round
            && self.duplicated_per_round == other.duplicated_per_round
            && self.dropped_random == other.dropped_random
            && self.dropped_link_cut == other.dropped_link_cut
            && self.dropped_crash == other.dropped_crash
    }
}

impl Eq for MessageLedger {}

impl MessageLedger {
    /// Creates an empty ledger with `edge_slots` per-edge counters (use
    /// [`edge_slot_count`] to size it from an edge set) and the
    /// initialization round slot open.
    pub fn new(edge_slots: usize) -> Self {
        MessageLedger {
            messages_per_edge: vec![0; edge_slots],
            bytes_per_edge: vec![0; edge_slots],
            messages_per_round: vec![0],
            bytes_per_round: vec![0],
            max_edge_messages_per_round: vec![0],
            dropped_per_round: vec![0],
            duplicated_per_round: vec![0],
            dropped_random: 0,
            dropped_link_cut: 0,
            dropped_crash: 0,
            round_edge_counts: vec![0; edge_slots],
            touched: vec![0; edge_slots.div_ceil(64)],
        }
    }

    /// Rebuilds a ledger from its checkpointed serialized-contract columns
    /// (see `docs/RECOVERY.md`). The `#[serde(skip)]` scratch is re-created
    /// zeroed, which is exact at a round boundary: scratch only carries
    /// intra-slot congestion state, and the first thing a resumed engine
    /// does to its ledger is [`MessageLedger::start_round`], which resets
    /// the scratch anyway.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_checkpoint_parts(
        messages_per_edge: Vec<u64>,
        bytes_per_edge: Vec<u64>,
        messages_per_round: Vec<u64>,
        bytes_per_round: Vec<u64>,
        max_edge_messages_per_round: Vec<u64>,
        dropped_per_round: Vec<u64>,
        duplicated_per_round: Vec<u64>,
        dropped_random: u64,
        dropped_link_cut: u64,
        dropped_crash: u64,
    ) -> Self {
        let edge_slots = messages_per_edge.len();
        MessageLedger {
            messages_per_edge,
            bytes_per_edge,
            messages_per_round,
            bytes_per_round,
            max_edge_messages_per_round,
            dropped_per_round,
            duplicated_per_round,
            dropped_random,
            dropped_link_cut,
            dropped_crash,
            round_edge_counts: vec![0; edge_slots],
            touched: vec![0; edge_slots.div_ceil(64)],
        }
    }

    /// Closes the current round slot and opens the next one.
    pub fn start_round(&mut self) {
        let round_edge_counts = &mut self.round_edge_counts;
        drain_bitmap(&mut self.touched, |edge| round_edge_counts[edge] = 0);
        self.messages_per_round.push(0);
        self.bytes_per_round.push(0);
        self.max_edge_messages_per_round.push(0);
        self.dropped_per_round.push(0);
        self.duplicated_per_round.push(0);
    }

    /// Records one message of `payload_bytes` bytes crossing the edge with
    /// dense index `edge_index` in the current round slot.
    ///
    /// # Panics
    ///
    /// Panics if `edge_index` is outside the `edge_slots` the ledger was
    /// created with.
    #[inline]
    pub fn record(&mut self, edge_index: usize, payload_bytes: u64) {
        self.record_bulk(edge_index, 1, payload_bytes);
    }

    /// Records `count` messages totalling `payload_bytes` bytes on the edge
    /// with dense index `edge_index` in the current round slot — the bulk
    /// form every transport's round barrier uses: it tallies the round's
    /// messages per edge and charges each touched edge's round total with
    /// a single call, in ascending edge order. Recording `(e, k, b)` leaves
    /// the ledger in exactly the state `k` single [`MessageLedger::record`]
    /// calls of `b/k` bytes each would (sums and per-round maxima are
    /// order-independent), which is why a sharded and a serial barrier
    /// produce bit-identical ledgers.
    ///
    /// # Panics
    ///
    /// Panics if `edge_index` is outside the `edge_slots` the ledger was
    /// created with.
    #[inline]
    pub(crate) fn record_bulk(&mut self, edge_index: usize, count: u64, payload_bytes: u64) {
        if count == 0 {
            return;
        }
        self.messages_per_edge[edge_index] += count;
        self.bytes_per_edge[edge_index] += payload_bytes;
        *self
            .messages_per_round
            .last_mut()
            .expect("at least one round slot exists") += count;
        *self
            .bytes_per_round
            .last_mut()
            .expect("at least one round slot exists") += payload_bytes;
        self.touched[edge_index / 64] |= 1 << (edge_index % 64);
        self.round_edge_counts[edge_index] += count;
        let congestion = self
            .max_edge_messages_per_round
            .last_mut()
            .expect("at least one round slot exists");
        *congestion = (*congestion).max(self.round_edge_counts[edge_index]);
    }

    /// Records one message on `edge`, the [`EdgeId`]-typed convenience form
    /// of [`MessageLedger::record`].
    pub fn record_edge(&mut self, edge: EdgeId, payload_bytes: u64) {
        self.record(edge.index(), payload_bytes);
    }

    /// Grows the per-edge counters to at least `edge_slots` slots, filling
    /// new slots with zeros. Used by the engine when a churn plan inserts an
    /// edge whose ID lies beyond the frozen topology's slot range; shrinking
    /// never happens (deleted edges keep their historical counters).
    pub(crate) fn ensure_edge_slots(&mut self, edge_slots: usize) {
        if edge_slots > self.messages_per_edge.len() {
            self.messages_per_edge.resize(edge_slots, 0);
            self.bytes_per_edge.resize(edge_slots, 0);
            self.round_edge_counts.resize(edge_slots, 0);
            self.touched.resize(edge_slots.div_ceil(64), 0);
        }
    }

    /// Records `count` fault-injected drops attributed to `cause` in the
    /// current round slot. Dropped messages appear *only* here — they never
    /// reach the per-edge or per-round delivery counters. Sums, so the
    /// engine's per-worker counts and a peer rank's fault column merge in
    /// any order, like [`MessageLedger::record_bulk`].
    pub(crate) fn record_dropped_bulk(&mut self, cause: FaultCause, count: u64) {
        if count == 0 {
            return;
        }
        *self
            .dropped_per_round
            .last_mut()
            .expect("at least one round slot exists") += count;
        match cause {
            FaultCause::Random => self.dropped_random += count,
            FaultCause::LinkCut => self.dropped_link_cut += count,
            FaultCause::Crash => self.dropped_crash += count,
        }
    }

    /// Records `count` fault-injected duplications in the current round
    /// slot. Each duplicate is additionally recorded through the ordinary
    /// delivery path by whoever delivers it, since it really crosses the
    /// edge.
    pub(crate) fn record_duplicated_bulk(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        *self
            .duplicated_per_round
            .last_mut()
            .expect("at least one round slot exists") += count;
    }

    /// Fault column: messages dropped by fault injection in each round slot.
    pub(crate) fn dropped_per_round(&self) -> &[u64] {
        &self.dropped_per_round
    }

    /// Fault column: messages duplicated by fault injection in each round
    /// slot.
    pub(crate) fn duplicated_per_round(&self) -> &[u64] {
        &self.duplicated_per_round
    }

    /// Aggregate fault totals (all zero for a failure-free execution).
    pub fn fault_totals(&self) -> FaultTotals {
        FaultTotals {
            dropped: self.dropped_per_round.iter().sum(),
            duplicated: self.duplicated_per_round.iter().sum(),
            dropped_random: self.dropped_random,
            dropped_link_cut: self.dropped_link_cut,
            dropped_crash: self.dropped_crash,
        }
    }

    /// Number of per-edge counter slots.
    pub fn edge_slots(&self) -> usize {
        self.messages_per_edge.len()
    }

    /// Number of rounds executed so far (the initialization slot does not
    /// count as a round).
    pub fn rounds(&self) -> u64 {
        (self.messages_per_round.len() - 1) as u64
    }

    /// Total messages recorded.
    pub fn total_messages(&self) -> u64 {
        self.messages_per_round.iter().sum()
    }

    /// Total payload bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_per_round.iter().sum()
    }

    /// Messages carried by each edge over the whole execution, indexed by
    /// [`EdgeId::index`].
    pub fn messages_per_edge(&self) -> &[u64] {
        &self.messages_per_edge
    }

    /// Payload bytes carried by each edge over the whole execution.
    pub fn bytes_per_edge(&self) -> &[u64] {
        &self.bytes_per_edge
    }

    /// Messages sent in each round slot (slot 0 = initialization).
    pub fn messages_per_round(&self) -> &[u64] {
        &self.messages_per_round
    }

    /// Payload bytes sent in each round slot.
    pub fn bytes_per_round(&self) -> &[u64] {
        &self.bytes_per_round
    }

    /// Per-round congestion: for each round slot, the maximum number of
    /// messages carried by any single edge within that slot.
    pub fn max_edge_messages_per_round(&self) -> &[u64] {
        &self.max_edge_messages_per_round
    }

    /// The worst per-round edge congestion over the whole execution.
    pub fn max_congestion(&self) -> u64 {
        self.max_edge_messages_per_round
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// The edge carrying the most messages over the whole execution, as
    /// `(edge_index, message_count)`; `None` if nothing was recorded.
    pub(crate) fn busiest_edge(&self) -> Option<(usize, u64)> {
        self.messages_per_edge
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, count)| count > 0)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    /// Collapses the ledger into a [`CostReport`].
    pub fn summary(&self) -> CostReport {
        CostReport {
            rounds: self.rounds(),
            messages: self.total_messages(),
        }
    }

    /// Freezes the ledger's congestion column into a self-contained
    /// [`CongestionSnapshot`] (per-round maximum edge load, overall peak,
    /// busiest edge, and the total message count for a
    /// traffic-unchanged cross-check).
    pub fn congestion_snapshot(&self) -> CongestionSnapshot {
        CongestionSnapshot {
            per_round_max: self.max_edge_messages_per_round.clone(),
            peak: self.max_congestion(),
            busiest_edge: self.busiest_edge(),
            total_messages: self.total_messages(),
        }
    }
}

/// Clears a touched bitmap (one bit per slot), visiting the index of every
/// set bit in ascending order.
fn drain_bitmap<'a>(words: impl IntoIterator<Item = &'a mut u64>, mut visit: impl FnMut(usize)) {
    for (word_index, word) in words.into_iter().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            visit(word_index * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// One edge's round total in an [`EdgeTally`]. Aligned to its 16 bytes so
/// both adds of a message land in one cache line.
#[derive(Default)]
#[repr(align(16))]
struct TallySlot {
    count: AtomicU64,
    bytes: AtomicU64,
}

/// Per-edge `(count, bytes)` totals of one round barrier's messages, dense
/// by [`EdgeId::index`], with one bit per slot marking the slots added to
/// since the last drain. Every transport charges its barrier to the
/// [`MessageLedger`] through one: it adds each message as it delivers it,
/// then drains the tally in ascending edge order with one
/// [`MessageLedger::record_bulk`] per touched edge, so every edge-indexed
/// array is walked forward. A drain costs `O(slots / 64 + touched)`.
///
/// The slots are atomics so the parallel delivery workers can share the
/// tally ([`EdgeTally::add_shared`]); the serial paths add through
/// `get_mut` ([`EdgeTally::add`]) and pay no atomic operation.
#[derive(Default)]
pub(crate) struct EdgeTally {
    slots: Vec<TallySlot>,
    touched: Vec<AtomicU64>,
}

impl fmt::Debug for EdgeTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeTally")
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl EdgeTally {
    /// Grows the tally to `edge_slots` slots (a churn insert can add an edge
    /// beyond the frozen range between two barriers). New slots are empty.
    pub(crate) fn fit(&mut self, edge_slots: usize) {
        if self.slots.len() < edge_slots {
            self.slots.resize_with(edge_slots, TallySlot::default);
            self.touched
                .resize_with(edge_slots.div_ceil(64), AtomicU64::default);
        }
    }

    /// Adds one message of `bytes` payload bytes to edge slot `slot`.
    #[inline]
    pub(crate) fn add(&mut self, slot: usize, bytes: u64) {
        *self.touched[slot / 64].get_mut() |= 1 << (slot % 64);
        let entry = &mut self.slots[slot];
        *entry.count.get_mut() += 1;
        *entry.bytes.get_mut() += bytes;
    }

    /// [`EdgeTally::add`] through a shared reference, for delivery workers
    /// running side by side. Only the first add of a round to a slot sets
    /// its touched bit. `Relaxed` suffices: the values publish no other
    /// data, and the drain runs only after the workers are joined, which
    /// orders every add before it.
    #[inline]
    pub(crate) fn add_shared(&self, slot: usize, bytes: u64) {
        let entry = &self.slots[slot];
        if entry.count.fetch_add(1, Ordering::Relaxed) == 0 {
            self.touched[slot / 64].fetch_or(1 << (slot % 64), Ordering::Relaxed);
        }
        entry.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Empties the tally, visiting every touched slot as
    /// `(slot, count, bytes)` in ascending slot order.
    pub(crate) fn drain(&mut self, mut visit: impl FnMut(usize, u64, u64)) {
        let slots = &mut self.slots;
        let words = self.touched.iter_mut().map(AtomicU64::get_mut);
        drain_bitmap(words, |slot| {
            let entry = &mut slots[slot];
            let count = std::mem::take(entry.count.get_mut());
            let bytes = std::mem::take(entry.bytes.get_mut());
            visit(slot, count, bytes);
        });
    }

    /// Empties the tally into `ledger`: one bulk record per touched edge, in
    /// ascending edge order.
    pub(crate) fn charge(&mut self, ledger: &mut MessageLedger) {
        self.drain(|edge, count, bytes| ledger.record_bulk(edge, count, bytes));
    }

    /// Empties the tally without charging it (a failed barrier's leftovers).
    pub(crate) fn discard(&mut self) {
        self.drain(|_, _, _| {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    #[test]
    fn cost_report_compositions() {
        let a = CostReport::new(3, 10);
        let b = CostReport::new(5, 7);
        assert_eq!(a.then(b), CostReport::new(8, 17));
        assert_eq!(a + b, CostReport::new(8, 17));
        let mut c = CostReport::zero();
        c += a;
        c += b;
        assert_eq!(c, CostReport::new(8, 17));
    }

    #[test]
    fn messages_per_round_handles_zero_rounds() {
        assert_eq!(CostReport::zero().messages_per_round(), 0.0);
        assert_eq!(CostReport::new(4, 8).messages_per_round(), 2.0);
    }

    #[test]
    fn execution_metrics_accumulate() {
        let mut metrics = ExecutionMetrics::new(3);
        // Initialization sends 2 messages from node 0.
        metrics.record_sends(0, 2);
        metrics.start_round();
        metrics.record_sends(1, 1);
        metrics.start_round();
        metrics.record_sends(2, 1);
        metrics.record_sends(1, 1);

        assert_eq!(metrics.rounds(), 2);
        assert_eq!(metrics.total_messages(), 5);
        assert_eq!(metrics.messages_per_round, vec![2, 1, 2]);
        assert_eq!(metrics.messages_per_node, vec![2, 2, 1]);
        assert_eq!(metrics.summary(), CostReport::new(2, 5));
    }

    #[test]
    fn empty_metrics_are_zero() {
        let metrics = ExecutionMetrics::new(0);
        assert_eq!(metrics.rounds(), 0);
        assert_eq!(metrics.total_messages(), 0);
        assert!(metrics.messages_per_node.is_empty());
        assert_eq!(metrics.summary(), CostReport::zero());
    }

    #[test]
    fn edge_slot_count_spans_sparse_ids() {
        assert_eq!(edge_slot_count(std::iter::empty()), 0);
        assert_eq!(
            edge_slot_count([EdgeId::new(0), EdgeId::new(7), EdgeId::new(3)]),
            8
        );
        assert_eq!(edge_slot_count([EdgeId::new(u64::MAX)]), usize::MAX);
    }

    #[test]
    fn ledger_accumulates_per_edge_and_per_round() {
        let mut ledger = MessageLedger::new(3);
        // Initialization: two messages on edge 0, one on edge 2.
        ledger.record(0, 10);
        ledger.record(0, 10);
        ledger.record_edge(EdgeId::new(2), 4);
        ledger.start_round();
        ledger.record(1, 6);
        ledger.record(1, 6);
        ledger.record(1, 6);

        assert_eq!(ledger.rounds(), 1);
        assert_eq!(ledger.edge_slots(), 3);
        assert_eq!(ledger.total_messages(), 6);
        assert_eq!(ledger.total_bytes(), 42);
        assert_eq!(ledger.messages_per_edge(), &[2, 3, 1]);
        assert_eq!(ledger.bytes_per_edge(), &[20, 18, 4]);
        assert_eq!(ledger.messages_per_round(), &[3, 3]);
        assert_eq!(ledger.bytes_per_round(), &[24, 18]);
        assert_eq!(ledger.max_edge_messages_per_round(), &[2, 3]);
        assert_eq!(ledger.max_congestion(), 3);
        assert_eq!(ledger.busiest_edge(), Some((1, 3)));
        assert_eq!(ledger.summary(), CostReport::new(1, 6));
    }

    #[test]
    fn ledger_congestion_resets_each_round() {
        let mut ledger = MessageLedger::new(1);
        ledger.start_round();
        ledger.record(0, 1);
        ledger.record(0, 1);
        ledger.start_round();
        ledger.record(0, 1);
        assert_eq!(ledger.max_edge_messages_per_round(), &[0, 2, 1]);
        assert_eq!(ledger.messages_per_edge(), &[3]);
    }

    #[test]
    fn busiest_edge_prefers_the_lowest_index_on_ties() {
        let mut ledger = MessageLedger::new(4);
        ledger.record(3, 1);
        ledger.record(1, 1);
        assert_eq!(ledger.busiest_edge(), Some((1, 1)));
        assert_eq!(MessageLedger::new(2).busiest_edge(), None);
    }

    #[test]
    fn empty_ledger_is_zero() {
        let ledger = MessageLedger::new(0);
        assert_eq!(ledger.rounds(), 0);
        assert_eq!(ledger.total_messages(), 0);
        assert_eq!(ledger.total_bytes(), 0);
        assert_eq!(ledger.max_congestion(), 0);
        assert_eq!(ledger.summary(), CostReport::zero());
    }

    #[test]
    fn fault_column_accumulates_and_distinguishes_causes() {
        let mut ledger = MessageLedger::new(2);
        assert_eq!(ledger.fault_totals(), FaultTotals::default());
        ledger.record_dropped_bulk(FaultCause::Random, 1);
        ledger.start_round();
        ledger.record_dropped_bulk(FaultCause::LinkCut, 1);
        ledger.record_dropped_bulk(FaultCause::Crash, 2);
        ledger.record_duplicated_bulk(1);
        ledger.record(0, 4); // delivered traffic is independent of the column
        ledger.record(0, 4);

        assert_eq!(ledger.dropped_per_round(), &[1, 3]);
        assert_eq!(ledger.duplicated_per_round(), &[0, 1]);
        let totals = ledger.fault_totals();
        assert_eq!(totals.dropped, 4);
        assert_eq!(totals.duplicated, 1);
        assert_eq!(totals.dropped_random, 1);
        assert_eq!(totals.dropped_link_cut, 1);
        assert_eq!(totals.dropped_crash, 2);
        // Drops never reach the delivery counters.
        assert_eq!(ledger.total_messages(), 2);
        assert_eq!(ledger.messages_per_edge(), &[2, 0]);
        // The column participates in the serialized-contract equality.
        let mut other = MessageLedger::new(2);
        other.start_round();
        other.record(0, 4);
        other.record(0, 4);
        assert_ne!(ledger, other);
    }

    #[test]
    fn ensure_edge_slots_grows_but_never_shrinks() {
        let mut ledger = MessageLedger::new(2);
        ledger.record(1, 4);
        ledger.ensure_edge_slots(4);
        assert_eq!(ledger.edge_slots(), 4);
        assert_eq!(ledger.messages_per_edge(), &[0, 1, 0, 0]);
        assert_eq!(ledger.bytes_per_edge(), &[0, 4, 0, 0]);
        ledger.record(3, 8); // the new slot is immediately recordable
        assert_eq!(ledger.messages_per_edge(), &[0, 1, 0, 1]);
        ledger.ensure_edge_slots(1); // shrink requests are no-ops
        assert_eq!(ledger.edge_slots(), 4);
    }

    #[test]
    fn congestion_snapshot_freezes_the_congestion_column() {
        let mut ledger = MessageLedger::new(2);
        ledger.start_round();
        ledger.record(0, 1);
        ledger.record(0, 1);
        ledger.record(1, 1);
        ledger.start_round();
        ledger.record(1, 1);
        let snap = ledger.congestion_snapshot();
        assert_eq!(snap.per_round_max, vec![0, 2, 1]);
        assert_eq!(snap.peak, 2);
        assert_eq!(snap.busiest_edge, Some((0, 2)));
        assert_eq!(snap.total_messages, 4);
        assert_eq!(snap.rounds_above(1), 1);
        assert_eq!(snap.rounds_above(0), 2);
        assert_eq!(snap.rounds_above(2), 0);
    }

    #[test]
    fn congestion_snapshot_pointwise_comparison() {
        let flat = CongestionSnapshot {
            per_round_max: vec![0, 1, 1],
            peak: 1,
            busiest_edge: Some((0, 2)),
            total_messages: 4,
        };
        let spiky = CongestionSnapshot {
            per_round_max: vec![0, 2, 1],
            peak: 2,
            busiest_edge: Some((0, 3)),
            total_messages: 4,
        };
        assert!(flat.never_exceeds(&spiky));
        assert!(!spiky.never_exceeds(&flat));
        assert!(flat.never_exceeds(&flat));
        // Missing trailing slots count as zero on either side.
        let short = CongestionSnapshot {
            per_round_max: vec![0, 1],
            peak: 1,
            busiest_edge: None,
            total_messages: 1,
        };
        assert!(short.never_exceeds(&flat));
        assert!(!flat.never_exceeds(&short));
    }

    /// Drains `tally` into a list of `(slot, count, bytes)` visits.
    fn drained(tally: &mut EdgeTally) -> Vec<(usize, u64, u64)> {
        let mut visits = Vec::new();
        tally.drain(|slot, count, bytes| visits.push((slot, count, bytes)));
        visits
    }

    /// The reference drain: every touched slot, ascending, with its totals.
    fn model_drained(model: &mut BTreeMap<usize, (u64, u64)>) -> Vec<(usize, u64, u64)> {
        std::mem::take(model)
            .into_iter()
            .map(|(slot, (count, bytes))| (slot, count, bytes))
            .collect()
    }

    #[test]
    fn tally_drains_match_an_ordered_map_model() {
        for seed in 0..40 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut tally = EdgeTally::default();
            let mut model = BTreeMap::new();
            let mut slots = rng.gen_range(1..100usize);
            tally.fit(slots);
            for _ in 0..2_000 {
                match rng.gen_range(0..100u32) {
                    // Grow, as a churn insert does between barriers, often
                    // across a bitmap word boundary.
                    0..=2 => {
                        slots += rng.gen_range(1..150usize);
                        tally.fit(slots);
                    }
                    3..=7 => {
                        assert_eq!(drained(&mut tally), model_drained(&mut model));
                        assert!(drained(&mut tally).is_empty(), "a drain empties the tally");
                    }
                    _ => {
                        // Favour the newest slots so grown ranges get used.
                        let slot = if rng.gen_bool(0.3) {
                            slots - 1 - rng.gen_range(0..slots.min(70))
                        } else {
                            rng.gen_range(0..slots)
                        };
                        let bytes = rng.gen_range(0..1_000u64);
                        tally.add(slot, bytes);
                        let entry = model.entry(slot).or_insert((0, 0));
                        entry.0 += 1;
                        entry.1 += bytes;
                    }
                }
            }
            assert_eq!(drained(&mut tally), model_drained(&mut model));
        }
    }

    #[test]
    fn shared_adds_from_two_threads_equal_the_serial_sums() {
        const SLOTS: usize = 1_000;
        let mut tally = EdgeTally::default();
        tally.fit(SLOTS);
        for round in 0..4u64 {
            // Two overlapping edge ranges, like the two receivers' workers
            // of the edges between them.
            let sends: Vec<Vec<(usize, u64)>> = [0..600, 400..SLOTS]
                .into_iter()
                .enumerate()
                .map(|(worker, range)| {
                    let mut rng = ChaCha8Rng::seed_from_u64(round * 2 + worker as u64);
                    (0..20_000)
                        .map(|_| (rng.gen_range(range.clone()), rng.gen_range(0..64u64)))
                        .collect()
                })
                .collect();
            let mut model = BTreeMap::new();
            for &(slot, bytes) in sends.iter().flatten() {
                let entry = model.entry(slot).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += bytes;
            }
            let shared = &tally;
            let start = std::sync::Barrier::new(sends.len());
            std::thread::scope(|scope| {
                for worker_sends in &sends {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        for &(slot, bytes) in worker_sends {
                            shared.add_shared(slot, bytes);
                        }
                    });
                }
            });
            assert_eq!(drained(&mut tally), model_drained(&mut model));
        }
    }

    /// Per-round congestion straight from a list of `(edge, bytes)` records.
    fn model_congestion(records: &[(usize, u64)]) -> u64 {
        let mut per_edge = BTreeMap::new();
        for &(edge, _) in records {
            *per_edge.entry(edge).or_insert(0) += 1;
        }
        per_edge.into_values().max().unwrap_or(0)
    }

    #[test]
    fn ledger_congestion_is_independent_of_record_order() {
        const SLOTS: usize = 300;
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut ascending = MessageLedger::new(SLOTS);
        let mut descending = MessageLedger::new(SLOTS);
        let mut shuffled = MessageLedger::new(SLOTS);
        let mut expected = Vec::new();
        for round in 0..12 {
            if round > 0 {
                for ledger in [&mut ascending, &mut descending, &mut shuffled] {
                    ledger.start_round();
                }
            }
            // Even rounds reuse a few hot edges heavily, odd rounds spread
            // one message each over many, so a congestion count left over
            // from the previous round would show.
            let (edges, messages) = if round % 2 == 0 {
                (4, 200)
            } else {
                (SLOTS, 50)
            };
            let mut records: Vec<(usize, u64)> = (0..messages)
                .map(|_| (rng.gen_range(0..edges), rng.gen_range(0..16u64)))
                .collect();
            expected.push(model_congestion(&records));
            records.sort_unstable();
            for &(edge, bytes) in &records {
                ascending.record(edge, bytes);
            }
            for &(edge, bytes) in records.iter().rev() {
                descending.record(edge, bytes);
            }
            for i in (1..records.len()).rev() {
                records.swap(i, rng.gen_range(0..i + 1));
            }
            for &(edge, bytes) in &records {
                shuffled.record(edge, bytes);
            }
        }
        assert_eq!(ascending.max_edge_messages_per_round(), &expected[..]);
        assert_eq!(descending, ascending);
        assert_eq!(shuffled, ascending);
    }

    #[test]
    fn default_ledger_upholds_the_round_slot_invariant() {
        let mut ledger = MessageLedger::default();
        assert_eq!(ledger, MessageLedger::new(0));
        assert_eq!(ledger.rounds(), 0);
        ledger.start_round();
        assert_eq!(ledger.rounds(), 1);
    }
}
