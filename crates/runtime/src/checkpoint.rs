//! Deterministic checkpoint/restore of a running [`Network`]: capture every
//! piece of engine state that the next rounds depend on, serialize it to a
//! torn-write-safe binary file, and resume **bit-identical** to an
//! uninterrupted run.
//!
//! # What a checkpoint holds
//!
//! A [`NetworkCheckpoint`] is taken at a *round boundary* (after
//! [`run_round`] returns) and captures:
//!
//! * the [`NetworkConfig`], round counter and initialization flag;
//! * per-node program state (via the [`NodeProgram::save_state`] /
//!   [`NodeProgram::load_state`] hooks), RNG stream positions (the ChaCha
//!   word offset — the key is re-derived from the config seed), and halted
//!   flags;
//! * the pending mailbox contents (the messages delivered at the last
//!   barrier, waiting to be read next round), pre-encoded through the
//!   message type's [`WireCodec`] so the checkpoint itself is not generic;
//! * the [`ExecutionMetrics`], [`MessageLedger`] and [`Trace`] observables;
//! * the fault plane's port-silence counters and the churn events of the
//!   capture round;
//! * integrity anchors: a graph fingerprint and digests of the installed
//!   fault/churn plans. Plans are *not* serialized — both planes are keyed
//!   streams re-derived from `(seed, round, …)`, so the caller re-supplies
//!   the plans at restore and the digests reject a mismatch.
//!
//! # File format
//!
//! A [`CheckpointHeader`] (24 bytes: `"FLCP"` magic, version, body length,
//! FNV-1a checksum of the body) followed by the little-endian body whose
//! section order is specified in `docs/RECOVERY.md`. A torn file (body
//! shorter than the header promises) or a corrupt one (checksum mismatch,
//! bad magic/version, malformed section) is rejected with a precise
//! [`RuntimeError::Checkpoint`]. Files are written to a temporary sibling
//! and renamed into place, so a crash mid-write never tears a previously
//! good checkpoint.
//!
//! # Bit-identity contract
//!
//! For every workload, shard count, transport backend, and composed
//! fault+churn plan: interrupting an execution at round `r`, restoring from
//! the round-`r` checkpoint, and running to completion yields outputs,
//! metrics, ledger, and remaining trace identical to the uninterrupted run.
//! `tests/recovery_matrix.rs` pins this matrix.
//!
//! [`Network`]: crate::engine::Network
//! [`run_round`]: crate::engine::Network::run_round
//! [`NetworkConfig`]: crate::engine::NetworkConfig
//! [`NodeProgram::save_state`]: crate::node::NodeProgram::save_state
//! [`NodeProgram::load_state`]: crate::node::NodeProgram::load_state
//! [`WireCodec`]: crate::transport::WireCodec
//! [`ExecutionMetrics`]: crate::metrics::ExecutionMetrics
//! [`MessageLedger`]: crate::metrics::MessageLedger
//! [`Trace`]: crate::trace::Trace

use crate::churn::ChurnEvent;
use crate::engine::NetworkConfig;
use crate::error::{RuntimeError, RuntimeResult};
use crate::knowledge::KnowledgeModel;
use crate::metrics::FaultTotals;
use crate::trace::{TraceEvent, TraceMode};
use crate::transport::{CodecError, WireCodec};
use freelunch_graph::{EdgeId, NodeId};
use std::fmt;
use std::path::Path;

/// Checkpoint-file magic: `"FLCP"` (freelunch checkpoint).
const CHECKPOINT_MAGIC: [u8; 4] = *b"FLCP";
/// Checkpoint format version; bumped on any layout change (v2 added a
/// scheduling byte and the work-stealing chunk size to the config section;
/// the scheduling byte is now zero padding, so the layout is unchanged).
const CHECKPOINT_VERSION: u8 = 2;
/// Encoded size of a [`TraceEvent`] in the trace section.
const TRACE_EVENT_BYTES: usize = 20;

/// FNV-1a 64-bit hash — the digest used for the body checksum and the
/// graph/plan fingerprints (stable, dependency-free, endian-independent).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Digest of a value's `Debug` rendering (derived `Debug` output is
/// deterministic, which makes this a cheap structural fingerprint for the
/// fault/churn plans the caller must re-supply at restore).
pub fn debug_digest<T: fmt::Debug>(value: &T) -> u64 {
    fnv1a64(format!("{value:?}").as_bytes())
}

/// Fingerprint of a base communication graph: node count plus the dense
/// edge-endpoint table, FNV-1a hashed in little-endian order. Restore
/// rejects a checkpoint whose fingerprint differs from the graph the caller
/// supplies.
pub fn graph_fingerprint(node_count: usize, endpoints: &[[u32; 2]]) -> u64 {
    let mut bytes = Vec::with_capacity(8 + endpoints.len() * 8);
    bytes.extend_from_slice(&(node_count as u64).to_le_bytes());
    for pair in endpoints {
        bytes.extend_from_slice(&pair[0].to_le_bytes());
        bytes.extend_from_slice(&pair[1].to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// The 24-byte versioned header of a checkpoint file.
///
/// ```text
/// [0..4]   magic "FLCP"
/// [4]      version (2)
/// [5..8]   zero padding
/// [8..16]  u64 body_len   — exact byte length of the body that follows
/// [16..24] u64 checksum   — FNV-1a 64 of the body
/// ```
///
/// The header is what makes torn and corrupt files detectable *before* any
/// section parsing: a file shorter than `24 + body_len` bytes was torn
/// mid-write, and a body whose FNV-1a hash differs from `checksum` was
/// corrupted. Decoding obeys the crate's codec laws (exact sizing,
/// truncation/oversize/tag/padding rejection — see `tests/wire_codec.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Exact byte length of the body following the header.
    pub body_len: u64,
    /// FNV-1a 64-bit checksum of the body bytes.
    pub checksum: u64,
}

impl CheckpointHeader {
    /// Exact encoded size of a checkpoint header.
    pub const WIRE_BYTES: usize = 24;
}

impl WireCodec for CheckpointHeader {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.push(CHECKPOINT_VERSION);
        buf.extend_from_slice(&[0u8; 3]);
        buf.extend_from_slice(&self.body_len.to_le_bytes());
        buf.extend_from_slice(&self.checksum.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        if bytes.len() < Self::WIRE_BYTES {
            return Err(CodecError::Truncated {
                needed: Self::WIRE_BYTES,
                got: bytes.len(),
            });
        }
        if bytes.len() > Self::WIRE_BYTES {
            return Err(CodecError::Oversized {
                expected: Self::WIRE_BYTES,
                got: bytes.len(),
            });
        }
        if bytes[..4] != CHECKPOINT_MAGIC {
            let tag = bytes[..4]
                .iter()
                .zip(CHECKPOINT_MAGIC.iter())
                .find(|(got, want)| got != want)
                .map(|(got, _)| *got)
                .unwrap_or(bytes[0]);
            return Err(CodecError::InvalidTag { tag });
        }
        if bytes[4] != CHECKPOINT_VERSION {
            return Err(CodecError::InvalidTag { tag: bytes[4] });
        }
        if bytes[5..8] != [0u8; 3] {
            return Err(CodecError::InvalidPadding);
        }
        let u64_at = |i: usize| {
            u64::from_le_bytes([
                bytes[i],
                bytes[i + 1],
                bytes[i + 2],
                bytes[i + 3],
                bytes[i + 4],
                bytes[i + 5],
                bytes[i + 6],
                bytes[i + 7],
            ])
        };
        Ok(CheckpointHeader {
            body_len: u64_at(8),
            checksum: u64_at(16),
        })
    }
}

/// One message waiting in a pending mailbox, with its payload pre-encoded
/// through the program's message codec — which keeps [`NetworkCheckpoint`]
/// free of the message type parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingEnvelope {
    /// Raw ID of the edge the message travelled over.
    pub edge: u64,
    /// Raw ID of the sending node.
    pub from: u32,
    /// The payload in its [`WireCodec`] encoding.
    pub payload: Vec<u8>,
}

/// A complete, self-validating snapshot of a [`Network`] at a round
/// boundary (see the [module docs](self) for what it captures and the
/// bit-identity contract).
///
/// Capture with [`Network::checkpoint`], resume with
/// [`Network::restore_with_plans`], persist with
/// [`NetworkCheckpoint::write_to_file`].
///
/// [`Network`]: crate::engine::Network
/// [`Network::checkpoint`]: crate::engine::Network::checkpoint
/// [`Network::restore_with_plans`]: crate::engine::Network::restore_with_plans
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkCheckpoint {
    /// The configuration the network was built with (restore rebuilds from
    /// it, so seeds, knowledge model, shard count and trace settings all
    /// survive).
    pub config: NetworkConfig,
    /// Round counter at capture (0 before the first round).
    pub round: u32,
    /// Whether the initialization phase had run at capture.
    pub initialized: bool,
    /// Network-wide messages in flight at capture (delivered at the last
    /// barrier, unread).
    pub in_flight: u64,
    /// Halted nodes outside the capturing engine's owned range, as of the
    /// last barrier.
    pub remote_halted: u64,
    /// Node count of the graph the checkpoint belongs to.
    pub node_count: u32,
    /// Ledger edge slots at capture (may exceed the base graph's after
    /// churn inserted edges).
    pub edge_slots: u32,
    /// FNV-1a fingerprint of the base graph (node count + endpoint table);
    /// restore rejects a different graph.
    pub graph_digest: u64,
    /// Digest of the installed fault plan (or of "none"); restore rejects a
    /// caller-supplied plan that differs.
    pub fault_digest: u64,
    /// Digest of the installed churn plan (or of "none"); restore rejects a
    /// caller-supplied plan that differs.
    pub churn_digest: u64,
    /// Per-node halted flags at capture.
    pub halted: Vec<bool>,
    /// Per-node ChaCha word positions; the stream keys are re-derived from
    /// [`NetworkConfig::seed`] at restore, so only positions are stored.
    pub rng_positions: Vec<u64>,
    /// Per-node per-port consecutive-silence counters (`None` when no fault
    /// plan was installed, which is when the engine doesn't maintain them).
    pub port_silence: Option<Vec<Vec<u32>>>,
    /// Per-node program state from [`NodeProgram::save_state`] (empty for
    /// programs that keep no state).
    ///
    /// [`NodeProgram::save_state`]: crate::node::NodeProgram::save_state
    pub program_states: Vec<Vec<u8>>,
    /// Per-node pending mailboxes: the messages delivered at the last
    /// barrier, to be read next round.
    pub pending: Vec<Vec<PendingEnvelope>>,
    /// Churn events applied at the top of the capture round (restore
    /// verifies its deterministic replay reproduces them exactly).
    pub churn_events: Vec<ChurnEvent>,
    /// [`ExecutionMetrics`](crate::metrics::ExecutionMetrics) per-round
    /// column.
    pub metrics_messages_per_round: Vec<u64>,
    /// [`ExecutionMetrics`](crate::metrics::ExecutionMetrics) per-node
    /// column.
    pub metrics_messages_per_node: Vec<u64>,
    /// Ledger contract column: messages per edge.
    pub ledger_messages_per_edge: Vec<u64>,
    /// Ledger contract column: payload bytes per edge.
    pub ledger_bytes_per_edge: Vec<u64>,
    /// Ledger contract column: messages per round slot.
    pub ledger_messages_per_round: Vec<u64>,
    /// Ledger contract column: payload bytes per round slot.
    pub ledger_bytes_per_round: Vec<u64>,
    /// Ledger contract column: per-round congestion maxima.
    pub ledger_max_edge_messages_per_round: Vec<u64>,
    /// Ledger fault column: drops per round slot.
    pub ledger_dropped_per_round: Vec<u64>,
    /// Ledger fault column: duplications per round slot.
    pub ledger_duplicated_per_round: Vec<u64>,
    /// Ledger fault column: total random drops.
    pub ledger_dropped_random: u64,
    /// Ledger fault column: total link-cut drops.
    pub ledger_dropped_link_cut: u64,
    /// Ledger fault column: total receiver-crash drops.
    pub ledger_dropped_crash: u64,
    /// Trace storage capacity at capture.
    pub trace_capacity: u64,
    /// Trace overflow-drop counter at capture.
    pub trace_dropped: u64,
    /// The stored trace events at capture.
    pub trace_events: Vec<TraceEvent>,
}

impl NetworkCheckpoint {
    /// The ledger's fault totals at capture — the baseline
    /// [`TcpTransport::resume_from`] needs so a rejoined rank's first
    /// fault-delta frame picks up exactly where the checkpoint left off.
    ///
    /// [`TcpTransport::resume_from`]: crate::transport::TcpTransport::resume_from
    pub fn fault_totals(&self) -> FaultTotals {
        FaultTotals {
            dropped: self.ledger_dropped_random
                + self.ledger_dropped_link_cut
                + self.ledger_dropped_crash,
            duplicated: self.ledger_duplicated_per_round.iter().sum(),
            dropped_random: self.ledger_dropped_random,
            dropped_link_cut: self.ledger_dropped_link_cut,
            dropped_crash: self.ledger_dropped_crash,
        }
    }

    /// Serializes the checkpoint: [`CheckpointHeader`] followed by the
    /// little-endian body (section order in `docs/RECOVERY.md`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let body = self.encode_body();
        let header = CheckpointHeader {
            body_len: body.len() as u64,
            checksum: fnv1a64(&body),
        };
        let mut bytes = Vec::with_capacity(CheckpointHeader::WIRE_BYTES + body.len());
        header.encode(&mut bytes);
        bytes.extend_from_slice(&body);
        bytes
    }

    /// Parses a checkpoint from its serialized form.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Checkpoint`] naming the failure precisely: a file too
    /// short for the header, a bad magic/version, a torn body (shorter than
    /// the header promises), a checksum mismatch, a malformed section, or
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> RuntimeResult<Self> {
        if bytes.len() < CheckpointHeader::WIRE_BYTES {
            return Err(RuntimeError::checkpoint(format!(
                "file holds {} byte(s), which cannot contain the {}-byte header: torn write?",
                bytes.len(),
                CheckpointHeader::WIRE_BYTES
            )));
        }
        let header = CheckpointHeader::decode(&bytes[..CheckpointHeader::WIRE_BYTES])
            .map_err(|e| RuntimeError::checkpoint(format!("invalid header: {e}")))?;
        let body = &bytes[CheckpointHeader::WIRE_BYTES..];
        if body.len() as u64 != header.body_len {
            return Err(RuntimeError::checkpoint(format!(
                "torn checkpoint: header promises a {}-byte body, file carries {} byte(s)",
                header.body_len,
                body.len()
            )));
        }
        let checksum = fnv1a64(body);
        if checksum != header.checksum {
            return Err(RuntimeError::checkpoint(format!(
                "corrupt checkpoint: body checksum {checksum:#018x} does not match the \
                 header's {:#018x}",
                header.checksum
            )));
        }
        Self::decode_body(body)
    }

    /// Writes the checkpoint to `path`, via a temporary sibling file and an
    /// atomic rename — a crash mid-write can tear the temporary, never a
    /// previously good checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Checkpoint`] wrapping the I/O failure.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> RuntimeResult<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_bytes())
            .map_err(|e| RuntimeError::checkpoint(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            RuntimeError::checkpoint(format!(
                "rename {} into {}: {e}",
                tmp.display(),
                path.display()
            ))
        })
    }

    /// Reads and validates a checkpoint from `path` (see
    /// [`NetworkCheckpoint::from_bytes`] for the rejection guarantees).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Checkpoint`] on I/O failure or any form of file
    /// corruption.
    pub fn read_from_file(path: impl AsRef<Path>) -> RuntimeResult<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| RuntimeError::checkpoint(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes).map_err(|e| match e {
            RuntimeError::Checkpoint { reason } => {
                RuntimeError::checkpoint(format!("{}: {reason}", path.display()))
            }
            other => other,
        })
    }

    fn encode_body(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        // Section 1: config.
        buf.push(match self.config.knowledge {
            KnowledgeModel::Kt0 => 0u8,
            KnowledgeModel::UniqueEdgeIds => 1,
            KnowledgeModel::Kt1 => 2,
        });
        buf.push(match self.config.trace_mode {
            TraceMode::Off => 0u8,
            TraceMode::Full => 1,
        });
        buf.extend_from_slice(&[0u8; 2]);
        buf.extend_from_slice(&self.config.log_n_slack.to_le_bytes());
        buf.extend_from_slice(&self.config.seed.to_le_bytes());
        buf.extend_from_slice(&(self.config.trace_capacity as u64).to_le_bytes());
        buf.extend_from_slice(&(self.config.shards as u64).to_le_bytes());
        buf.extend_from_slice(&(self.config.chunk_size as u64).to_le_bytes());
        // Section 2: cursor.
        buf.extend_from_slice(&self.round.to_le_bytes());
        buf.push(u8::from(self.initialized));
        buf.extend_from_slice(&[0u8; 3]);
        // Section 3: barrier counters.
        buf.extend_from_slice(&self.in_flight.to_le_bytes());
        buf.extend_from_slice(&self.remote_halted.to_le_bytes());
        // Section 4: shape.
        buf.extend_from_slice(&self.node_count.to_le_bytes());
        buf.extend_from_slice(&self.edge_slots.to_le_bytes());
        // Section 5: fingerprints.
        buf.extend_from_slice(&self.graph_digest.to_le_bytes());
        buf.extend_from_slice(&self.fault_digest.to_le_bytes());
        buf.extend_from_slice(&self.churn_digest.to_le_bytes());
        // Section 6: halted flags.
        buf.extend(self.halted.iter().map(|&h| u8::from(h)));
        // Section 7: RNG positions.
        for &pos in &self.rng_positions {
            buf.extend_from_slice(&pos.to_le_bytes());
        }
        // Section 8: port silence.
        match &self.port_silence {
            None => buf.push(0u8),
            Some(silence) => {
                buf.push(1u8);
                for counters in silence {
                    buf.extend_from_slice(&(counters.len() as u32).to_le_bytes());
                    for &counter in counters {
                        buf.extend_from_slice(&counter.to_le_bytes());
                    }
                }
            }
        }
        // Section 9: program states.
        for state in &self.program_states {
            buf.extend_from_slice(&(state.len() as u32).to_le_bytes());
            buf.extend_from_slice(state);
        }
        // Section 10: pending mailboxes.
        for mailbox in &self.pending {
            buf.extend_from_slice(&(mailbox.len() as u32).to_le_bytes());
            for envelope in mailbox {
                buf.extend_from_slice(&envelope.edge.to_le_bytes());
                buf.extend_from_slice(&envelope.from.to_le_bytes());
                buf.extend_from_slice(&(envelope.payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(&envelope.payload);
            }
        }
        // Section 11: churn events of the capture round.
        buf.extend_from_slice(&(self.churn_events.len() as u32).to_le_bytes());
        for event in &self.churn_events {
            event.encode(&mut buf);
        }
        // Section 12: metrics.
        encode_u64_vec(&mut buf, &self.metrics_messages_per_round);
        encode_u64_vec(&mut buf, &self.metrics_messages_per_node);
        // Section 13: ledger.
        encode_u64_vec(&mut buf, &self.ledger_messages_per_edge);
        encode_u64_vec(&mut buf, &self.ledger_bytes_per_edge);
        encode_u64_vec(&mut buf, &self.ledger_messages_per_round);
        encode_u64_vec(&mut buf, &self.ledger_bytes_per_round);
        encode_u64_vec(&mut buf, &self.ledger_max_edge_messages_per_round);
        encode_u64_vec(&mut buf, &self.ledger_dropped_per_round);
        encode_u64_vec(&mut buf, &self.ledger_duplicated_per_round);
        buf.extend_from_slice(&self.ledger_dropped_random.to_le_bytes());
        buf.extend_from_slice(&self.ledger_dropped_link_cut.to_le_bytes());
        buf.extend_from_slice(&self.ledger_dropped_crash.to_le_bytes());
        // Section 14: trace.
        buf.extend_from_slice(&self.trace_capacity.to_le_bytes());
        buf.extend_from_slice(&self.trace_dropped.to_le_bytes());
        buf.extend_from_slice(&(self.trace_events.len() as u32).to_le_bytes());
        for event in &self.trace_events {
            buf.extend_from_slice(&event.round.to_le_bytes());
            buf.extend_from_slice(&event.from.raw().to_le_bytes());
            buf.extend_from_slice(&event.to.raw().to_le_bytes());
            buf.extend_from_slice(&event.edge.raw().to_le_bytes());
        }
        buf
    }

    fn decode_body(body: &[u8]) -> RuntimeResult<Self> {
        let mut r = BodyReader { buf: body, pos: 0 };
        // Section 1: config.
        let knowledge = match r.u8("config.knowledge")? {
            0 => KnowledgeModel::Kt0,
            1 => KnowledgeModel::UniqueEdgeIds,
            2 => KnowledgeModel::Kt1,
            tag => {
                return Err(RuntimeError::checkpoint(format!(
                    "unknown knowledge-model tag {tag} at offset {}",
                    r.pos - 1
                )))
            }
        };
        let trace_mode = match r.u8("config.trace_mode")? {
            0 => TraceMode::Off,
            1 => TraceMode::Full,
            tag => {
                return Err(RuntimeError::checkpoint(format!(
                    "unknown trace-mode tag {tag} at offset {}",
                    r.pos - 1
                )))
            }
        };
        r.padding(2, "config padding")?;
        let log_n_slack = r.u32("config.log_n_slack")?;
        let seed = r.u64("config.seed")?;
        let trace_capacity_cfg = r.u64("config.trace_capacity")?;
        let shards = r.u64("config.shards")?;
        let chunk_size = r.u64("config.chunk_size")?;
        let config = NetworkConfig {
            knowledge,
            seed,
            log_n_slack,
            trace_mode,
            trace_capacity: trace_capacity_cfg as usize,
            shards: shards as usize,
            chunk_size: chunk_size as usize,
        };
        // Section 2: cursor.
        let round = r.u32("round")?;
        let initialized = match r.u8("initialized")? {
            0 => false,
            1 => true,
            tag => {
                return Err(RuntimeError::checkpoint(format!(
                    "initialized flag must be 0 or 1, found {tag} at offset {}",
                    r.pos - 1
                )))
            }
        };
        r.padding(3, "cursor padding")?;
        // Section 3: barrier counters.
        let in_flight = r.u64("in_flight")?;
        let remote_halted = r.u64("remote_halted")?;
        // Section 4: shape.
        let node_count = r.u32("node_count")?;
        let edge_slots = r.u32("edge_slots")?;
        // Section 5: fingerprints.
        let graph_digest = r.u64("graph_digest")?;
        let fault_digest = r.u64("fault_digest")?;
        let churn_digest = r.u64("churn_digest")?;
        let nodes = node_count as usize;
        // Section 6: halted flags.
        let halted_bytes = r.take(nodes, "halted flags")?;
        let mut halted = Vec::with_capacity(nodes);
        for (index, &byte) in halted_bytes.iter().enumerate() {
            match byte {
                0 => halted.push(false),
                1 => halted.push(true),
                tag => {
                    return Err(RuntimeError::checkpoint(format!(
                        "halted flag of node {index} must be 0 or 1, found {tag}"
                    )))
                }
            }
        }
        // Section 7: RNG positions.
        let mut rng_positions = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            rng_positions.push(r.u64("rng position")?);
        }
        // Section 8: port silence.
        let port_silence = match r.u8("port-silence flag")? {
            0 => None,
            1 => {
                let mut silence = Vec::with_capacity(nodes);
                for _ in 0..nodes {
                    let len = r.u32("port-silence length")? as usize;
                    let mut counters = Vec::with_capacity(len.min(r.remaining() / 4 + 1));
                    for _ in 0..len {
                        counters.push(r.u32("port-silence counter")?);
                    }
                    silence.push(counters);
                }
                Some(silence)
            }
            tag => {
                return Err(RuntimeError::checkpoint(format!(
                    "port-silence flag must be 0 or 1, found {tag} at offset {}",
                    r.pos - 1
                )))
            }
        };
        // Section 9: program states.
        let mut program_states = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let len = r.u32("program-state length")? as usize;
            program_states.push(r.take(len, "program state")?.to_vec());
        }
        // Section 10: pending mailboxes.
        let mut pending = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let count = r.u32("pending-mailbox count")? as usize;
            let mut mailbox = Vec::with_capacity(count.min(r.remaining() / 16 + 1));
            for _ in 0..count {
                let edge = r.u64("pending edge")?;
                let from = r.u32("pending sender")?;
                let len = r.u32("pending payload length")? as usize;
                let payload = r.take(len, "pending payload")?.to_vec();
                mailbox.push(PendingEnvelope {
                    edge,
                    from,
                    payload,
                });
            }
            pending.push(mailbox);
        }
        // Section 11: churn events.
        let churn_count = r.u32("churn-event count")? as usize;
        let mut churn_events = Vec::with_capacity(churn_count.min(r.remaining() / 20 + 1));
        for index in 0..churn_count {
            let bytes = r.take(ChurnEvent::WIRE_BYTES, "churn event")?;
            churn_events.push(ChurnEvent::decode(bytes).map_err(|e| {
                RuntimeError::checkpoint(format!("churn event {index} failed to decode: {e}"))
            })?);
        }
        // Section 12: metrics.
        let metrics_messages_per_round = decode_u64_vec(&mut r, "metrics.messages_per_round")?;
        let metrics_messages_per_node = decode_u64_vec(&mut r, "metrics.messages_per_node")?;
        // Section 13: ledger.
        let ledger_messages_per_edge = decode_u64_vec(&mut r, "ledger.messages_per_edge")?;
        let ledger_bytes_per_edge = decode_u64_vec(&mut r, "ledger.bytes_per_edge")?;
        let ledger_messages_per_round = decode_u64_vec(&mut r, "ledger.messages_per_round")?;
        let ledger_bytes_per_round = decode_u64_vec(&mut r, "ledger.bytes_per_round")?;
        let ledger_max_edge_messages_per_round =
            decode_u64_vec(&mut r, "ledger.max_edge_messages_per_round")?;
        let ledger_dropped_per_round = decode_u64_vec(&mut r, "ledger.dropped_per_round")?;
        let ledger_duplicated_per_round = decode_u64_vec(&mut r, "ledger.duplicated_per_round")?;
        let ledger_dropped_random = r.u64("ledger.dropped_random")?;
        let ledger_dropped_link_cut = r.u64("ledger.dropped_link_cut")?;
        let ledger_dropped_crash = r.u64("ledger.dropped_crash")?;
        // Section 14: trace.
        let trace_capacity = r.u64("trace.capacity")?;
        let trace_dropped = r.u64("trace.dropped")?;
        let trace_count = r.u32("trace-event count")? as usize;
        let mut trace_events =
            Vec::with_capacity(trace_count.min(r.remaining() / TRACE_EVENT_BYTES + 1));
        for _ in 0..trace_count {
            let round = r.u32("trace-event round")?;
            let from = r.u32("trace-event sender")?;
            let to = r.u32("trace-event receiver")?;
            let edge = r.u64("trace-event edge")?;
            trace_events.push(TraceEvent {
                round,
                from: NodeId::new(from),
                to: NodeId::new(to),
                edge: EdgeId::new(edge),
            });
        }
        if r.pos != body.len() {
            return Err(RuntimeError::checkpoint(format!(
                "checkpoint body has {} trailing byte(s) after the trace section",
                body.len() - r.pos
            )));
        }
        Ok(NetworkCheckpoint {
            config,
            round,
            initialized,
            in_flight,
            remote_halted,
            node_count,
            edge_slots,
            graph_digest,
            fault_digest,
            churn_digest,
            halted,
            rng_positions,
            port_silence,
            program_states,
            pending,
            churn_events,
            metrics_messages_per_round,
            metrics_messages_per_node,
            ledger_messages_per_edge,
            ledger_bytes_per_edge,
            ledger_messages_per_round,
            ledger_bytes_per_round,
            ledger_max_edge_messages_per_round,
            ledger_dropped_per_round,
            ledger_duplicated_per_round,
            ledger_dropped_random,
            ledger_dropped_link_cut,
            ledger_dropped_crash,
            trace_capacity,
            trace_dropped,
            trace_events,
        })
    }
}

fn encode_u64_vec(buf: &mut Vec<u8>, values: &[u64]) {
    buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for &value in values {
        buf.extend_from_slice(&value.to_le_bytes());
    }
}

fn decode_u64_vec(r: &mut BodyReader<'_>, field: &str) -> RuntimeResult<Vec<u64>> {
    let len = r.u32(field)? as usize;
    let mut values = Vec::with_capacity(len.min(r.remaining() / 8 + 1));
    for _ in 0..len {
        values.push(r.u64(field)?);
    }
    Ok(values)
}

/// Sequential little-endian reader over a checkpoint body, producing
/// field-precise [`RuntimeError::Checkpoint`] errors.
struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, len: usize, field: &str) -> RuntimeResult<&'a [u8]> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(RuntimeError::checkpoint(format!(
                "body truncated reading {field}: wanted {len} byte(s) at offset {}, body is \
                 {} byte(s)",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    fn u8(&mut self, field: &str) -> RuntimeResult<u8> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &str) -> RuntimeResult<u32> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &str) -> RuntimeResult<u64> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn padding(&mut self, len: usize, field: &str) -> RuntimeResult<()> {
        let bytes = self.take(len, field)?;
        if bytes.iter().any(|&b| b != 0) {
            return Err(RuntimeError::checkpoint(format!(
                "non-zero {field} at offset {}",
                self.pos - len
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NetworkCheckpoint {
        NetworkCheckpoint {
            config: NetworkConfig::with_seed(7),
            round: 3,
            initialized: true,
            in_flight: 12,
            remote_halted: 0,
            node_count: 2,
            edge_slots: 1,
            graph_digest: 0xDEAD,
            fault_digest: 0xBEEF,
            churn_digest: 0xF00D,
            halted: vec![false, true],
            rng_positions: vec![17, 0],
            port_silence: Some(vec![vec![1, 2], vec![]]),
            program_states: vec![vec![1, 2, 3], Vec::new()],
            pending: vec![
                vec![PendingEnvelope {
                    edge: 0,
                    from: 1,
                    payload: vec![9, 0, 0, 0],
                }],
                Vec::new(),
            ],
            churn_events: Vec::new(),
            metrics_messages_per_round: vec![2, 4, 4, 2],
            metrics_messages_per_node: vec![6, 6],
            ledger_messages_per_edge: vec![12],
            ledger_bytes_per_edge: vec![48],
            ledger_messages_per_round: vec![2, 4, 4, 2],
            ledger_bytes_per_round: vec![8, 16, 16, 8],
            ledger_max_edge_messages_per_round: vec![2, 4, 4, 2],
            ledger_dropped_per_round: vec![0, 0, 0, 0],
            ledger_duplicated_per_round: vec![0, 0, 0, 0],
            ledger_dropped_random: 0,
            ledger_dropped_link_cut: 0,
            ledger_dropped_crash: 0,
            trace_capacity: 8,
            trace_dropped: 1,
            trace_events: vec![TraceEvent {
                round: 1,
                from: NodeId::new(0),
                to: NodeId::new(1),
                edge: EdgeId::new(0),
            }],
        }
    }

    #[test]
    fn roundtrips_through_bytes() {
        let checkpoint = sample();
        let bytes = checkpoint.to_bytes();
        let decoded = NetworkCheckpoint::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(decoded, checkpoint);
    }

    #[test]
    fn every_torn_prefix_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = NetworkCheckpoint::from_bytes(&bytes[..cut])
                .expect_err("a torn prefix must never parse");
            assert!(
                matches!(err, RuntimeError::Checkpoint { .. }),
                "cut at {cut} produced {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_body_fails_the_checksum() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let err = NetworkCheckpoint::from_bytes(&bytes).expect_err("corruption must be caught");
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let checkpoint = sample();
        let body_plus = {
            let mut body = checkpoint.encode_body();
            body.push(0);
            body
        };
        let header = CheckpointHeader {
            body_len: body_plus.len() as u64,
            checksum: fnv1a64(&body_plus),
        };
        let mut bytes = Vec::new();
        header.encode(&mut bytes);
        bytes.extend_from_slice(&body_plus);
        let err = NetworkCheckpoint::from_bytes(&bytes).expect_err("trailing byte must fail");
        assert!(err.to_string().contains("trailing"), "got: {err}");
    }

    #[test]
    fn the_former_scheduling_byte_is_padding() {
        let mut body = sample().encode_body();
        body[2] = 1;
        let header = CheckpointHeader {
            body_len: body.len() as u64,
            checksum: fnv1a64(&body),
        };
        let mut bytes = Vec::new();
        header.encode(&mut bytes);
        bytes.extend_from_slice(&body);
        let err = NetworkCheckpoint::from_bytes(&bytes).expect_err("non-zero padding must fail");
        assert!(
            matches!(err, RuntimeError::Checkpoint { .. })
                && err.to_string().contains("config padding"),
            "got: {err}"
        );
    }

    #[test]
    fn file_roundtrip_is_atomic_and_exact() {
        let dir = std::env::temp_dir().join(format!("freelunch-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("net.ckpt");
        let checkpoint = sample();
        checkpoint.write_to_file(&path).expect("write");
        let read = NetworkCheckpoint::read_from_file(&path).expect("read");
        assert_eq!(read, checkpoint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_is_the_reference_function() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
