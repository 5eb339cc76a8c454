//! Multi-process execution over TCP: each process owns a contiguous node
//! range and the round barrier exchanges one length-prefixed binary frame
//! per peer per round.
//!
//! # Frame protocol
//!
//! All integers are little-endian. Per barrier, every rank sends every peer
//! exactly one frame (even when it has no messages for that peer — the
//! frame *is* the barrier):
//!
//! ```text
//! [u32 body_len]                          // bytes after this field
//! [u32 round] [u32 sender_rank]           // lockstep check
//! [u64 sent_total]                        // sender's post-fault send total
//! [u32 halted] [u32 msg_count] [u32 stats_len] [u32 churn_count]
//! <stats section, stats_len bytes>        // identical in every peer frame
//! <churn_count churn events, 20 bytes each>
//! <msg_count message records>
//! message record := [u64 edge] [u32 sender] [u32 receiver]
//!                   [u32 payload_len] <payload bytes>
//! ```
//!
//! The stats section is what makes every rank's [`MessageLedger`] and
//! [`ExecutionMetrics`] **globally identical** (the cross-backend identity
//! contract of `docs/TRANSPORT.md`): each rank tallies its own sends per
//! edge at the barrier in a dense table indexed by edge, charges its ledger
//! once per touched edge, broadcasts per-node send counts, the per-edge
//! `(count, bytes)` tally in ascending edge order and this round's fault
//! deltas, and applies every peer's stats through the order-independent
//! bulk recorders:
//!
//! ```text
//! stats := [u32 node_entries] ([u32 node] [u64 count])*
//!          [u32 edge_entries] ([u64 edge] [u64 count] [u64 bytes])*
//!          [u64 dropped_random] [u64 dropped_link_cut]
//!          [u64 dropped_crash]  [u64 duplicated]
//! ```
//!
//! The churn section carries the [`ChurnEvent`](crate::churn::ChurnEvent)s
//! the sending rank applied at the top of this round, in canonical order
//! and in their [`WireCodec`] encoding. Every rank resolves the same
//! [`ChurnPlan`](crate::churn::ChurnPlan) locally, so the section is a
//! *verification* channel, not an information channel: the receiver decodes
//! each event and checks it against the event it applied itself — any
//! difference means the ranks' topologies diverged, and the barrier fails
//! as desynchronized rather than silently running on different graphs.
//!
//! Mailboxes are filled in ascending rank-slot order (a rank drains its own
//! pending messages at its own slot); because ranks own ascending contiguous
//! node ranges and every frame lists messages in canonical (node, send)
//! order, this reproduces exactly the mailbox order of the serial in-process
//! barrier.
//!
//! `sent_total` sums to the network-wide send count, so
//! [`pending_messages`](crate::engine::Network::pending_messages) agrees
//! across ranks; `halted` counts let every rank agree on global
//! termination for [`run_until_halt`](crate::engine::Network::run_until_halt).
//!
//! # Connection setup
//!
//! Rank `r` listens on `peers[r]`, actively connects to every rank below it
//! (capped exponential backoff with deterministic seeded jitter, retrying
//! until `connect_timeout`), and accepts one connection from every rank
//! above it. Both sides exchange a 16-byte handshake
//! (`magic, version, world, rank`) before any frame moves. All sockets run
//! with `TCP_NODELAY`; every setup failure surfaces as
//! [`RuntimeError::Transport`] naming the rank, peer address, attempt count
//! and elapsed time.
//!
//! # Failure semantics and recovery
//!
//! Established sockets are *supervised*: reads poll in short slices and
//! accumulate elapsed time against `io_timeout`. A peer that stalls but
//! stays within the deadline is **`PeerSlow`** — the barrier silently keeps
//! waiting. A closed connection (EOF/reset), a write failure, or a stall
//! past `io_timeout` declares the peer **`PeerDead`**, and the configured
//! [`RecoveryPolicy`] decides what happens next:
//!
//! * [`RecoveryPolicy::FailFast`] (default) — the barrier aborts with a
//!   precise [`RuntimeError::Transport`].
//! * [`RecoveryPolicy::Retry`] — the barrier blocks on the retained
//!   listener and waits for the dead rank to relaunch from its checkpoint
//!   and rejoin via [`TcpTransport::resume_from`]. The rejoin handshake
//!   ([`RejoinHello`]) is checkpoint-anchored: the hello carries the
//!   resume round, and a survivor at barrier round `r` only admits a peer
//!   resuming at round `r - 1` (anything else is rejected as
//!   desynchronized). On admission the survivor re-sends its current
//!   round's frame, so the rejoined rank re-enters the mesh at the next
//!   barrier with nothing lost.
//!
//! `docs/RECOVERY.md` specifies the rejoin handshake and the bit-identity
//! contract of checkpoint-based recovery.
//!
//! The backend does not support [`TraceMode::Full`](crate::trace::TraceMode)
//! (canonical-order trace events cannot be reconstructed from per-peer
//! frames without shipping the full event stream);
//! [`Network::with_transport`](crate::engine::Network::with_transport)
//! rejects traced configs up front.
//!
//! [`MessageLedger`]: crate::metrics::MessageLedger
//! [`ExecutionMetrics`]: crate::metrics::ExecutionMetrics

use super::codec::{CodecError, WireCodec};
use super::{BarrierOutcome, RecoveryPolicy, RoundBarrier, Transport};
use crate::error::{RuntimeError, RuntimeResult};
use crate::metrics::{EdgeTally, FaultTotals, MessageLedger};
use crate::node::{Envelope, Outgoing};
use freelunch_graph::{EdgeId, NodeId};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Handshake magic: `"FLTP"` (freelunch transport).
const MAGIC: u32 = 0x464C_5450;
/// Frame protocol version; bumped on any wire-format change (v2 added the
/// churn-event section).
const VERSION: u32 = 2;
/// Rejoin-handshake magic: `"FLRJ"` (freelunch rejoin), first bytes of a
/// [`RejoinHello`] frame.
const REJOIN_MAGIC: [u8; 4] = *b"FLRJ";
/// Rejoin-handshake version; bumped on any [`RejoinHello`] layout change.
const REJOIN_VERSION: u8 = 1;
/// Rejoin-ack status word: the survivor admits the rejoining rank.
const REJOIN_OK: u32 = 1;
/// Rejoin-ack status word: the rejoin was rejected (desynchronized rounds).
const REJOIN_REJECT: u32 = 0;
/// Upper bound on a frame body, to reject absurd lengths from a corrupt or
/// desynchronized stream before allocating.
const MAX_BODY: u32 = 1 << 30;
/// Fixed part of the frame body: round, sender_rank, sent_total, halted,
/// msg_count, stats_len, churn_count.
const BODY_FIXED: usize = 4 + 4 + 8 + 4 + 4 + 4 + 4;
/// Liveness poll slice: socket reads time out in slices this long and
/// accumulate elapsed time against `io_timeout`, so a dead peer is detected
/// within one slice of the deadline instead of hanging a full blocking read.
const POLL_SLICE: Duration = Duration::from_millis(50);

/// Configuration of a [`TcpTransport`] process group.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This process's rank in `0..peers.len()`.
    pub rank: usize,
    /// One listen address per rank, identical on every process; rank `r`
    /// listens on `peers[r]`. `peers.len()` is the world size.
    pub peers: Vec<SocketAddr>,
    /// Deadline for the whole connection setup (active connects retry until
    /// it expires; pending accepts abort when it does).
    pub connect_timeout: Duration,
    /// Liveness deadline on established sockets. A peer that stalls longer
    /// than this at a barrier is declared dead (`PeerDead`); shorter stalls
    /// are `PeerSlow` and waited out. What happens to a dead peer is
    /// decided by [`TcpConfig::recovery`].
    pub io_timeout: Duration,
    /// Reaction to a peer declared dead at the barrier (default:
    /// [`RecoveryPolicy::FailFast`], the pre-recovery behavior).
    pub recovery: RecoveryPolicy,
    /// First connect-retry backoff delay; each failed attempt doubles it up
    /// to [`TcpConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on a single connect-retry backoff delay.
    pub backoff_cap: Duration,
    /// Seed of the deterministic backoff jitter (each attempt draws its
    /// jitter from a splitmix64 stream keyed by this seed and the attempt
    /// number, so retry timing is reproducible for a given config).
    pub backoff_seed: u64,
}

impl TcpConfig {
    /// A config with default timeouts (10 s connect, 30 s liveness), the
    /// fail-fast recovery policy, and 10 ms → 500 ms connect backoff.
    pub fn new(rank: usize, peers: Vec<SocketAddr>) -> Self {
        TcpConfig {
            rank,
            peers,
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(30),
            recovery: RecoveryPolicy::FailFast,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            backoff_seed: 0,
        }
    }

    /// Sets the [`RecoveryPolicy`] applied when a peer is declared dead.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the connect-retry backoff parameters (first delay, cap, jitter
    /// seed).
    pub fn with_backoff(mut self, base: Duration, cap: Duration, seed: u64) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self.backoff_seed = seed;
        self
    }
}

/// The checkpoint-anchored rejoin handshake frame (24 bytes on the wire).
///
/// A rank relaunched from a checkpoint dials every survivor's listener and
/// opens with this frame: `"FLRJ"` magic, a version byte, the world size,
/// its rank, and the round its checkpoint resumes from. A survivor blocked
/// at barrier round `r` under [`RecoveryPolicy::Retry`] admits the peer
/// only if `resume_round + 1 == r` — a stale or future checkpoint is
/// rejected as desynchronized with a precise error on both sides (see
/// `docs/RECOVERY.md`).
///
/// ```text
/// [0..4]   magic "FLRJ"
/// [4]      version (1)
/// [5..8]   zero padding
/// [8..12]  u32 world
/// [12..16] u32 rank
/// [16..20] u32 resume_round
/// [20..24] zero padding
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinHello {
    /// World size the rejoining rank was configured with (must match the
    /// survivor's).
    pub world: u32,
    /// Rank of the rejoining process (must be the rank the survivor
    /// declared dead).
    pub rank: u32,
    /// Round the rejoining rank's checkpoint resumes from; its next barrier
    /// is `resume_round + 1`.
    pub resume_round: u32,
}

impl RejoinHello {
    /// Exact encoded size of a rejoin hello.
    pub const WIRE_BYTES: usize = 24;
}

impl WireCodec for RejoinHello {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&REJOIN_MAGIC);
        buf.push(REJOIN_VERSION);
        buf.extend_from_slice(&[0u8; 3]);
        buf.extend_from_slice(&self.world.to_le_bytes());
        buf.extend_from_slice(&self.rank.to_le_bytes());
        buf.extend_from_slice(&self.resume_round.to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
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
        if bytes[..4] != REJOIN_MAGIC {
            let tag = bytes[..4]
                .iter()
                .zip(REJOIN_MAGIC.iter())
                .find(|(got, want)| got != want)
                .map(|(got, _)| *got)
                .unwrap_or(bytes[0]);
            return Err(CodecError::InvalidTag { tag });
        }
        if bytes[4] != REJOIN_VERSION {
            return Err(CodecError::InvalidTag { tag: bytes[4] });
        }
        if bytes[5..8] != [0u8; 3] || bytes[20..24] != [0u8; 4] {
            return Err(CodecError::InvalidPadding);
        }
        let word =
            |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        Ok(RejoinHello {
            world: word(8),
            rank: word(12),
            resume_round: word(16),
        })
    }
}

/// The TCP delivery backend (the module docs above describe the protocol).
pub struct TcpTransport<M> {
    rank: usize,
    world: usize,
    /// The full config, retained for peer addresses, timeouts, the recovery
    /// policy and the backoff parameters.
    config: TcpConfig,
    /// This rank's listener, retained after setup so a dead peer can rejoin
    /// the mesh through it (kept non-blocking).
    listener: TcpListener,
    /// Established streams, indexed by peer rank (`None` at the own slot
    /// and at slots whose peer is dead or awaiting rejoin).
    streams: Vec<Option<TcpStream>>,
    /// Per-peer message-record bytes accumulated while draining the grid.
    frame_bufs: Vec<Vec<u8>>,
    /// Per-peer record counts matching `frame_bufs`.
    frame_counts: Vec<u32>,
    /// Per-peer fully assembled frames of the current round, kept so a
    /// rejoined peer can be re-sent the frame it missed.
    last_frames: Vec<Vec<u8>>,
    /// Incoming frame body buffer, reused across rounds.
    read_buf: Vec<u8>,
    /// Payload encoding scratch.
    payload_buf: Vec<u8>,
    /// The shared stats section of this round's frames.
    stats_buf: Vec<u8>,
    /// The encoded churn-event section of this round's frames (identical
    /// in every peer frame, like the stats).
    churn_buf: Vec<u8>,
    /// Messages addressed to locally owned receivers, held until this
    /// rank's slot in the delivery order comes up.
    local_pending: Vec<Outgoing<M>>,
    /// Per-edge `(count, bytes)` aggregates of this round's own sends.
    edge_tally: EdgeTally,
    /// Ledger fault totals as of the previous barrier, for delta encoding.
    prev_faults: FaultTotals,
    /// Peers whose death was detected during this barrier's write phase and
    /// whose rejoin is still pending (resolved at their read slot).
    rejoin_pending: Vec<bool>,
    /// Cumulative count of peers re-admitted through the rejoin handshake.
    recovered_total: u64,
}

impl<M> fmt::Debug for TcpTransport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .field("recovery", &self.config.recovery)
            .finish_non_exhaustive()
    }
}

fn transport_io(context: &str, err: std::io::Error) -> RuntimeError {
    RuntimeError::transport(format!("{context}: {err}"))
}

/// Evidence that a peer is dead, carried from the I/O layer to the
/// [`RecoveryPolicy`] dispatch. A stall still within the liveness deadline
/// is `PeerSlow` and never produces one of these — the read loop simply
/// keeps polling.
struct PeerDeath {
    peer: usize,
    /// Time spent waiting before the peer was declared dead (zero when the
    /// death was immediate, e.g. a reset connection on write).
    elapsed: Duration,
    /// Liveness polls performed before declaring death.
    polls: u32,
    cause: String,
}

impl PeerDeath {
    fn into_error(self, rank: usize, addr: &SocketAddr) -> RuntimeError {
        if self.polls > 0 {
            RuntimeError::transport(format!(
                "rank {rank}: peer rank {} at {addr} is dead (PeerDead) after {:?} and {} \
                 liveness poll(s): {}",
                self.peer, self.elapsed, self.polls, self.cause
            ))
        } else {
            RuntimeError::transport(format!(
                "rank {rank}: peer rank {} at {addr} is dead (PeerDead): {}",
                self.peer, self.cause
            ))
        }
    }
}

/// Why a frame read failed: the peer died (subject to the recovery policy)
/// or the stream carried a protocol violation (always fatal).
enum ReadFailure {
    Dead(PeerDeath),
    Fatal(RuntimeError),
}

/// Reads exactly `buf.len()` bytes, polling in [`POLL_SLICE`] slices and
/// accumulating elapsed time against `deadline_len`. Partial progress is
/// kept across slices, so a slow peer (`PeerSlow`) is waited out; EOF, a
/// reset, or a stall past the deadline declares the peer dead.
fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline_len: Duration,
    peer: usize,
    context: &str,
) -> Result<(), PeerDeath> {
    let start = Instant::now();
    let mut filled = 0usize;
    let mut polls = 0u32;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(PeerDeath {
                    peer,
                    elapsed: start.elapsed(),
                    polls,
                    cause: format!("{context}: connection closed (EOF)"),
                })
            }
            Ok(n) => filled += n,
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                polls += 1;
                if start.elapsed() >= deadline_len {
                    return Err(PeerDeath {
                        peer,
                        elapsed: start.elapsed(),
                        polls,
                        cause: format!(
                            "{context}: liveness deadline {deadline_len:?} exceeded \
                             (PeerSlow escalated to PeerDead)"
                        ),
                    });
                }
            }
            Err(err) => {
                return Err(PeerDeath {
                    peer,
                    elapsed: start.elapsed(),
                    polls,
                    cause: format!("{context}: {err}"),
                })
            }
        }
    }
    Ok(())
}

/// The poll-slice read timeout installed on established sockets.
fn poll_slice(io_timeout: Duration) -> Duration {
    POLL_SLICE.min(io_timeout).max(Duration::from_millis(1))
}

/// Delay before connect-retry `attempt` (1-based): capped exponential
/// growth from `backoff_base`, with the upper half of each window drawn
/// from a splitmix64 stream keyed by `(backoff_seed, attempt)` — capped,
/// jittered, and fully deterministic for a given config.
fn backoff_delay(config: &TcpConfig, attempt: u32) -> Duration {
    let base = (config.backoff_base.as_nanos() as u64).max(1);
    let cap = (config.backoff_cap.as_nanos() as u64).max(base);
    let mut window = base;
    for _ in 1..attempt {
        window = window.saturating_mul(2).min(cap);
        if window == cap {
            break;
        }
    }
    let half = window / 2;
    let jitter = crate::fault::splitmix64(
        config
            .backoff_seed
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt),
    ) % (half + 1);
    Duration::from_nanos(half + jitter)
}

/// Dials `config.peers[peer]` with capped exponential backoff and seeded
/// jitter, retrying until `deadline`. The deadline is checked *before*
/// every sleep, so a nearly expired budget can never overshoot by a full
/// retry interval. The error names the rank, peer address, attempt count
/// and elapsed time.
fn dial_with_backoff(
    config: &TcpConfig,
    peer: usize,
    deadline: Instant,
    purpose: &str,
) -> RuntimeResult<TcpStream> {
    let started = Instant::now();
    let mut attempt: u32 = 0;
    loop {
        match TcpStream::connect_timeout(
            &config.peers[peer],
            Duration::from_millis(200).min(config.connect_timeout),
        ) {
            Ok(stream) => return Ok(stream),
            Err(err) => {
                attempt += 1;
                let delay = backoff_delay(config, attempt);
                let now = Instant::now();
                if now >= deadline || now + delay > deadline {
                    return Err(RuntimeError::transport(format!(
                        "rank {}: {purpose} rank {peer} at {} failed after {attempt} \
                         attempt(s) over {:?} (connect_timeout {:?}): {err}",
                        config.rank,
                        config.peers[peer],
                        started.elapsed(),
                        config.connect_timeout
                    )));
                }
                std::thread::sleep(delay);
            }
        }
    }
}

/// Installs the supervised-socket options: `TCP_NODELAY`, poll-slice read
/// timeout, `io_timeout` write timeout.
fn configure_stream(stream: &TcpStream, config: &TcpConfig) -> RuntimeResult<()> {
    stream
        .set_nodelay(true)
        .map_err(|e| transport_io("set_nodelay", e))?;
    stream
        .set_read_timeout(Some(poll_slice(config.io_timeout)))
        .map_err(|e| transport_io("set_read_timeout", e))?;
    stream
        .set_write_timeout(Some(config.io_timeout))
        .map_err(|e| transport_io("set_write_timeout", e))
}

fn write_handshake(stream: &mut TcpStream, world: usize, rank: usize) -> RuntimeResult<()> {
    let mut hs = [0u8; 16];
    hs[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    hs[4..8].copy_from_slice(&VERSION.to_le_bytes());
    hs[8..12].copy_from_slice(&(world as u32).to_le_bytes());
    hs[12..16].copy_from_slice(&(rank as u32).to_le_bytes());
    stream
        .write_all(&hs)
        .map_err(|e| transport_io("handshake write", e))
}

fn read_handshake(
    stream: &mut TcpStream,
    world: usize,
    deadline_len: Duration,
    rank: usize,
) -> RuntimeResult<usize> {
    let mut hs = [0u8; 16];
    read_exact_deadline(stream, &mut hs, deadline_len, usize::MAX, "handshake read").map_err(
        |death| {
            RuntimeError::transport(format!(
                "rank {rank}: handshake read failed after {:?} and {} poll(s): {}",
                death.elapsed, death.polls, death.cause
            ))
        },
    )?;
    let word = |i: usize| u32::from_le_bytes([hs[i], hs[i + 1], hs[i + 2], hs[i + 3]]);
    if word(0) != MAGIC {
        return Err(RuntimeError::transport(format!(
            "handshake: bad magic {:#010x} (not a freelunch transport peer?)",
            word(0)
        )));
    }
    if word(4) != VERSION {
        return Err(RuntimeError::transport(format!(
            "handshake: protocol version mismatch: peer speaks v{}, this build speaks v{VERSION}",
            word(4)
        )));
    }
    if word(8) as usize != world {
        return Err(RuntimeError::transport(format!(
            "handshake: world-size mismatch: peer configured for {} ranks, this process for {world}",
            word(8)
        )));
    }
    Ok(word(12) as usize)
}

/// Writes the 8-byte rejoin ack: `[u32 status] [u32 barrier_round]`.
fn write_rejoin_ack(stream: &mut TcpStream, status: u32, round: u32) -> std::io::Result<()> {
    let mut ack = [0u8; 8];
    ack[0..4].copy_from_slice(&status.to_le_bytes());
    ack[4..8].copy_from_slice(&round.to_le_bytes());
    stream.write_all(&ack)?;
    stream.flush()
}

impl<M> TcpTransport<M> {
    /// Binds a listener on `config.peers[config.rank]` and establishes the
    /// full peer mesh. This is the constructor for genuinely separate
    /// processes (see `examples/tcp_transport.rs`).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] on an invalid config, bind failure, or
    /// any peer not completing its handshake before `connect_timeout`.
    pub fn connect(config: &TcpConfig) -> RuntimeResult<Self> {
        if config.rank >= config.peers.len() {
            return Err(RuntimeError::transport(format!(
                "rank {} out of range for a {}-rank world",
                config.rank,
                config.peers.len()
            )));
        }
        let listener = TcpListener::bind(config.peers[config.rank])
            .map_err(|e| transport_io("bind listener", e))?;
        TcpTransport::with_listener(listener, config)
    }

    /// Establishes the peer mesh over an already-bound listener. Tests bind
    /// every rank's listener on `127.0.0.1:0` *first*, collect the actual
    /// addresses into `config.peers`, and only then connect — which makes
    /// the rendezvous free of port races.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] on an invalid config or any peer not
    /// completing its handshake before `connect_timeout`.
    pub fn with_listener(listener: TcpListener, config: &TcpConfig) -> RuntimeResult<Self> {
        let world = config.peers.len();
        let rank = config.rank;
        if rank >= world {
            return Err(RuntimeError::transport(format!(
                "rank {rank} out of range for a {world}-rank world"
            )));
        }
        let setup_started = Instant::now();
        let deadline = setup_started + config.connect_timeout;
        let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();

        // Actively connect to every lower rank (their listeners may still be
        // coming up, so retry with backoff until the deadline).
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let mut stream = dial_with_backoff(config, peer, deadline, "connect to")?;
            configure_stream(&stream, config)?;
            write_handshake(&mut stream, world, rank)?;
            let handshake_window = config
                .io_timeout
                .max(deadline.saturating_duration_since(Instant::now()));
            let peer_rank = read_handshake(&mut stream, world, handshake_window, rank)?;
            if peer_rank != peer {
                return Err(RuntimeError::transport(format!(
                    "connected to {} expecting rank {peer}, but it identifies as rank {peer_rank}",
                    config.peers[peer]
                )));
            }
            *slot = Some(stream);
        }

        // Accept one connection from every higher rank.
        listener
            .set_nonblocking(true)
            .map_err(|e| transport_io("listener set_nonblocking", e))?;
        let mut expected = world - rank - 1;
        let mut accept_polls: u32 = 0;
        while expected > 0 {
            match listener.accept() {
                Ok((mut stream, addr)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| transport_io("stream set_blocking", e))?;
                    configure_stream(&stream, config)?;
                    let handshake_window = config
                        .io_timeout
                        .max(deadline.saturating_duration_since(Instant::now()));
                    let peer_rank = read_handshake(&mut stream, world, handshake_window, rank)?;
                    if peer_rank <= rank || peer_rank >= world {
                        return Err(RuntimeError::transport(format!(
                            "accepted {addr} identifying as rank {peer_rank}, which must not \
                             connect to rank {rank}"
                        )));
                    }
                    if streams[peer_rank].is_some() {
                        return Err(RuntimeError::transport(format!(
                            "rank {peer_rank} connected twice"
                        )));
                    }
                    write_handshake(&mut stream, world, rank)?;
                    streams[peer_rank] = Some(stream);
                    expected -= 1;
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    accept_polls += 1;
                    if Instant::now() >= deadline {
                        return Err(RuntimeError::transport(format!(
                            "rank {rank} at {}: timed out after {:?} and {accept_polls} \
                             accept poll(s) waiting for {expected} higher-rank peer(s) to \
                             connect (connect_timeout {:?})",
                            config.peers[rank],
                            setup_started.elapsed(),
                            config.connect_timeout
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(err) => return Err(transport_io("accept", err)),
            }
        }

        Ok(TcpTransport::assemble(
            listener,
            config.clone(),
            streams,
            FaultTotals::default(),
        ))
    }

    /// Reconnects a rank relaunched from a checkpoint to the surviving
    /// mesh: binds this rank's listener, dials every survivor with the
    /// [`RejoinHello`] handshake (carrying `resume_round`, the round the
    /// restored [`Network`](crate::engine::Network) reports as
    /// [`current_round`](crate::engine::Network::current_round)), and waits
    /// for each survivor's ack. Survivors blocked at barrier round
    /// `resume_round + 1` under [`RecoveryPolicy::Retry`] admit the rank
    /// and re-send their frames; the next [`run_round`] call then re-enters
    /// the mesh in lockstep.
    ///
    /// `fault_baseline` must be the restored ledger's
    /// [`fault_totals`](crate::metrics::MessageLedger::fault_totals)
    /// (available as [`NetworkCheckpoint::fault_totals`]) so the next
    /// frame's fault deltas pick up exactly where the checkpoint left off.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] on an invalid config, bind failure, a
    /// survivor rejecting the rejoin as desynchronized, or any survivor not
    /// acking before `connect_timeout`.
    ///
    /// [`run_round`]: crate::engine::Network::run_round
    /// [`NetworkCheckpoint::fault_totals`]: crate::checkpoint::NetworkCheckpoint::fault_totals
    pub fn resume_from(
        config: &TcpConfig,
        resume_round: u32,
        fault_baseline: FaultTotals,
    ) -> RuntimeResult<Self> {
        let world = config.peers.len();
        let rank = config.rank;
        if rank >= world {
            return Err(RuntimeError::transport(format!(
                "rank {rank} out of range for a {world}-rank world"
            )));
        }
        let listener = TcpListener::bind(config.peers[rank])
            .map_err(|e| transport_io("bind listener for rejoin", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| transport_io("listener set_nonblocking", e))?;
        let deadline = Instant::now() + config.connect_timeout;
        let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
        let hello = RejoinHello {
            world: world as u32,
            rank: rank as u32,
            resume_round,
        };
        let mut hello_buf = Vec::with_capacity(RejoinHello::WIRE_BYTES);
        hello.encode(&mut hello_buf);
        for (peer, slot) in streams.iter_mut().enumerate() {
            if peer == rank {
                continue;
            }
            let mut stream = dial_with_backoff(config, peer, deadline, "rejoin-dial survivor")?;
            configure_stream(&stream, config)?;
            stream
                .write_all(&hello_buf)
                .and_then(|_| stream.flush())
                .map_err(|e| {
                    transport_io(&format!("rank {rank}: rejoin hello to rank {peer}"), e)
                })?;
            // The survivor only acks once its barrier reaches the dead slot,
            // so the ack window is the full connect budget.
            let ack_window = config
                .connect_timeout
                .max(deadline.saturating_duration_since(Instant::now()));
            let mut ack = [0u8; 8];
            read_exact_deadline(&mut stream, &mut ack, ack_window, peer, "rejoin ack")
                .map_err(|death| death.into_error(rank, &config.peers[peer]))?;
            let status = u32::from_le_bytes([ack[0], ack[1], ack[2], ack[3]]);
            let barrier_round = u32::from_le_bytes([ack[4], ack[5], ack[6], ack[7]]);
            if status != REJOIN_OK {
                return Err(RuntimeError::transport(format!(
                    "rank {rank}: rank {peer} rejected the rejoin as desynchronized: its \
                     barrier is at round {barrier_round}, this checkpoint resumes at round \
                     {resume_round} (next barrier {})",
                    resume_round.wrapping_add(1)
                )));
            }
            if barrier_round != resume_round.wrapping_add(1) {
                return Err(RuntimeError::transport(format!(
                    "rank {rank}: rank {peer} acked the rejoin but reports barrier round \
                     {barrier_round}, expected {}",
                    resume_round.wrapping_add(1)
                )));
            }
            *slot = Some(stream);
        }
        Ok(TcpTransport::assemble(
            listener,
            config.clone(),
            streams,
            fault_baseline,
        ))
    }

    fn assemble(
        listener: TcpListener,
        config: TcpConfig,
        streams: Vec<Option<TcpStream>>,
        prev_faults: FaultTotals,
    ) -> Self {
        let world = config.peers.len();
        TcpTransport {
            rank: config.rank,
            world,
            listener,
            streams,
            frame_bufs: (0..world).map(|_| Vec::new()).collect(),
            frame_counts: vec![0; world],
            last_frames: (0..world).map(|_| Vec::new()).collect(),
            read_buf: Vec::new(),
            payload_buf: Vec::new(),
            stats_buf: Vec::new(),
            churn_buf: Vec::new(),
            local_pending: Vec::new(),
            edge_tally: EdgeTally::default(),
            prev_faults,
            rejoin_pending: vec![false; world],
            recovered_total: 0,
            config,
        }
    }

    /// Cumulative number of peers re-admitted through the rejoin handshake
    /// over this transport's lifetime.
    pub fn recovered_peers_total(&self) -> u64 {
        self.recovered_total
    }

    /// Blocks on the retained listener until the dead `slot` rank rejoins
    /// with a round-consistent [`RejoinHello`], acks it, installs the fresh
    /// stream, and re-sends this round's frame. Waits up to
    /// `attempts × io_timeout`.
    fn recover_peer(&mut self, slot: usize, round: u32, attempts: u32) -> RuntimeResult<()> {
        self.streams[slot] = None;
        self.rejoin_pending[slot] = false;
        let started = Instant::now();
        let deadline = started + self.config.io_timeout * attempts.max(1);
        let mut accept_polls: u32 = 0;
        let (mut stream, addr) = loop {
            match self.listener.accept() {
                Ok(pair) => break pair,
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    accept_polls += 1;
                    if Instant::now() >= deadline {
                        return Err(RuntimeError::transport(format!(
                            "rank {}: waited {:?} ({accept_polls} poll(s)) at the round-{round} \
                             barrier for dead rank {slot} at {} to rejoin from its checkpoint; \
                             giving up (RecoveryPolicy::Retry {{ attempts: {attempts} }} \
                             exhausted)",
                            self.rank,
                            started.elapsed(),
                            self.config.peers[slot]
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(err) => return Err(transport_io("rejoin accept", err)),
            }
        };
        stream
            .set_nonblocking(false)
            .map_err(|e| transport_io("stream set_blocking", e))?;
        configure_stream(&stream, &self.config)?;
        let mut hello_bytes = [0u8; RejoinHello::WIRE_BYTES];
        read_exact_deadline(
            &mut stream,
            &mut hello_bytes,
            self.config.io_timeout,
            slot,
            "rejoin hello",
        )
        .map_err(|death| death.into_error(self.rank, &addr))?;
        let hello = RejoinHello::decode(&hello_bytes).map_err(|e| {
            RuntimeError::transport(format!(
                "rank {}: rejoin hello from {addr} failed to decode: {e}",
                self.rank
            ))
        })?;
        if hello.world as usize != self.world {
            let _ = write_rejoin_ack(&mut stream, REJOIN_REJECT, round);
            return Err(RuntimeError::transport(format!(
                "rank {}: rejoin hello from {addr} is configured for a {}-rank world, this \
                 mesh has {} ranks",
                self.rank, hello.world, self.world
            )));
        }
        if hello.rank as usize != slot {
            let _ = write_rejoin_ack(&mut stream, REJOIN_REJECT, round);
            return Err(RuntimeError::transport(format!(
                "rank {}: expected dead rank {slot} to rejoin, but {addr} identifies as \
                 rank {}",
                self.rank, hello.rank
            )));
        }
        if hello.resume_round.wrapping_add(1) != round {
            let _ = write_rejoin_ack(&mut stream, REJOIN_REJECT, round);
            return Err(RuntimeError::transport(format!(
                "rank {}: rejoin from rank {slot} is desynchronized: its checkpoint resumes \
                 at round {} (next barrier {}), but this barrier is at round {round}; \
                 relaunch it from the checkpoint of round {}",
                self.rank,
                hello.resume_round,
                hello.resume_round.wrapping_add(1),
                round.saturating_sub(1)
            )));
        }
        write_rejoin_ack(&mut stream, REJOIN_OK, round)
            .map_err(|e| transport_io(&format!("rejoin ack to rank {slot}"), e))?;
        // Whatever this barrier already wrote went to the dead socket and is
        // gone; re-send this round's frame on the fresh connection.
        stream
            .write_all(&self.last_frames[slot])
            .and_then(|_| stream.flush())
            .map_err(|e| transport_io(&format!("re-send frame to rejoined rank {slot}"), e))?;
        self.streams[slot] = Some(stream);
        Ok(())
    }
}

/// Sequential little-endian reader over a received frame body.
struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    peer: usize,
}

impl<'a> FrameReader<'a> {
    fn take(&mut self, len: usize) -> RuntimeResult<&'a [u8]> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(RuntimeError::transport(format!(
                "frame from rank {} truncated: wanted {len} bytes at offset {}, body is {} bytes",
                self.peer,
                self.pos,
                self.buf.len()
            ))),
        }
    }

    fn u32(&mut self) -> RuntimeResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> RuntimeResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// The contiguous node range rank `rank` of `world` owns (the same
/// `div_ceil` chunking the sharded execute phase uses).
fn rank_range(rank: usize, world: usize, node_count: usize) -> Range<usize> {
    let chunk = node_count.div_ceil(world);
    let lo = (rank * chunk).min(node_count);
    let hi = (lo + chunk).min(node_count);
    lo..hi
}

impl<M: WireCodec + Clone + fmt::Debug + Send + Sync> TcpTransport<M> {
    /// Drains the local send grid — one column, so its buckets in row
    /// order are the canonical send order: tallies every send on its edge,
    /// stages locally addressed messages, and encodes remote ones into
    /// per-peer record buffers. Returns the per-node count entries for the
    /// stats section: the run lengths of the senders, whose messages lie
    /// next to each other in that order.
    fn stage_local_sends(
        &mut self,
        grid: &mut [Vec<Outgoing<M>>],
        chunk: usize,
    ) -> RuntimeResult<Vec<(u32, u64)>> {
        let mut node_counts: Vec<(u32, u64)> = Vec::new();
        for bucket in grid.iter_mut() {
            for outgoing in bucket.drain(..) {
                match node_counts.last_mut() {
                    Some((node, count)) if *node == outgoing.sender.raw() => *count += 1,
                    _ => node_counts.push((outgoing.sender.raw(), 1)),
                }
                self.edge_tally.add(outgoing.edge.index(), outgoing.bytes);
                let dest = outgoing.receiver.index() / chunk;
                if dest == self.rank {
                    self.local_pending.push(outgoing);
                    continue;
                }
                self.payload_buf.clear();
                outgoing.payload.encode(&mut self.payload_buf);
                if self.payload_buf.len() as u64 != outgoing.bytes {
                    return Err(RuntimeError::transport(format!(
                        "codec/payload_bytes mismatch on edge {}: encoded {} bytes, \
                         payload_bytes charges {} (see docs/TRANSPORT.md)",
                        outgoing.edge,
                        self.payload_buf.len(),
                        outgoing.bytes
                    )));
                }
                let buf = &mut self.frame_bufs[dest];
                buf.extend_from_slice(&outgoing.edge.raw().to_le_bytes());
                buf.extend_from_slice(&outgoing.sender.raw().to_le_bytes());
                buf.extend_from_slice(&outgoing.receiver.raw().to_le_bytes());
                buf.extend_from_slice(&(self.payload_buf.len() as u32).to_le_bytes());
                buf.extend_from_slice(&self.payload_buf);
                self.frame_counts[dest] += 1;
            }
        }
        Ok(node_counts)
    }

    /// Builds the stats section shared by every peer frame for this round,
    /// draining the edge tally: each edge entry is charged to the ledger
    /// with one bulk record as it is written.
    fn build_stats(
        &mut self,
        node_counts: &[(u32, u64)],
        faults: &FaultTotals,
        ledger: &mut MessageLedger,
    ) {
        self.stats_buf.clear();
        let buf = &mut self.stats_buf;
        buf.extend_from_slice(&(node_counts.len() as u32).to_le_bytes());
        for &(node, count) in node_counts {
            buf.extend_from_slice(&node.to_le_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
        }
        let entries_at = buf.len();
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut edge_entries = 0u32;
        self.edge_tally.drain(|edge, count, bytes| {
            ledger.record_bulk(edge, count, bytes);
            buf.extend_from_slice(&(edge as u64).to_le_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
            buf.extend_from_slice(&bytes.to_le_bytes());
            edge_entries += 1;
        });
        buf[entries_at..entries_at + 4].copy_from_slice(&edge_entries.to_le_bytes());
        let delta = |now: u64, prev: u64| now - prev;
        buf.extend_from_slice(
            &delta(faults.dropped_random, self.prev_faults.dropped_random).to_le_bytes(),
        );
        buf.extend_from_slice(
            &delta(faults.dropped_link_cut, self.prev_faults.dropped_link_cut).to_le_bytes(),
        );
        buf.extend_from_slice(
            &delta(faults.dropped_crash, self.prev_faults.dropped_crash).to_le_bytes(),
        );
        buf.extend_from_slice(&delta(faults.duplicated, self.prev_faults.duplicated).to_le_bytes());
    }

    /// Assembles this round's frame for peer `peer` into
    /// `last_frames[peer]` (retained for rejoin re-sends).
    fn build_frame(
        &mut self,
        peer: usize,
        round: u32,
        sent_total: u64,
        halted: u32,
    ) -> RuntimeResult<()> {
        let body_len =
            BODY_FIXED + self.stats_buf.len() + self.churn_buf.len() + self.frame_bufs[peer].len();
        if body_len as u64 > u64::from(MAX_BODY) {
            return Err(RuntimeError::transport(format!(
                "frame to rank {peer} exceeds the {MAX_BODY}-byte body limit ({body_len} bytes)"
            )));
        }
        let frame = &mut self.last_frames[peer];
        frame.clear();
        frame.extend_from_slice(&(body_len as u32).to_le_bytes());
        frame.extend_from_slice(&round.to_le_bytes());
        frame.extend_from_slice(&(self.rank as u32).to_le_bytes());
        frame.extend_from_slice(&sent_total.to_le_bytes());
        frame.extend_from_slice(&halted.to_le_bytes());
        frame.extend_from_slice(&self.frame_counts[peer].to_le_bytes());
        frame.extend_from_slice(&(self.stats_buf.len() as u32).to_le_bytes());
        let churn_count = self.churn_buf.len() / crate::churn::ChurnEvent::WIRE_BYTES;
        frame.extend_from_slice(&(churn_count as u32).to_le_bytes());
        frame.extend_from_slice(&self.stats_buf);
        frame.extend_from_slice(&self.churn_buf);
        frame.extend_from_slice(&self.frame_bufs[peer]);
        Ok(())
    }

    /// Writes the assembled frame to peer `peer` (one buffered `write_all`).
    /// A failure is peer death, dispatched on the recovery policy.
    fn send_frame(&mut self, peer: usize) -> Result<(), PeerDeath> {
        let stream = match self.streams[peer].as_mut() {
            Some(stream) => stream,
            None => {
                return Err(PeerDeath {
                    peer,
                    elapsed: Duration::ZERO,
                    polls: 0,
                    cause: "no live connection".to_string(),
                })
            }
        };
        stream
            .write_all(&self.last_frames[peer])
            .and_then(|_| stream.flush())
            .map_err(|err| PeerDeath {
                peer,
                elapsed: Duration::ZERO,
                polls: 0,
                cause: format!("write frame: {err}"),
            })
    }

    /// Reads peer `peer`'s frame body into `read_buf`. A dead peer (EOF,
    /// reset, liveness deadline) is reported as [`ReadFailure::Dead`] for
    /// the recovery policy; protocol violations are fatal.
    fn read_frame(&mut self, peer: usize) -> Result<(), ReadFailure> {
        let io_timeout = self.config.io_timeout;
        let stream = match self.streams[peer].as_mut() {
            Some(stream) => stream,
            None => {
                return Err(ReadFailure::Dead(PeerDeath {
                    peer,
                    elapsed: Duration::ZERO,
                    polls: 0,
                    cause: "no live connection".to_string(),
                }))
            }
        };
        let mut len = [0u8; 4];
        read_exact_deadline(stream, &mut len, io_timeout, peer, "read frame length")
            .map_err(ReadFailure::Dead)?;
        let body_len = u32::from_le_bytes(len);
        if body_len > MAX_BODY || (body_len as usize) < BODY_FIXED {
            return Err(ReadFailure::Fatal(RuntimeError::transport(format!(
                "desynchronized stream from rank {peer}: implausible frame body of {body_len} bytes"
            ))));
        }
        self.read_buf.resize(body_len as usize, 0);
        let stream = self.streams[peer].as_mut().expect("stream checked above");
        read_exact_deadline(
            stream,
            &mut self.read_buf,
            io_timeout,
            peer,
            "read frame body",
        )
        .map_err(ReadFailure::Dead)
    }
}

impl<M: WireCodec + Clone + fmt::Debug + Send + Sync> Transport<M> for TcpTransport<M> {
    fn deliver(&mut self, barrier: RoundBarrier<'_, M>) -> RuntimeResult<BarrierOutcome> {
        let RoundBarrier {
            round,
            local_sent,
            halted,
            grid,
            mailboxes,
            metrics,
            ledger,
            churn,
            ..
        } = barrier;
        let node_count = mailboxes.len();
        let chunk = node_count.div_ceil(self.world);
        let owned = rank_range(self.rank, self.world, node_count);
        let policy = self.config.recovery;

        for buf in &mut self.frame_bufs {
            buf.clear();
        }
        self.frame_counts.fill(0);
        self.local_pending.clear();
        // A barrier that failed while staging left its tally uncharged;
        // discard it rather than charge it to this round.
        self.edge_tally.discard();
        self.edge_tally.fit(ledger.edge_slots());

        let node_counts = self.stage_local_sends(grid, chunk)?;
        // `prev_faults` holds the totals as of the end of the *previous*
        // barrier — i.e. after merging every peer's deltas — so the delta
        // against it covers exactly this rank's own new drops/duplications
        // this round. Snapshotting here instead (before the merge below)
        // would fold the peers' last-round deltas into this rank's next
        // delta and echo them back, double-counting faults forever.
        let fault_totals = ledger.fault_totals();
        self.build_stats(&node_counts, &fault_totals, ledger);
        self.churn_buf.clear();
        for event in churn {
            event.encode(&mut self.churn_buf);
        }
        let halted_local = halted[owned.clone()].iter().filter(|&&h| h).count() as u32;

        // Write every peer's frame, then read. This needs the kernel to
        // buffer a whole frame: once frames outgrow the socket buffers, two
        // ranks block in `write_all` at once until `io_timeout` (the
        // send/send stall of docs/TRANSPORT.md §5). Frames are assembled
        // for every live peer before any write, so a peer that dies
        // mid-barrier can be re-sent its frame after rejoining.
        for peer in 0..self.world {
            if peer != self.rank {
                self.build_frame(peer, round, local_sent, halted_local)?;
            }
        }
        for peer in 0..self.world {
            if peer == self.rank {
                continue;
            }
            if let Err(death) = self.send_frame(peer) {
                match policy {
                    RecoveryPolicy::FailFast => {
                        return Err(death.into_error(self.rank, &self.config.peers[peer]));
                    }
                    RecoveryPolicy::Retry { .. } => {
                        // Defer: the rejoin (and the frame re-send) happens
                        // at this peer's read slot, preserving delivery
                        // order.
                        self.streams[peer] = None;
                        self.rejoin_pending[peer] = true;
                    }
                }
            }
        }

        for mailbox in mailboxes.iter_mut() {
            mailbox.clear();
        }

        let mut delivered = local_sent;
        let mut remote_halted = 0usize;
        // Deliver in ascending rank-slot order — that is ascending sender
        // order, which reproduces the canonical serial mailbox order.
        for slot in 0..self.world {
            if slot == self.rank {
                for outgoing in self.local_pending.drain(..) {
                    mailboxes[outgoing.receiver.index()].push(Envelope {
                        edge: outgoing.edge,
                        from: outgoing.sender,
                        payload: outgoing.payload,
                    });
                }
                continue;
            }
            if self.rejoin_pending[slot] {
                if let RecoveryPolicy::Retry { attempts } = policy {
                    self.recover_peer(slot, round, attempts)?;
                    self.recovered_total += 1;
                }
            }
            if let Err(failure) = self.read_frame(slot) {
                match failure {
                    ReadFailure::Fatal(err) => return Err(err),
                    ReadFailure::Dead(death) => match policy {
                        RecoveryPolicy::FailFast => {
                            return Err(death.into_error(self.rank, &self.config.peers[slot]));
                        }
                        RecoveryPolicy::Retry { attempts } => {
                            self.recover_peer(slot, round, attempts)?;
                            self.recovered_total += 1;
                            if let Err(second) = self.read_frame(slot) {
                                return Err(match second {
                                    ReadFailure::Fatal(err) => err,
                                    ReadFailure::Dead(death) => {
                                        death.into_error(self.rank, &self.config.peers[slot])
                                    }
                                });
                            }
                        }
                    },
                }
            }
            let mut reader = FrameReader {
                buf: &self.read_buf,
                pos: 0,
                peer: slot,
            };
            let peer_round = reader.u32()?;
            let peer_rank = reader.u32()? as usize;
            if peer_round != round || peer_rank != slot {
                return Err(RuntimeError::transport(format!(
                    "desynchronized stream: expected round {round} from rank {slot}, \
                     got round {peer_round} from rank {peer_rank}"
                )));
            }
            delivered += reader.u64()?;
            let peer_range = rank_range(slot, self.world, node_count);
            let peer_halted = reader.u32()? as usize;
            if peer_halted > peer_range.len() {
                return Err(RuntimeError::transport(format!(
                    "frame from rank {slot} reports {peer_halted} halted nodes, but that rank \
                     owns only {}",
                    peer_range.len()
                )));
            }
            remote_halted += peer_halted;
            let msg_count = reader.u32()?;
            let stats_len = reader.u32()? as usize;
            let churn_count = reader.u32()? as usize;

            // Stats: merge through the order-independent bulk recorders.
            let stats_end = reader.pos + stats_len;
            let node_entries = reader.u32()?;
            for _ in 0..node_entries {
                let node = reader.u32()? as usize;
                let count = reader.u64()?;
                if !peer_range.contains(&node) {
                    return Err(RuntimeError::transport(format!(
                        "frame from rank {slot} reports sends for node {node}, which that \
                         rank does not own"
                    )));
                }
                metrics.record_sends(node, count);
            }
            let edge_entries = reader.u32()?;
            for _ in 0..edge_entries {
                let edge = reader.u64()? as usize;
                let count = reader.u64()?;
                let bytes = reader.u64()?;
                if edge >= ledger.edge_slots() {
                    return Err(RuntimeError::transport(format!(
                        "frame from rank {slot} reports traffic on out-of-range edge {edge}"
                    )));
                }
                ledger.record_bulk(edge, count, bytes);
            }
            ledger.record_dropped_bulk(crate::metrics::FaultCause::Random, reader.u64()?);
            ledger.record_dropped_bulk(crate::metrics::FaultCause::LinkCut, reader.u64()?);
            ledger.record_dropped_bulk(crate::metrics::FaultCause::Crash, reader.u64()?);
            ledger.record_duplicated_bulk(reader.u64()?);
            if reader.pos != stats_end {
                return Err(RuntimeError::transport(format!(
                    "frame from rank {slot}: stats section is {stats_len} bytes but parsing \
                     consumed {}",
                    reader.pos - (stats_end - stats_len)
                )));
            }

            // Churn section: verify the peer applied the identical topology
            // update this round (every rank resolves the same plan, so any
            // difference means the ranks are running on divergent graphs).
            if churn_count != churn.len() {
                return Err(RuntimeError::transport(format!(
                    "frame from rank {slot} reports {churn_count} churn event(s) this round, \
                     this rank applied {}: churn plans have diverged",
                    churn.len()
                )));
            }
            for (index, expected) in churn.iter().enumerate() {
                let bytes = reader.take(crate::churn::ChurnEvent::WIRE_BYTES)?;
                let event = crate::churn::ChurnEvent::decode(bytes).map_err(|e| {
                    RuntimeError::transport(format!(
                        "frame from rank {slot}: churn event {index} failed to decode: {e}"
                    ))
                })?;
                if event != *expected {
                    return Err(RuntimeError::transport(format!(
                        "frame from rank {slot}: churn event {index} is {event:?}, this rank \
                         applied {expected:?}: churn plans have diverged"
                    )));
                }
            }

            // Message records, already in canonical (node, send) order.
            for _ in 0..msg_count {
                let edge = EdgeId::new(reader.u64()?);
                let sender = NodeId::new(reader.u32()?);
                let receiver = NodeId::new(reader.u32()?);
                let payload_len = reader.u32()? as usize;
                let payload_bytes = reader.take(payload_len)?;
                if !peer_range.contains(&sender.index()) {
                    return Err(RuntimeError::transport(format!(
                        "frame from rank {slot} carries a message from node {sender}, \
                         which that rank does not own"
                    )));
                }
                if !owned.contains(&receiver.index()) {
                    return Err(RuntimeError::transport(format!(
                        "frame from rank {slot} addresses node {receiver}, which rank {} \
                         does not own",
                        self.rank
                    )));
                }
                if edge.index() >= ledger.edge_slots() {
                    return Err(RuntimeError::transport(format!(
                        "frame from rank {slot} carries a message on out-of-range edge {edge}"
                    )));
                }
                let payload = M::decode(payload_bytes).map_err(|e| {
                    RuntimeError::transport(format!(
                        "frame from rank {slot}: payload on edge {edge} failed to decode: {e}"
                    ))
                })?;
                mailboxes[receiver.index()].push(Envelope {
                    edge,
                    from: sender,
                    payload,
                });
            }
            if reader.pos != reader.buf.len() {
                return Err(RuntimeError::transport(format!(
                    "frame from rank {slot} has {} trailing bytes",
                    reader.buf.len() - reader.pos
                )));
            }
        }

        self.prev_faults = ledger.fault_totals();
        Ok(BarrierOutcome {
            delivered,
            remote_halted,
        })
    }

    fn supports_tracing(&self) -> bool {
        false
    }

    fn owned_range(&self, node_count: usize) -> Range<usize> {
        rank_range(self.rank, self.world, node_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::fnv1a64;
    use crate::churn::ChurnPlan;
    use crate::engine::{Network, NetworkConfig};
    use crate::fault::FaultPlan;
    use crate::node::{Context, NodeProgram};
    use freelunch_graph::generators::{sparse_connected_erdos_renyi, GeneratorConfig};
    use std::sync::Arc;

    /// Binds one loopback listener per rank before any rank connects, so
    /// the rendezvous has no port race.
    fn loopback(world: usize) -> (Vec<TcpListener>, Vec<SocketAddr>) {
        let listeners: Vec<TcpListener> = (0..world)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let peers = listeners
            .iter()
            .map(|listener| listener.local_addr().unwrap())
            .collect();
        (listeners, peers)
    }

    /// Broadcasts a token bundle whose length varies with the node and the
    /// round, and whose tokens fold in everything the node heard, so the
    /// frames depend on per-edge byte sums and on mailbox order.
    struct Chorus {
        state: u32,
    }

    impl Chorus {
        fn sing(&self, ctx: &mut Context<'_, Arc<[u32]>>) {
            let len = 1 + (ctx.node().raw() + ctx.round()) % 3;
            ctx.broadcast((0..len).map(|i| self.state ^ i).collect());
        }
    }

    impl NodeProgram for Chorus {
        type Message = Arc<[u32]>;

        fn init(&mut self, ctx: &mut Context<'_, Arc<[u32]>>) {
            self.sing(ctx);
        }

        fn round(&mut self, ctx: &mut Context<'_, Arc<[u32]>>, inbox: &[Envelope<Arc<[u32]>>]) {
            for envelope in inbox {
                for &token in envelope.payload.iter() {
                    self.state = self.state.rotate_left(5) ^ token;
                }
            }
            self.sing(ctx);
        }

        fn payload_bytes(message: &Arc<[u32]>) -> u64 {
            4 * message.len() as u64
        }
    }

    /// Barriers each pinned group runs: initialization plus eight rounds.
    const PIN_ROUNDS: u32 = 8;

    /// Runs a `world`-rank loopback group under churn (inserts beyond the
    /// frozen edge slots, deletes) and faults (drops, duplicates, a crash)
    /// and returns, per rank, the FNV-1a digest of every frame that rank
    /// wrote, in barrier order and then peer order.
    fn frame_digests(world: usize) -> Vec<u64> {
        let graph = sparse_connected_erdos_renyi(&GeneratorConfig::new(40, 17), 4.0).unwrap();
        let frozen_slots = graph.edge_count();
        let faults = FaultPlan::new(23)
            .with_drop_probability(0.1)
            .with_duplicate_probability(0.1)
            .with_crash(NodeId::new(7), 4);
        let mut churn = ChurnPlan::new(29)
            .with_insert_rate(0.05)
            .with_delete_rate(0.02);
        churn.scheduled.push(crate::churn::ScheduledChurn {
            round: 1,
            event: crate::churn::ChurnEventSpec::InsertEdge {
                u: NodeId::new(0),
                v: NodeId::new(39),
            },
        });
        let (listeners, peers) = loopback(world);
        std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    let config = TcpConfig::new(rank, peers.clone());
                    let (graph, faults, churn) = (&graph, faults.clone(), churn.clone());
                    scope.spawn(move || {
                        let transport = TcpTransport::with_listener(listener, &config).unwrap();
                        let mut network = Network::with_plans(
                            graph,
                            NetworkConfig::with_seed(31),
                            faults,
                            churn,
                            transport,
                            |node, _| Chorus { state: node.raw() },
                        )
                        .unwrap();
                        let mut written = Vec::new();
                        for barrier in 0..=PIN_ROUNDS {
                            if barrier == 0 {
                                network.initialize().unwrap();
                            } else {
                                network.run_round().unwrap();
                            }
                            for (peer, frame) in network.transport().last_frames.iter().enumerate()
                            {
                                if peer != rank {
                                    written.extend_from_slice(frame);
                                }
                            }
                        }
                        // The pin is only worth something if the frames
                        // carried traffic on inserted edges and fault deltas.
                        let ledger = network.ledger();
                        assert!(ledger.messages_per_edge()[frozen_slots..]
                            .iter()
                            .any(|&count| count > 0));
                        let faults = ledger.fault_totals();
                        assert!(faults.dropped_random > 0 && faults.dropped_crash > 0);
                        assert!(faults.duplicated > 0);
                        fnv1a64(&written)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap())
                .collect()
        })
    }

    /// The bytes every rank writes are pinned: a change to how frames are
    /// built must reproduce them exactly, or bump [`VERSION`].
    #[test]
    fn frame_bytes_are_pinned() {
        assert_eq!(VERSION, 2);
        assert_eq!(
            frame_digests(2),
            [0xfea4_f08a_69be_2fb6, 0x40af_9234_0c6f_74b6]
        );
        assert_eq!(
            frame_digests(3),
            [
                0x13ae_9ded_cc3c_249d,
                0xb6da_057f_c2c4_133c,
                0xfe57_de2a_9f4c_2052
            ]
        );
    }

    /// One message from node 0 on `edge` to `receiver`, charged `bytes`
    /// (an 8-byte `u64` payload, so any other `bytes` is a codec mismatch).
    fn outgoing(edge: u64, receiver: u32, bytes: u64) -> Outgoing<u64> {
        Outgoing {
            edge: EdgeId::new(edge),
            sender: NodeId::new(0),
            receiver: NodeId::new(receiver),
            bytes,
            payload: 7,
        }
    }

    /// Runs one barrier of a 4-node, 8-edge-slot execution directly on
    /// `transport`, with `sends` as its one-bucket send grid.
    fn barrier(
        transport: &mut TcpTransport<u64>,
        sends: Vec<Outgoing<u64>>,
        ledger: &mut MessageLedger,
    ) -> RuntimeResult<BarrierOutcome> {
        let local_sent = sends.len() as u64;
        let mut mailboxes: Vec<Vec<Envelope<u64>>> = (0..4).map(|_| Vec::new()).collect();
        transport.deliver(RoundBarrier {
            round: 0,
            shards: 1,
            traced: false,
            local_sent,
            halted: &[false; 4],
            grid: &mut [sends],
            column_width: 4,
            mailboxes: &mut mailboxes,
            metrics: &mut crate::metrics::ExecutionMetrics::new(4),
            ledger,
            trace: &mut crate::trace::Trace::with_capacity(0),
            churn: &[],
        })
    }

    /// A barrier that fails while staging charges none of its sends, and
    /// its tally does not leak into the next barrier: rank 0 retries the
    /// barrier after the failure, and both ranks end with the same ledger.
    #[test]
    fn a_barrier_that_fails_in_staging_charges_nothing() {
        let (listeners, peers) = loopback(2);
        let ledgers: Vec<MessageLedger> = std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    let config = TcpConfig::new(rank, peers.clone());
                    scope.spawn(move || {
                        let mut transport = TcpTransport::with_listener(listener, &config).unwrap();
                        let mut ledger = MessageLedger::new(8);
                        if rank == 0 {
                            // Edge 1 stays local, edge 2 fails the codec check.
                            let failed = vec![outgoing(1, 1, 8), outgoing(2, 2, 3)];
                            let error = barrier(&mut transport, failed, &mut ledger).unwrap_err();
                            assert!(error.to_string().contains("codec/payload_bytes mismatch"));
                            barrier(&mut transport, vec![outgoing(3, 3, 8)], &mut ledger).unwrap();
                        } else {
                            barrier(&mut transport, Vec::new(), &mut ledger).unwrap();
                        }
                        ledger
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap())
                .collect()
        });
        assert_eq!(ledgers[0].messages_per_edge(), &[0, 0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(ledgers[0], ledgers[1]);
    }

    /// Broadcasts its node ID once (8-byte payloads), then halts.
    struct Beacon;

    impl NodeProgram for Beacon {
        type Message = u64;

        fn init(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(u64::from(ctx.node().raw()));
        }

        fn round(&mut self, ctx: &mut Context<'_, u64>, _inbox: &[Envelope<u64>]) {
            ctx.halt();
        }
    }

    /// Node count of the hostile-frame group: rank 0 owns nodes 0..4, rank
    /// 1 owns 4..8.
    const HOSTILE_NODES: usize = 8;

    /// The body of a frame from rank 1 for barrier 0, assembled from parts
    /// so a test can get exactly one of them wrong. `stats_len` defaults to
    /// the length of the stats section built from `nodes` and `edges`; the
    /// body carries `churn_count` but no churn events.
    struct Forged {
        round: u32,
        rank: u32,
        halted: u32,
        nodes: Vec<(u32, u64)>,
        edges: Vec<(u64, u64, u64)>,
        stats_len: Option<u32>,
        churn_count: u32,
        msg_count: u32,
        records: Vec<u8>,
    }

    impl Forged {
        /// A well-formed frame: no sends, no halted nodes, no records.
        fn new() -> Self {
            Forged {
                round: 0,
                rank: 1,
                halted: 0,
                nodes: Vec::new(),
                edges: Vec::new(),
                stats_len: None,
                churn_count: 0,
                msg_count: 0,
                records: Vec::new(),
            }
        }

        fn record(mut self, edge: u64, sender: u32, receiver: u32, payload: &[u8]) -> Self {
            self.records.extend_from_slice(&edge.to_le_bytes());
            self.records.extend_from_slice(&sender.to_le_bytes());
            self.records.extend_from_slice(&receiver.to_le_bytes());
            self.records
                .extend_from_slice(&(payload.len() as u32).to_le_bytes());
            self.records.extend_from_slice(payload);
            self.msg_count += 1;
            self
        }

        fn body(&self) -> Vec<u8> {
            let mut stats = Vec::new();
            stats.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
            for &(node, count) in &self.nodes {
                stats.extend_from_slice(&node.to_le_bytes());
                stats.extend_from_slice(&count.to_le_bytes());
            }
            stats.extend_from_slice(&(self.edges.len() as u32).to_le_bytes());
            for &(edge, count, bytes) in &self.edges {
                stats.extend_from_slice(&edge.to_le_bytes());
                stats.extend_from_slice(&count.to_le_bytes());
                stats.extend_from_slice(&bytes.to_le_bytes());
            }
            stats.extend_from_slice(&[0u8; 32]); // no fault deltas
            let mut body = Vec::new();
            body.extend_from_slice(&self.round.to_le_bytes());
            body.extend_from_slice(&self.rank.to_le_bytes());
            body.extend_from_slice(&u64::from(self.msg_count).to_le_bytes());
            body.extend_from_slice(&self.halted.to_le_bytes());
            body.extend_from_slice(&self.msg_count.to_le_bytes());
            let stats_len = self.stats_len.unwrap_or(stats.len() as u32);
            body.extend_from_slice(&stats_len.to_le_bytes());
            body.extend_from_slice(&self.churn_count.to_le_bytes());
            body.extend_from_slice(&stats);
            body.extend_from_slice(&self.records);
            body
        }

        fn frame(&self) -> Vec<u8> {
            framed(self.body())
        }
    }

    /// Prefixes `body` with its length.
    fn framed(body: Vec<u8>) -> Vec<u8> {
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&body);
        frame
    }

    /// Runs rank 0 of a 2-rank group whose rank 1 is a raw socket: the fake
    /// completes the handshake, reads rank 0's first frame, answers with
    /// `frame`, and holds its socket open until rank 0 closes. Returns what
    /// rank 0's `initialize` (the first barrier) reported.
    fn answer_first_barrier(frame: Vec<u8>) -> RuntimeResult<()> {
        let graph =
            sparse_connected_erdos_renyi(&GeneratorConfig::new(HOSTILE_NODES, 3), 3.0).unwrap();
        let (mut listeners, peers) = loopback(2);
        let mut config = TcpConfig::new(0, peers.clone());
        config.connect_timeout = Duration::from_secs(5);
        config.io_timeout = Duration::from_millis(500);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut stream = TcpStream::connect(peers[0]).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                write_handshake(&mut stream, 2, 1).unwrap();
                let mut handshake = [0u8; 16];
                stream.read_exact(&mut handshake).unwrap();
                let mut len = [0u8; 4];
                stream.read_exact(&mut len).unwrap();
                let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
                stream.read_exact(&mut body).unwrap();
                stream.write_all(&frame).unwrap();
                let _ = stream.read_to_end(&mut Vec::new());
            });
            let transport = TcpTransport::with_listener(listeners.swap_remove(0), &config)?;
            let mut network = Network::with_transport(
                &graph,
                NetworkConfig::with_seed(5),
                FaultPlan::none(),
                transport,
                |_, _| Beacon,
            )?;
            network.initialize()
        })
    }

    /// Asserts that rank 0 rejects `frame` with a transport error whose
    /// reason contains `expected`, without waiting out more than a few
    /// liveness slices.
    fn assert_rejected(case: &str, frame: Vec<u8>, expected: &str) {
        let started = Instant::now();
        match answer_first_barrier(frame) {
            Err(RuntimeError::Transport { reason }) => assert!(
                reason.contains(expected),
                "{case}: {reason:?} does not mention {expected:?}"
            ),
            other => panic!("{case}: expected a transport error, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{case}: took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_well_formed_forged_frame_is_accepted() {
        let frame = Forged {
            nodes: vec![(4, 1)],
            edges: vec![(0, 1, 8)],
            ..Forged::new()
        }
        .record(0, 4, 0, &7u64.to_le_bytes())
        .frame();
        answer_first_barrier(frame).unwrap();
    }

    #[test]
    fn malformed_frames_are_rejected() {
        let truncated = {
            let mut body = Forged::new().record(0, 4, 0, &[0; 8]).body();
            body.truncate(body.len() - 3);
            framed(body)
        };
        let trailing = {
            let mut body = Forged::new().body();
            body.extend_from_slice(&[0xAB; 3]);
            framed(body)
        };
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                "body_len below the fixed part",
                ((BODY_FIXED - 1) as u32).to_le_bytes().to_vec(),
                "implausible frame body",
            ),
            (
                "body_len above MAX_BODY",
                (MAX_BODY + 1).to_le_bytes().to_vec(),
                "implausible frame body",
            ),
            (
                "wrong round",
                Forged {
                    round: 1,
                    ..Forged::new()
                }
                .frame(),
                "expected round 0 from rank 1, got round 1 from rank 1",
            ),
            (
                "wrong rank",
                Forged {
                    rank: 0,
                    ..Forged::new()
                }
                .frame(),
                "expected round 0 from rank 1, got round 0 from rank 0",
            ),
            (
                "stats_len disagrees with the parse",
                Forged {
                    stats_len: Some(4),
                    ..Forged::new()
                }
                .frame(),
                "stats section is 4 bytes",
            ),
            (
                "a churn event rank 0 did not apply",
                Forged {
                    churn_count: 1,
                    ..Forged::new()
                }
                .frame(),
                "reports 1 churn event(s) this round, this rank applied 0",
            ),
            (
                "edge entry beyond the edge slots",
                Forged {
                    edges: vec![(1 << 40, 1, 8)],
                    ..Forged::new()
                }
                .frame(),
                "out-of-range edge",
            ),
            (
                "record on an edge beyond the edge slots",
                Forged::new().record(1 << 40, 4, 0, &[0; 8]).frame(),
                "carries a message on out-of-range edge",
            ),
            (
                "record from a node rank 1 does not own",
                Forged::new().record(0, 0, 1, &[0; 8]).frame(),
                "carries a message from node v0",
            ),
            (
                "record to a node rank 0 does not own",
                Forged::new().record(0, 4, 5, &[0; 8]).frame(),
                "addresses node v5, which rank 0 does not own",
            ),
            ("truncated record", truncated, "truncated"),
            ("trailing bytes", trailing, "3 trailing bytes"),
            (
                "payload that fails to decode",
                Forged::new().record(0, 4, 0, &[1, 2, 3]).frame(),
                "failed to decode",
            ),
        ];
        for (case, frame, expected) in cases {
            assert_rejected(case, frame, expected);
        }
    }

    #[test]
    fn sends_charged_to_nodes_the_peer_does_not_own_are_rejected() {
        let frame = Forged {
            nodes: vec![(0, 1)],
            ..Forged::new()
        }
        .frame();
        assert_rejected(
            "node entry owned by rank 0",
            frame,
            "rank 1 reports sends for node 0",
        );
    }

    #[test]
    fn a_halted_count_above_the_peer_range_is_rejected() {
        let frame = Forged {
            halted: 5,
            ..Forged::new()
        }
        .frame();
        assert_rejected("halted above range", frame, "rank 1 reports 5 halted nodes");
    }
}
