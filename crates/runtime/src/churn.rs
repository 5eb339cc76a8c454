//! Deterministic graph churn: seeded edge insert/delete and node join/leave
//! streams applied in canonical order at the round barrier.
//!
//! The clean engine models a *static* communication graph. Real overlays
//! churn: links appear and disappear, nodes join and leave. A [`ChurnPlan`]
//! describes such a dynamic-topology scenario *deterministically*, with the
//! same keying discipline as the fault plane ([`crate::fault`]): every
//! generated event is resolved from a ChaCha stream keyed by
//! `(plan seed, round, event kind, event index)`, so a churning execution is
//! a pure function of `(graph, config, plan)` — independent of the shard
//! count, the trace mode, the transport backend, and thread scheduling.
//! Churning executions therefore inherit the bit-identical cross-shard and
//! cross-backend guarantees of clean runs (`tests/churn_matrix.rs`) — and
//! the plane is **checkpoint-restorable**: a
//! [`NetworkCheckpoint`](crate::checkpoint::NetworkCheckpoint) stores only
//! a plan digest plus the capture round's resolved events; restore replays
//! the stream up to the checkpoint round (rejecting any divergence) and
//! resumes, because each round's events are keyed by absolute round rather
//! than by generator history (`docs/RECOVERY.md`;
//! `tests/recovery_matrix.rs` pins kill/resume identity mid-churn).
//!
//! # Event model and canonical application order
//!
//! A round's churn is applied **once, at the opening of the round, before
//! any node is stepped** — the topology is frozen for the round's execute
//! and dispatch phases, preserving the synchronous LOCAL semantics. Within
//! a round, events apply in this canonical order (see `docs/CHURN.md`):
//!
//! 1. **Scheduled events**, in the order they were added to the plan. A
//!    [`ChurnEventSpec::Leave`] expands into one [`ChurnEvent::EdgeDelete`]
//!    per incident live edge (ascending edge ID) followed by the
//!    [`ChurnEvent::NodeLeave`] itself.
//! 2. **Generated deletes** ([`ChurnPlan::delete_rate`] × the live edge
//!    count after step 1), each picking a uniform live edge from its keyed
//!    stream.
//! 3. **Generated inserts** ([`ChurnPlan::insert_rate`] × the same base
//!    count), each picking a uniform pair of distinct active nodes from its
//!    keyed stream (parallel edges allowed, self-loops never).
//!
//! The resolved per-round event list — [`ChurnEvent`] values with concrete
//! edge IDs — is an *observable* of the execution: the transports carry it
//! across the wire (as a frame section, encoded via the event's
//! [`WireCodec`]) so that distributed ranks can verify they applied the
//! identical topology update, exactly like the lockstep round checks.
//!
//! The empty plan ([`ChurnPlan::none`]) is byte-identical to never
//! installing a plan at all — the engine keeps its static fast path.
//!
//! # Examples
//!
//! ```
//! use freelunch_graph::generators::{cycle_graph, GeneratorConfig};
//! use freelunch_runtime::{ChurnDriver, ChurnEvent, ChurnPlan};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = cycle_graph(&GeneratorConfig::new(8, 0))?.freeze();
//! let plan = ChurnPlan::new(7).with_delete_rate(0.25);
//! let mut driver = ChurnDriver::new(plan, &graph)?;
//! let events = driver.apply_round(1)?;
//! // 25% of 8 live edges: exactly two deletions, fully determined by seed 7.
//! assert_eq!(events.len(), 2);
//! assert!(events.iter().all(|e| matches!(e, ChurnEvent::EdgeDelete { .. })));
//! assert_eq!(driver.overlay().live_edge_count(), 6);
//! # Ok(())
//! # }
//! ```

use crate::error::{RuntimeError, RuntimeResult};
use crate::fault::message_seed;
use crate::transport::{CodecError, WireCodec};
use freelunch_graph::overlay::OverlayGraph;
use freelunch_graph::{CsrGraph, EdgeId, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Domain-separation tag of the churn streams (`"CHURNPLN"`), XORed into
/// the plan seed so churn draws never collide with fault draws of an equal
/// seed.
const CHURN_TAG: u64 = 0x4348_5552_4E50_4C4E;

/// Stream kind of generated edge deletions.
const KIND_DELETE: u64 = 0;
/// Stream kind of generated edge insertions.
const KIND_INSERT: u64 = 1;

/// One resolved topology update, as applied by the engine and carried by
/// the transports (see [`ChurnEvent::WIRE_BYTES`] for the wire form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChurnEvent {
    /// Edge `edge` now connects `u` and `v`.
    EdgeInsert {
        /// The identifier assigned to the new edge.
        edge: EdgeId,
        /// First endpoint.
        u: NodeId,
        /// Second endpoint.
        v: NodeId,
    },
    /// Edge `edge` no longer exists.
    EdgeDelete {
        /// The deleted edge.
        edge: EdgeId,
    },
    /// `node` (re-)joined the network.
    NodeJoin {
        /// The joining node.
        node: NodeId,
    },
    /// `node` left the network (its incident edges were deleted by the
    /// preceding [`ChurnEvent::EdgeDelete`] events of the same round).
    NodeLeave {
        /// The departing node.
        node: NodeId,
    },
}

const TAG_EDGE_INSERT: u8 = 1;
const TAG_EDGE_DELETE: u8 = 2;
const TAG_NODE_JOIN: u8 = 3;
const TAG_NODE_LEAVE: u8 = 4;

impl ChurnEvent {
    /// Fixed wire size of every churn event: 1 tag byte, 3 zero-pad bytes,
    /// the edge ID as `u64` LE, and two node IDs as `u32` LE (unused fields
    /// encode as zero and are validated on decode).
    pub const WIRE_BYTES: usize = 20;
}

impl WireCodec for ChurnEvent {
    fn encode(&self, buf: &mut Vec<u8>) {
        let (tag, edge, a, b) = match *self {
            ChurnEvent::EdgeInsert { edge, u, v } => {
                (TAG_EDGE_INSERT, edge.raw(), u.raw(), v.raw())
            }
            ChurnEvent::EdgeDelete { edge } => (TAG_EDGE_DELETE, edge.raw(), 0, 0),
            ChurnEvent::NodeJoin { node } => (TAG_NODE_JOIN, 0, node.raw(), 0),
            ChurnEvent::NodeLeave { node } => (TAG_NODE_LEAVE, 0, node.raw(), 0),
        };
        buf.push(tag);
        buf.extend_from_slice(&[0u8; 3]);
        buf.extend_from_slice(&edge.to_le_bytes());
        buf.extend_from_slice(&a.to_le_bytes());
        buf.extend_from_slice(&b.to_le_bytes());
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
        if bytes[1..4].iter().any(|&b| b != 0) {
            return Err(CodecError::InvalidPadding);
        }
        let edge = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
        let a = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let b = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        match bytes[0] {
            TAG_EDGE_INSERT => Ok(ChurnEvent::EdgeInsert {
                edge: EdgeId::new(edge),
                u: NodeId::new(a),
                v: NodeId::new(b),
            }),
            TAG_EDGE_DELETE if a == 0 && b == 0 => Ok(ChurnEvent::EdgeDelete {
                edge: EdgeId::new(edge),
            }),
            TAG_NODE_JOIN if edge == 0 && b == 0 => Ok(ChurnEvent::NodeJoin {
                node: NodeId::new(a),
            }),
            TAG_NODE_LEAVE if edge == 0 && b == 0 => Ok(ChurnEvent::NodeLeave {
                node: NodeId::new(a),
            }),
            // A known tag whose unused fields are non-zero is corruption.
            TAG_EDGE_DELETE | TAG_NODE_JOIN | TAG_NODE_LEAVE => Err(CodecError::InvalidPadding),
            tag => Err(CodecError::InvalidTag { tag }),
        }
    }
}

/// A scheduled (explicit) churn event of a [`ChurnPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnEventSpec {
    /// Insert an edge between `u` and `v`; the driver assigns the next free
    /// edge ID and reports it in the resolved [`ChurnEvent::EdgeInsert`].
    InsertEdge {
        /// First endpoint (must be active when the event applies).
        u: NodeId,
        /// Second endpoint (must be active when the event applies).
        v: NodeId,
    },
    /// Delete the live edge `edge`.
    DeleteEdge {
        /// The edge to delete (must be live when the event applies).
        edge: EdgeId,
    },
    /// `node` leaves the network: its incident live edges are deleted
    /// (ascending edge ID), then the node deactivates.
    Leave {
        /// The departing node (must be active when the event applies).
        node: NodeId,
    },
    /// `node` (re-)joins the network with no incident edges.
    Join {
        /// The joining node (must be inactive when the event applies).
        node: NodeId,
    },
}

/// A scheduled event with the round it applies in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledChurn {
    /// The round the event applies at (0 = before initialization).
    pub round: u32,
    /// The event itself.
    pub event: ChurnEventSpec,
}

/// A deterministic churn scenario (see the [module docs](self)).
///
/// The empty plan ([`ChurnPlan::none`], or any plan for which
/// [`ChurnPlan::is_empty`] is `true`) leaves an execution byte-identical to
/// one that never installed a plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// Seed of the churn streams. Independent from both the network seed
    /// and the fault seed.
    pub seed: u64,
    /// Explicitly scheduled events, applied in insertion order within their
    /// round.
    pub scheduled: Vec<ScheduledChurn>,
    /// Expected fraction of live edges inserted per round (in `[0, 1]`).
    pub insert_rate: f64,
    /// Expected fraction of live edges deleted per round (in `[0, 1]`).
    pub delete_rate: f64,
}

impl Default for ChurnPlan {
    fn default() -> Self {
        ChurnPlan::none()
    }
}

impl ChurnPlan {
    /// The empty plan: a static graph.
    pub fn none() -> Self {
        ChurnPlan {
            seed: 0,
            scheduled: Vec::new(),
            insert_rate: 0.0,
            delete_rate: 0.0,
        }
    }

    /// An empty plan carrying the given churn seed (configure it with the
    /// `with_*` builders).
    pub fn new(seed: u64) -> Self {
        ChurnPlan {
            seed,
            ..ChurnPlan::none()
        }
    }

    /// Returns a copy with the per-round generated insert rate set.
    pub fn with_insert_rate(mut self, rate: f64) -> Self {
        self.insert_rate = rate;
        self
    }

    /// Returns a copy with the per-round generated delete rate set.
    pub fn with_delete_rate(mut self, rate: f64) -> Self {
        self.delete_rate = rate;
        self
    }

    /// Returns a copy scheduling an edge insertion between `u` and `v`.
    pub fn with_edge_insert(mut self, round: u32, u: NodeId, v: NodeId) -> Self {
        self.scheduled.push(ScheduledChurn {
            round,
            event: ChurnEventSpec::InsertEdge { u, v },
        });
        self
    }

    /// Returns a copy scheduling the deletion of `edge`.
    pub fn with_edge_delete(mut self, round: u32, edge: EdgeId) -> Self {
        self.scheduled.push(ScheduledChurn {
            round,
            event: ChurnEventSpec::DeleteEdge { edge },
        });
        self
    }

    /// Returns a copy scheduling the departure of `node`.
    pub fn with_node_leave(mut self, round: u32, node: NodeId) -> Self {
        self.scheduled.push(ScheduledChurn {
            round,
            event: ChurnEventSpec::Leave { node },
        });
        self
    }

    /// Returns a copy scheduling the (re-)join of `node`.
    pub fn with_node_join(mut self, round: u32, node: NodeId) -> Self {
        self.scheduled.push(ScheduledChurn {
            round,
            event: ChurnEventSpec::Join { node },
        });
        self
    }

    /// Returns `true` if the plan churns nothing at all (the engine then
    /// keeps its static fast path).
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty() && self.insert_rate <= 0.0 && self.delete_rate <= 0.0
    }

    /// Validates the plan's rates.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("insert_rate", self.insert_rate),
            ("delete_rate", self.delete_rate),
        ] {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} must be a rate in [0, 1], got {rate}"));
            }
        }
        Ok(())
    }
}

/// The resolved, stateful form of a [`ChurnPlan`]: owns the mutable
/// [`OverlayGraph`] and produces each round's canonical event list.
///
/// The engine drives one internally when constructed with a plan
/// ([`Network::with_plans`](crate::engine::Network::with_plans));
/// benches and tests can also drive one directly to mirror the exact event
/// stream an engine execution would see (the stream is a pure function of
/// `(plan, graph)`).
#[derive(Debug)]
pub struct ChurnDriver {
    plan: ChurnPlan,
    /// Scheduled events grouped by round, preserving plan insertion order
    /// within each round.
    scheduled: BTreeMap<u32, Vec<ChurnEventSpec>>,
    overlay: OverlayGraph,
    /// Live edges in a swap-remove arena for O(1) uniform picks; the order
    /// is a deterministic function of the event history.
    live_edges: Vec<EdgeId>,
    live_pos: HashMap<EdgeId, usize>,
    /// Active nodes in the same swap-remove discipline.
    active_nodes: Vec<NodeId>,
    active_pos: Vec<Option<usize>>,
}

impl ChurnDriver {
    /// Resolves `plan` against the frozen `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if the plan's rates are
    /// invalid or a scheduled event references an out-of-range node.
    pub fn new(plan: ChurnPlan, graph: &CsrGraph) -> RuntimeResult<Self> {
        plan.validate().map_err(RuntimeError::invalid_config)?;
        let n = graph.node_count();
        for entry in &plan.scheduled {
            let node = match entry.event {
                ChurnEventSpec::InsertEdge { u, v } => {
                    if u.index() >= n {
                        Some(u)
                    } else if v.index() >= n {
                        Some(v)
                    } else {
                        None
                    }
                }
                ChurnEventSpec::Leave { node } | ChurnEventSpec::Join { node } => {
                    (node.index() >= n).then_some(node)
                }
                ChurnEventSpec::DeleteEdge { .. } => None,
            };
            if let Some(node) = node {
                return Err(RuntimeError::invalid_config(format!(
                    "churn plan references node {node} outside 0..{n}"
                )));
            }
        }
        let mut scheduled: BTreeMap<u32, Vec<ChurnEventSpec>> = BTreeMap::new();
        for entry in &plan.scheduled {
            scheduled.entry(entry.round).or_default().push(entry.event);
        }
        let overlay = OverlayGraph::new(graph);
        let live_edges: Vec<EdgeId> = overlay.live_edges().map(|(id, _)| id).collect();
        let live_pos = live_edges
            .iter()
            .enumerate()
            .map(|(pos, &id)| (id, pos))
            .collect();
        let active_nodes: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        let active_pos = (0..n).map(Some).collect();
        Ok(ChurnDriver {
            plan,
            scheduled,
            overlay,
            live_edges,
            live_pos,
            active_nodes,
            active_pos,
        })
    }

    /// The plan this driver was resolved from.
    pub fn plan(&self) -> &ChurnPlan {
        &self.plan
    }

    /// The current topology overlay.
    pub fn overlay(&self) -> &OverlayGraph {
        &self.overlay
    }

    /// Applies one round's churn in canonical order (see the
    /// [module docs](self)) and returns the resolved event list.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if a *scheduled* event is
    /// infeasible when its round arrives (deleting a dead edge, inserting
    /// at an inactive endpoint, a double leave/join). Generated events with
    /// no feasible candidate (no live edge, fewer than two active nodes)
    /// are skipped silently.
    pub fn apply_round(&mut self, round: u32) -> RuntimeResult<Vec<ChurnEvent>> {
        let mut events = Vec::new();
        if let Some(specs) = self.scheduled.remove(&round) {
            for spec in specs {
                self.apply_scheduled(round, spec, &mut events)?;
            }
        }
        // Generated events share one base count: the live edge count after
        // the scheduled phase, so insert and delete rates are symmetric.
        let base = self.live_edges.len() as f64;
        let deletes = self.draw_count(round, KIND_DELETE, self.plan.delete_rate * base);
        for index in 0..deletes {
            if self.live_edges.is_empty() {
                break;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(message_seed(
                self.plan.seed ^ CHURN_TAG,
                round,
                KIND_DELETE,
                0,
                index,
            ));
            let edge = self.live_edges[rng.gen_range(0..self.live_edges.len())];
            self.delete_edge(edge, &mut events)
                .expect("picked edge is live");
        }
        let inserts = self.draw_count(round, KIND_INSERT, self.plan.insert_rate * base);
        for index in 0..inserts {
            if self.active_nodes.len() < 2 {
                break;
            }
            let mut rng = ChaCha8Rng::seed_from_u64(message_seed(
                self.plan.seed ^ CHURN_TAG,
                round,
                KIND_INSERT,
                0,
                index,
            ));
            let u_idx = rng.gen_range(0..self.active_nodes.len());
            let mut v_idx = rng.gen_range(0..self.active_nodes.len() - 1);
            if v_idx >= u_idx {
                v_idx += 1;
            }
            let (u, v) = (self.active_nodes[u_idx], self.active_nodes[v_idx]);
            self.insert_edge(u, v, &mut events)
                .expect("picked endpoints are distinct active nodes");
        }
        Ok(events)
    }

    /// Rounds that still have scheduled events pending.
    pub fn pending_scheduled_rounds(&self) -> usize {
        self.scheduled.len()
    }

    fn apply_scheduled(
        &mut self,
        round: u32,
        spec: ChurnEventSpec,
        events: &mut Vec<ChurnEvent>,
    ) -> RuntimeResult<()> {
        match spec {
            ChurnEventSpec::InsertEdge { u, v } => {
                for node in [u, v] {
                    if !self.overlay.is_active(node) {
                        return Err(RuntimeError::invalid_config(format!(
                            "churn round {round}: scheduled insert touches inactive node {node}"
                        )));
                    }
                }
                self.insert_edge(u, v, events).map_err(|e| {
                    RuntimeError::invalid_config(format!(
                        "churn round {round}: scheduled insert ({u}, {v}): {e}"
                    ))
                })?;
            }
            ChurnEventSpec::DeleteEdge { edge } => {
                self.delete_edge(edge, events).map_err(|_| {
                    RuntimeError::invalid_config(format!(
                        "churn round {round}: scheduled delete of non-live edge {edge}"
                    ))
                })?;
            }
            ChurnEventSpec::Leave { node } => {
                if !self.overlay.is_active(node) {
                    return Err(RuntimeError::invalid_config(format!(
                        "churn round {round}: scheduled leave of inactive node {node}"
                    )));
                }
                let mut incident: Vec<EdgeId> = self
                    .overlay
                    .incident_edges(node)
                    .iter()
                    .map(|ie| ie.edge)
                    .collect();
                incident.sort_unstable();
                for edge in incident {
                    self.delete_edge(edge, events)
                        .expect("incident edges are live");
                }
                self.overlay
                    .deactivate_node(node)
                    .expect("node range was validated at construction");
                let pos = self.active_pos[node.index()]
                    .take()
                    .expect("active node has an arena slot");
                self.active_nodes.swap_remove(pos);
                if let Some(&moved) = self.active_nodes.get(pos) {
                    self.active_pos[moved.index()] = Some(pos);
                }
                events.push(ChurnEvent::NodeLeave { node });
            }
            ChurnEventSpec::Join { node } => {
                if self.overlay.is_active(node) {
                    return Err(RuntimeError::invalid_config(format!(
                        "churn round {round}: scheduled join of already-active node {node}"
                    )));
                }
                self.overlay
                    .activate_node(node)
                    .expect("node range was validated at construction");
                self.active_pos[node.index()] = Some(self.active_nodes.len());
                self.active_nodes.push(node);
                events.push(ChurnEvent::NodeJoin { node });
            }
        }
        Ok(())
    }

    fn insert_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        events: &mut Vec<ChurnEvent>,
    ) -> RuntimeResult<EdgeId> {
        let edge = self
            .overlay
            .insert_edge(u, v)
            .map_err(|e| RuntimeError::invalid_config(e.to_string()))?;
        self.live_pos.insert(edge, self.live_edges.len());
        self.live_edges.push(edge);
        events.push(ChurnEvent::EdgeInsert { edge, u, v });
        Ok(edge)
    }

    fn delete_edge(&mut self, edge: EdgeId, events: &mut Vec<ChurnEvent>) -> RuntimeResult<()> {
        self.overlay
            .remove_edge(edge)
            .map_err(|e| RuntimeError::invalid_config(e.to_string()))?;
        let pos = self
            .live_pos
            .remove(&edge)
            .expect("live index mirrors the overlay");
        self.live_edges.swap_remove(pos);
        if let Some(&moved) = self.live_edges.get(pos) {
            self.live_pos.insert(moved, pos);
        }
        events.push(ChurnEvent::EdgeDelete { edge });
        Ok(())
    }

    /// Resolves a fractional expected count into a concrete one: the integer
    /// part always happens, the fractional part is a keyed Bernoulli draw.
    fn draw_count(&self, round: u32, kind: u64, expected: f64) -> u32 {
        if expected <= 0.0 {
            return 0;
        }
        let base = expected.floor();
        let frac = expected - base;
        let mut count = base as u32;
        if frac > 0.0 {
            let mut rng = ChaCha8Rng::seed_from_u64(message_seed(
                self.plan.seed ^ CHURN_TAG,
                round,
                kind,
                u32::MAX,
                u32::MAX,
            ));
            if rng.gen_bool(frac.min(1.0)) {
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freelunch_graph::MultiGraph;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn path4() -> CsrGraph {
        let mut g = MultiGraph::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            g.add_edge(n(u), n(v)).unwrap();
        }
        g.freeze()
    }

    #[test]
    fn empty_plan_is_empty_and_produces_no_events() {
        let plan = ChurnPlan::none();
        assert!(plan.is_empty());
        assert!(plan.validate().is_ok());
        let mut driver = ChurnDriver::new(plan, &path4()).unwrap();
        for round in 0..5 {
            assert!(driver.apply_round(round).unwrap().is_empty());
        }
        assert_eq!(driver.overlay().live_edge_count(), 3);
    }

    #[test]
    fn builders_compose_and_validate() {
        let plan = ChurnPlan::new(3)
            .with_insert_rate(0.1)
            .with_delete_rate(0.2)
            .with_edge_insert(1, n(0), n(2))
            .with_edge_delete(2, EdgeId::new(0))
            .with_node_leave(3, n(3))
            .with_node_join(4, n(3));
        assert!(!plan.is_empty());
        assert_eq!(plan.scheduled.len(), 4);
        assert!(plan.validate().is_ok());
        assert!(ChurnPlan::new(0).with_insert_rate(1.5).validate().is_err());
        assert!(ChurnPlan::new(0)
            .with_delete_rate(f64::NAN)
            .validate()
            .is_err());
        assert!(ChurnPlan::new(0).with_delete_rate(-0.1).validate().is_err());
    }

    #[test]
    fn scheduled_events_apply_in_plan_order() {
        let plan = ChurnPlan::new(0)
            .with_edge_delete(1, EdgeId::new(1))
            .with_edge_insert(1, n(1), n(3));
        let mut driver = ChurnDriver::new(plan, &path4()).unwrap();
        assert!(driver.apply_round(0).unwrap().is_empty());
        let events = driver.apply_round(1).unwrap();
        assert_eq!(
            events,
            vec![
                ChurnEvent::EdgeDelete {
                    edge: EdgeId::new(1)
                },
                ChurnEvent::EdgeInsert {
                    edge: EdgeId::new(3),
                    u: n(1),
                    v: n(3)
                },
            ]
        );
        assert_eq!(driver.overlay().live_edge_count(), 3);
        assert_eq!(driver.pending_scheduled_rounds(), 0);
    }

    #[test]
    fn leave_expands_to_ascending_edge_deletes() {
        let plan = ChurnPlan::new(0).with_node_leave(2, n(1));
        let mut driver = ChurnDriver::new(plan, &path4()).unwrap();
        let events = driver.apply_round(2).unwrap();
        assert_eq!(
            events,
            vec![
                ChurnEvent::EdgeDelete {
                    edge: EdgeId::new(0)
                },
                ChurnEvent::EdgeDelete {
                    edge: EdgeId::new(1)
                },
                ChurnEvent::NodeLeave { node: n(1) },
            ]
        );
        assert!(!driver.overlay().is_active(n(1)));
        assert_eq!(driver.overlay().live_edge_count(), 1);
    }

    #[test]
    fn join_reactivates_a_departed_node() {
        let plan = ChurnPlan::new(0)
            .with_node_leave(1, n(3))
            .with_node_join(2, n(3))
            .with_edge_insert(3, n(3), n(0));
        let mut driver = ChurnDriver::new(plan, &path4()).unwrap();
        driver.apply_round(1).unwrap();
        assert!(!driver.overlay().is_active(n(3)));
        let events = driver.apply_round(2).unwrap();
        assert_eq!(events, vec![ChurnEvent::NodeJoin { node: n(3) }]);
        let events = driver.apply_round(3).unwrap();
        assert!(matches!(events[0], ChurnEvent::EdgeInsert { .. }));
    }

    #[test]
    fn infeasible_scheduled_events_are_config_errors() {
        let plan = ChurnPlan::new(0).with_edge_delete(1, EdgeId::new(9));
        let mut driver = ChurnDriver::new(plan, &path4()).unwrap();
        assert!(driver.apply_round(1).is_err());

        let plan = ChurnPlan::new(0)
            .with_node_leave(1, n(2))
            .with_edge_insert(2, n(2), n(0));
        let mut driver = ChurnDriver::new(plan, &path4()).unwrap();
        driver.apply_round(1).unwrap();
        assert!(driver.apply_round(2).is_err());

        let plan = ChurnPlan::new(0).with_node_join(1, n(0));
        let mut driver = ChurnDriver::new(plan, &path4()).unwrap();
        assert!(driver.apply_round(1).is_err());

        assert!(ChurnDriver::new(ChurnPlan::new(0).with_node_leave(0, n(9)), &path4()).is_err());
        assert!(ChurnDriver::new(ChurnPlan::new(0).with_insert_rate(2.0), &path4()).is_err());
    }

    #[test]
    fn generated_churn_is_deterministic_per_seed() {
        let graph = {
            let mut g = MultiGraph::new(16);
            for u in 0..15u32 {
                g.add_edge(n(u), n(u + 1)).unwrap();
            }
            g.freeze()
        };
        let stream = |seed: u64| {
            let plan = ChurnPlan::new(seed)
                .with_insert_rate(0.3)
                .with_delete_rate(0.3);
            let mut driver = ChurnDriver::new(plan, &graph).unwrap();
            let mut all = Vec::new();
            for round in 0..6 {
                all.extend(driver.apply_round(round).unwrap());
            }
            all
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        assert!(!stream(5).is_empty());
    }

    #[test]
    fn fractional_rates_round_by_keyed_bernoulli() {
        // delete_rate 0.5 on 3 live edges → expected 1.5: every round
        // deletes either 1 or 2 edges, and over rounds both happen.
        let graph = {
            let mut g = MultiGraph::new(32);
            for u in 0..31u32 {
                g.add_edge(n(u), n(u + 1)).unwrap();
            }
            g.freeze()
        };
        let plan = ChurnPlan::new(9)
            .with_delete_rate(0.1)
            .with_insert_rate(0.1);
        let mut driver = ChurnDriver::new(plan, &graph).unwrap();
        let mut sizes = Vec::new();
        for round in 0..12 {
            sizes.push(driver.apply_round(round).unwrap().len());
        }
        // Expected 3.1 deletes + 3.1 inserts per round; the two fractional
        // parts are rounded by *independent* keyed Bernoulli draws, so each
        // round yields 6, 7, or 8 events (floor/floor .. ceil/ceil).
        assert!(sizes.iter().all(|&s| (6..=8).contains(&s)), "{sizes:?}");
        assert!(sizes.iter().any(|&s| s != sizes[0]), "{sizes:?}");
    }

    #[test]
    fn generated_events_skip_when_no_candidates_remain() {
        let plan = ChurnPlan::new(1).with_delete_rate(1.0);
        let mut driver = ChurnDriver::new(plan, &path4()).unwrap();
        for round in 0..4 {
            driver.apply_round(round).unwrap();
        }
        assert_eq!(driver.overlay().live_edge_count(), 0);
        assert!(driver.apply_round(9).unwrap().is_empty());
    }

    #[test]
    fn churn_events_roundtrip_on_the_wire() {
        let events = [
            ChurnEvent::EdgeInsert {
                edge: EdgeId::new(7),
                u: n(1),
                v: n(2),
            },
            ChurnEvent::EdgeDelete {
                edge: EdgeId::new(u64::MAX),
            },
            ChurnEvent::NodeJoin { node: n(0) },
            ChurnEvent::NodeLeave { node: n(u32::MAX) },
        ];
        for event in events {
            let encoded = event.encode_to_vec();
            assert_eq!(encoded.len(), ChurnEvent::WIRE_BYTES);
            assert_eq!(ChurnEvent::decode(&encoded), Ok(event));
        }
    }

    #[test]
    fn churn_event_decode_rejects_corruption() {
        let event = ChurnEvent::EdgeDelete {
            edge: EdgeId::new(3),
        };
        let encoded = event.encode_to_vec();
        assert!(matches!(
            ChurnEvent::decode(&encoded[..10]),
            Err(CodecError::Truncated { .. })
        ));
        let mut long = encoded.clone();
        long.push(0);
        assert!(matches!(
            ChurnEvent::decode(&long),
            Err(CodecError::Oversized { .. })
        ));
        let mut bad_tag = encoded.clone();
        bad_tag[0] = 0xEE;
        assert_eq!(
            ChurnEvent::decode(&bad_tag),
            Err(CodecError::InvalidTag { tag: 0xEE })
        );
        let mut bad_pad = encoded.clone();
        bad_pad[2] = 1;
        assert_eq!(
            ChurnEvent::decode(&bad_pad),
            Err(CodecError::InvalidPadding)
        );
        // Non-zero unused field on a delete (a node slot) is corruption too.
        let mut bad_field = encoded;
        bad_field[13] = 1;
        assert_eq!(
            ChurnEvent::decode(&bad_field),
            Err(CodecError::InvalidPadding)
        );
    }
}
