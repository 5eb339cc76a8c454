//! Deterministic fault injection: seeded message drops, duplications, link
//! cuts, node crashes and delivery-order perturbation.
//!
//! The clean engine models the paper's failure-free synchronous LOCAL
//! network. Real overlays — heterogeneous P2P networks most of all — lose,
//! duplicate and reorder messages and lose whole nodes, and message-frugal
//! simulation matters most exactly there. A [`FaultPlan`] describes such an
//! adversity scenario *deterministically*: every per-message outcome is
//! resolved from a ChaCha stream keyed by
//! `(plan seed, round, edge, sender, message index)`, so a faulty execution
//! is a pure function of `(graph, config, plan)` — independent of the shard
//! count, of [`TraceMode`](crate::trace::TraceMode), and of thread
//! scheduling. Robustness experiments therefore inherit the same
//! bit-identical cross-shard guarantee as clean runs, and every scenario is
//! replayable from three seeds.
//!
//! The keying discipline is also what makes the fault plane
//! **checkpoint-restorable** for free: a [`NetworkCheckpoint`] stores no
//! fault state beyond a plan digest and the ledger's fault totals —
//! restore re-supplies the plan and simply resumes drawing from the streams
//! at the checkpoint round, since every outcome is keyed by absolute round,
//! not by how many draws preceded it (`docs/RECOVERY.md`;
//! `tests/recovery_matrix.rs` pins mid-plan kill/resume identity).
//!
//! [`NetworkCheckpoint`]: crate::checkpoint::NetworkCheckpoint
//!
//! # Fault kinds
//!
//! * **Message drop** — each message is dropped independently with
//!   [`FaultPlan::drop_probability`].
//! * **Message duplication** — each delivered message is duplicated with
//!   [`FaultPlan::duplicate_probability`] (the copy crosses the same edge in
//!   the same round and is charged by the ledger like any other message).
//! * **Link cut** — a [`LinkCut`] silently discards every message on one
//!   edge from a given round on, in both directions.
//! * **Node crash** — a [`CrashSchedule`] fail-stops one node at a given
//!   round: from that round on the node is never stepped again (its program
//!   state freezes), it sends nothing, and messages addressed to it are
//!   discarded. Crashed nodes count as halted so executions terminate.
//! * **Delivery perturbation** — [`FaultPlan::perturb_delivery`] applies a
//!   seeded permutation to every inbox after delivery, probing (and
//!   regression-testing) algorithms' sensitivity to message arrival order
//!   within a round.
//!
//! Dropped and duplicated messages are attributed in the
//! [`MessageLedger`](crate::metrics::MessageLedger)'s fault-accounting
//! column — see `docs/METRICS.md` §6 for the exact convention (delivered
//! traffic is metered as usual; drops never reach the per-edge counters).
//!
//! The engine is the only place a plan acts: each node's sends meet their
//! fates in the execute phase, right after the node's step, and the
//! perturbation reorders the inboxes after delivery.
//!
//! # Examples
//!
//! ```
//! use freelunch_graph::generators::{cycle_graph, GeneratorConfig};
//! use freelunch_graph::NodeId;
//! use freelunch_runtime::{Context, Envelope, FaultPlan, Network, NetworkConfig, NodeProgram};
//!
//! struct Pulse;
//! impl NodeProgram for Pulse {
//!     type Message = u32;
//!     fn init(&mut self, ctx: &mut Context<'_, u32>) {
//!         ctx.broadcast(1);
//!     }
//!     fn round(&mut self, ctx: &mut Context<'_, u32>, _inbox: &[Envelope<u32>]) {
//!         ctx.halt();
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = cycle_graph(&GeneratorConfig::new(8, 0))?;
//! let plan = FaultPlan::new(7).with_drop_probability(0.5).with_crash(NodeId::new(3), 0);
//! let mut network = Network::with_fault_plan(&graph, NetworkConfig::with_seed(1), plan, |_, _| Pulse)?;
//! network.run_until_halt(4)?;
//! let faults = network.ledger().fault_totals();
//! // Node 3 never ran, and roughly half of the remaining messages were lost.
//! assert!(network.is_crashed(NodeId::new(3)));
//! assert!(faults.dropped > 0);
//! # Ok(())
//! # }
//! ```

use freelunch_graph::{CsrGraph, EdgeId, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A link cut: every message crossing `edge` in round `from_round` or later
/// (in either direction) is silently discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkCut {
    /// The edge to cut.
    pub edge: EdgeId,
    /// First round (0 = initialization) in which the cut is in force.
    pub from_round: u32,
}

/// A crash schedule: `node` fail-stops at `at_round` — it is not stepped in
/// that round or any later one, sends nothing, and messages addressed to it
/// are discarded (attributed as crash drops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashSchedule {
    /// The node that crashes.
    pub node: NodeId,
    /// First round (0 = initialization) the node no longer participates in.
    pub at_round: u32,
}

/// The per-message outcome drawn from the fault stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MessageFate {
    /// The message is delivered normally.
    Deliver,
    /// The message is silently dropped.
    Drop,
    /// The message is delivered twice (the duplicate crosses the same edge
    /// in the same round).
    Duplicate,
}

/// A deterministic fault-injection scenario (see the [module docs](self)).
///
/// The empty plan ([`FaultPlan::none`], or any plan for which
/// [`FaultPlan::is_empty`] is `true`) is guaranteed to leave an execution
/// byte-identical to one that never installed a plan — the engine does no
/// per-message fault work at all in that case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault stream. Independent from the network seed: the same
    /// algorithmic execution can be subjected to many adversity scenarios
    /// (and vice versa).
    pub seed: u64,
    /// Probability that any given message is dropped (in `[0, 1]`).
    pub drop_probability: f64,
    /// Probability that a non-dropped message is duplicated (in `[0, 1]`).
    pub duplicate_probability: f64,
    /// Edges cut from a given round on.
    pub link_cuts: Vec<LinkCut>,
    /// Nodes that fail-stop at a given round.
    pub crashes: Vec<CrashSchedule>,
    /// Whether to apply a seeded permutation to every inbox after delivery.
    pub perturb_delivery: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults of any kind.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            link_cuts: Vec::new(),
            crashes: Vec::new(),
            perturb_delivery: false,
        }
    }

    /// An empty plan carrying the given fault seed (configure it with the
    /// `with_*` builders).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Returns a copy with the per-message drop probability set.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Returns a copy with the per-message duplication probability set.
    pub fn with_duplicate_probability(mut self, p: f64) -> Self {
        self.duplicate_probability = p;
        self
    }

    /// Returns a copy with one more link cut.
    pub fn with_link_cut(mut self, edge: EdgeId, from_round: u32) -> Self {
        self.link_cuts.push(LinkCut { edge, from_round });
        self
    }

    /// Returns a copy with one more crash schedule.
    pub fn with_crash(mut self, node: NodeId, at_round: u32) -> Self {
        self.crashes.push(CrashSchedule { node, at_round });
        self
    }

    /// Returns a copy with delivery-order perturbation enabled.
    pub fn with_delivery_perturbation(mut self) -> Self {
        self.perturb_delivery = true;
        self
    }

    /// Returns `true` if the plan injects no fault at all (the engine then
    /// skips the fault path entirely).
    pub fn is_empty(&self) -> bool {
        self.drop_probability <= 0.0
            && self.duplicate_probability <= 0.0
            && self.link_cuts.is_empty()
            && self.crashes.is_empty()
            && !self.perturb_delivery
    }

    /// Returns `true` if the plan can make messages disappear or multiply
    /// (drops, duplicates, cuts or crashes — everything except pure
    /// delivery perturbation).
    pub(crate) fn affects_messages(&self) -> bool {
        self.drop_probability > 0.0
            || self.duplicate_probability > 0.0
            || !self.link_cuts.is_empty()
            || !self.crashes.is_empty()
    }

    /// Validates the plan's probabilities.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated requirement.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_probability", self.drop_probability),
            ("duplicate_probability", self.duplicate_probability),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability in [0, 1], got {p}"));
            }
        }
        Ok(())
    }

    /// Resolves the fate of one message from the keyed ChaCha stream.
    ///
    /// `msg_index` is the message's index within its sender's sends of that
    /// round. The key is `(seed, round, edge, sender, msg_index)`, so the
    /// outcome depends only on *which* message it is — never on the order
    /// faults are applied in, which is what makes faulty executions
    /// independent of the shard count.
    pub(crate) fn message_fate(
        &self,
        round: u32,
        edge: EdgeId,
        sender: NodeId,
        msg_index: u32,
    ) -> MessageFate {
        if self.drop_probability <= 0.0 && self.duplicate_probability <= 0.0 {
            return MessageFate::Deliver;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(message_seed(
            self.seed,
            round,
            edge.raw(),
            sender.raw(),
            msg_index,
        ));
        if self.drop_probability > 0.0 && rng.gen_bool(self.drop_probability) {
            return MessageFate::Drop;
        }
        if self.duplicate_probability > 0.0 && rng.gen_bool(self.duplicate_probability) {
            return MessageFate::Duplicate;
        }
        MessageFate::Deliver
    }

    /// Applies the seeded delivery permutation for `(round, receiver)` to a
    /// mailbox (Fisher–Yates over a ChaCha stream keyed independently of the
    /// drop/duplicate stream). No-op unless
    /// [`FaultPlan::perturb_delivery`] is set.
    pub(crate) fn perturb_mailbox<T>(&self, round: u32, receiver: NodeId, mailbox: &mut [T]) {
        if !self.perturb_delivery || mailbox.len() < 2 {
            return;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(message_seed(
            self.seed ^ PERTURB_TAG,
            round,
            u64::from(receiver.raw()),
            receiver.raw(),
            0,
        ));
        for i in (1..mailbox.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            mailbox.swap(i, j);
        }
    }
}

/// Domain-separation tag of the delivery-perturbation stream.
const PERTURB_TAG: u64 = 0x5045_5254_5552_4221; // "PERTURB!"

/// splitmix64 finalizer — the single mixer shared by the fault streams here
/// and the engine's per-node RNG seeds (`engine::node_seed`).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds the fault key `(seed, round, edge, sender, msg_index)` into one
/// 64-bit ChaCha seed. Each word passes through the splitmix64 finalizer so
/// nearby keys land in unrelated streams.
pub(crate) fn message_seed(seed: u64, round: u32, edge: u64, sender: u32, msg_index: u32) -> u64 {
    let mut acc = splitmix64(seed ^ 0x4641_554C_5431_4E4A); // "FAULT1NJ"
    acc = splitmix64(acc ^ u64::from(round));
    acc = splitmix64(acc ^ edge);
    acc = splitmix64(acc ^ u64::from(sender));
    splitmix64(acc ^ u64::from(msg_index))
}

/// The engine-internal resolved form of a plan: dense per-edge cut rounds
/// and per-node crash rounds for O(1) queries on the dispatch path.
#[derive(Debug)]
pub(crate) struct ResolvedFaultPlan {
    plan: FaultPlan,
    /// Per edge slot: first round the edge is cut (`u32::MAX` = never).
    cut_from: Vec<u32>,
    /// Per node: first round the node no longer participates in
    /// (`u32::MAX` = never).
    crash_from: Vec<u32>,
}

impl ResolvedFaultPlan {
    /// Resolves `plan` against a network of `node_count` nodes whose edges
    /// are given by the dense `edge_endpoints` table
    /// ([`CsrGraph::endpoint_table`]). Link cuts on edges the table does
    /// not hold (IDs past its end, or a gap in a sparse ID space) and
    /// crashes of out-of-range nodes are rejected with a description.
    pub(crate) fn resolve(
        plan: FaultPlan,
        edge_endpoints: &[[u32; 2]],
        node_count: usize,
    ) -> Result<Self, String> {
        plan.validate()?;
        let mut cut_from = vec![u32::MAX; edge_endpoints.len()];
        for cut in &plan.link_cuts {
            let index = cut.edge.index();
            if edge_endpoints
                .get(index)
                .is_none_or(|ends| ends[0] == CsrGraph::NO_ENDPOINT)
            {
                return Err(format!("link cut references unknown edge {}", cut.edge));
            }
            cut_from[index] = cut_from[index].min(cut.from_round);
        }
        let mut crash_from = vec![u32::MAX; node_count];
        for crash in &plan.crashes {
            let slot = crash_from
                .get_mut(crash.node.index())
                .ok_or_else(|| format!("crash schedule references unknown node {}", crash.node))?;
            *slot = (*slot).min(crash.at_round);
        }
        Ok(ResolvedFaultPlan {
            plan,
            cut_from,
            crash_from,
        })
    }

    /// The plan this was resolved from.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// See [`FaultPlan::affects_messages`].
    pub(crate) fn affects_messages(&self) -> bool {
        self.plan.affects_messages()
    }

    /// Whether delivery perturbation is enabled.
    pub(crate) fn perturbs(&self) -> bool {
        self.plan.perturb_delivery
    }

    /// Returns `true` if the edge with dense index `edge_index` is cut in
    /// `round`. Edges beyond the resolved range (churn-inserted after the
    /// plan was resolved against the initial graph) can never be scheduled
    /// for a cut, so they are never cut.
    #[inline]
    pub(crate) fn link_cut_at(&self, edge_index: usize, round: u32) -> bool {
        self.cut_from
            .get(edge_index)
            .is_some_and(|&from| from <= round)
    }

    /// Returns `true` if the node with index `node_index` does not
    /// participate in `round`.
    #[inline]
    pub(crate) fn crashed_at(&self, node_index: usize, round: u32) -> bool {
        self.crash_from[node_index] <= round
    }

    /// Classifies one message (already past the link-cut and crash gates)
    /// through the keyed stream.
    #[inline]
    pub(crate) fn fate(
        &self,
        round: u32,
        edge: EdgeId,
        sender: NodeId,
        msg_index: u32,
    ) -> MessageFate {
        self.plan.message_fate(round, edge, sender, msg_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The endpoint table of a path on `nodes` nodes with edge `e` joining
    /// `e` and `e + 1`.
    fn path_endpoints(nodes: u32) -> Vec<[u32; 2]> {
        (1..nodes).map(|v| [v - 1, v]).collect()
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.affects_messages());
        assert!(plan.validate().is_ok());
        assert_eq!(
            plan.message_fate(3, EdgeId::new(1), NodeId::new(0), 0),
            MessageFate::Deliver
        );
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::new(9)
            .with_drop_probability(0.25)
            .with_duplicate_probability(0.5)
            .with_link_cut(EdgeId::new(4), 2)
            .with_crash(NodeId::new(1), 3)
            .with_delivery_perturbation();
        assert!(!plan.is_empty());
        assert!(plan.affects_messages());
        assert_eq!(plan.seed, 9);
        let resolved = ResolvedFaultPlan::resolve(plan, &path_endpoints(7), 7).unwrap();
        assert!(resolved.perturbs());
        assert!(resolved.link_cut_at(4, 2));
        assert!(!resolved.link_cut_at(4, 1));
        assert!(!resolved.link_cut_at(5, 9));
        assert!(resolved.crashed_at(1, 3));
        assert!(!resolved.crashed_at(1, 2));
        assert!(!resolved.crashed_at(2, 1_000));
    }

    #[test]
    fn probabilities_are_validated() {
        assert!(FaultPlan::new(0)
            .with_drop_probability(1.5)
            .validate()
            .is_err());
        assert!(FaultPlan::new(0)
            .with_duplicate_probability(-0.1)
            .validate()
            .is_err());
        assert!(FaultPlan::new(0)
            .with_drop_probability(f64::NAN)
            .validate()
            .is_err());
        assert!(FaultPlan::new(0)
            .with_drop_probability(1.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn fate_is_deterministic_and_key_sensitive() {
        let plan = FaultPlan::new(5).with_drop_probability(0.5);
        let fate = |round, edge, sender, index| {
            plan.message_fate(round, EdgeId::new(edge), NodeId::new(sender), index)
        };
        // Same key, same fate — every time.
        for _ in 0..3 {
            assert_eq!(fate(1, 2, 3, 0), fate(1, 2, 3, 0));
        }
        // Different components of the key give independent draws: over many
        // keys, both outcomes occur.
        let mut dropped = 0;
        let mut delivered = 0;
        for edge in 0..64u64 {
            match fate(1, edge, 0, 0) {
                MessageFate::Drop => dropped += 1,
                MessageFate::Deliver => delivered += 1,
                MessageFate::Duplicate => {}
            }
        }
        assert!(dropped > 8, "only {dropped}/64 dropped at p=0.5");
        assert!(delivered > 8, "only {delivered}/64 delivered at p=0.5");
    }

    #[test]
    fn earliest_schedule_wins_on_duplicates() {
        let plan = FaultPlan::new(0)
            .with_crash(NodeId::new(2), 5)
            .with_crash(NodeId::new(2), 3)
            .with_link_cut(EdgeId::new(1), 7)
            .with_link_cut(EdgeId::new(1), 4);
        let resolved = ResolvedFaultPlan::resolve(plan, &path_endpoints(3), 3).unwrap();
        assert!(resolved.crashed_at(2, 3));
        assert!(!resolved.crashed_at(2, 2));
        assert!(resolved.link_cut_at(1, 4));
        assert!(!resolved.link_cut_at(1, 3));
    }

    #[test]
    fn resolve_rejects_out_of_range_references() {
        let plan = FaultPlan::new(0).with_link_cut(EdgeId::new(10), 0);
        assert!(ResolvedFaultPlan::resolve(plan, &path_endpoints(3), 3).is_err());
        let plan = FaultPlan::new(0).with_crash(NodeId::new(10), 0);
        assert!(ResolvedFaultPlan::resolve(plan, &path_endpoints(3), 3).is_err());
    }

    #[test]
    fn perturbation_is_deterministic_and_a_permutation() {
        let plan = FaultPlan::new(11).with_delivery_perturbation();
        let mut a: Vec<u32> = (0..20).collect();
        let mut b: Vec<u32> = (0..20).collect();
        plan.perturb_mailbox(3, NodeId::new(7), &mut a);
        plan.perturb_mailbox(3, NodeId::new(7), &mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        // A different receiver gets a different permutation (whp for 20!).
        let mut c: Vec<u32> = (0..20).collect();
        plan.perturb_mailbox(3, NodeId::new(8), &mut c);
        assert_ne!(a, c);
        // Disabled perturbation leaves mailboxes untouched.
        let mut d: Vec<u32> = (0..20).collect();
        FaultPlan::none().perturb_mailbox(3, NodeId::new(7), &mut d);
        assert_eq!(d, (0..20).collect::<Vec<_>>());
    }
}
