//! The robustness flagship: algorithms × workloads × fault profiles ×
//! shard counts.
//!
//! Every LOCAL algorithm runs on every workload family under every fault
//! profile (message drop, duplication, link cuts, node crashes, delivery
//! reordering, and their combination), and the suite asserts three layers:
//!
//! 1. **Determinism** — outputs, metrics, the message ledger (including its
//!    fault-accounting column), crash state and even the error outcome are
//!    bit-identical across shard counts {1, 2, 8} at equal
//!    `(network seed, fault seed)`, extending the clean-run guarantee of
//!    `tests/determinism_matrix.rs` to adversarial executions.
//! 2. **Clean-plan identity** — the `clean` profile (an installed but empty
//!    `FaultPlan`) is byte-identical to never installing a plan at all.
//! 3. **Classification** — a per-algorithm invariant checker grades each
//!    scenario `Correct` (the full specification holds), `DegradedSafe`
//!    (safety holds but the output is incomplete — e.g. undecided or
//!    crashed nodes), or `Violated` (a safety invariant broke, e.g. two
//!    adjacent MIS members). Clean scenarios must be `Correct`; crash-only
//!    scenarios must never be `Violated` (silence cannot forge messages);
//!    broadcast must never be `Violated` under *any* profile (no fault kind
//!    can fabricate a node ID); and across the faulty grid at least one
//!    scenario must degrade — otherwise the matrix isn't testing anything.
//!
//! To add a scenario, extend `profiles()` (a new adversity shape) or add a
//! `fault_matrix_*` test wired through `drive()` (a new algorithm) — see
//! `docs/TESTING.md`.

use freelunch::algorithms::{
    is_maximal_independent_set, is_maximal_matching, is_proper_coloring, BallGathering, LubyMis,
    MaximalMatching, MisState, RandomizedColoring,
};
use freelunch::graph::generators::{
    barabasi_albert, sparse_connected_erdos_renyi, sparse_planted_partition, GeneratorConfig,
};
use freelunch::graph::traversal::ball;
use freelunch::graph::{EdgeId, MultiGraph, NodeId};
use freelunch::runtime::transport::{MockTransport, WireCodec};
use freelunch::runtime::{
    ExecutionMetrics, FaultPlan, InitialKnowledge, MessageLedger, Network, NetworkConfig,
    NodeProgram, TraceMode,
};
use std::collections::HashSet;
use std::fmt::Debug;

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// Gathering horizon of the broadcast workload.
const BROADCAST_T: u32 = 2;

/// The workload families.
fn workloads() -> Vec<(&'static str, MultiGraph)> {
    vec![
        (
            "sparse-er",
            sparse_connected_erdos_renyi(&GeneratorConfig::new(64, 21), 5.0).unwrap(),
        ),
        (
            "scale-free",
            barabasi_albert(&GeneratorConfig::new(64, 22), 3).unwrap(),
        ),
        (
            "communities",
            sparse_planted_partition(&GeneratorConfig::new(64, 23), 4, 7.0, 1.0).unwrap(),
        ),
    ]
}

/// The crash schedule shared by the `crash` and `chaos` profiles: three
/// fail-stops before the first round and one mid-execution.
fn crash_schedule(n: usize) -> Vec<(NodeId, u32)> {
    vec![
        (NodeId::from_usize(n / 5), 0),
        (NodeId::from_usize(2 * n / 5), 0),
        (NodeId::from_usize(3 * n / 5), 0),
        (NodeId::from_usize(4 * n / 5), 4),
    ]
}

/// The fault profiles of the matrix, sized against the given workload: the
/// four acceptance-criteria kinds (plus `clean`), duplication, pure
/// reordering and the combined chaos profile.
fn profiles(graph: &MultiGraph) -> Vec<(&'static str, FaultPlan)> {
    let n = graph.node_count();
    let m = graph.edge_count();
    let crash = {
        let mut plan = FaultPlan::new(102);
        for (node, round) in crash_schedule(n) {
            plan = plan.with_crash(node, round);
        }
        plan
    };
    let link_cut = {
        // Every 7th edge is cut from the start, every 11th from round 2 —
        // both "was never there" and "died mid-execution" shapes.
        let mut plan = FaultPlan::new(103);
        for e in (0..m as u64).step_by(7) {
            plan = plan.with_link_cut(EdgeId::new(e), 0);
        }
        for e in (3..m as u64).step_by(11) {
            plan = plan.with_link_cut(EdgeId::new(e), 2);
        }
        plan
    };
    let mut chaos = FaultPlan::new(106)
        .with_drop_probability(0.05)
        .with_duplicate_probability(0.05)
        .with_delivery_perturbation();
    chaos.link_cuts = link_cut.link_cuts.clone();
    chaos.crashes = crash.crashes.clone();
    vec![
        ("clean", FaultPlan::none()),
        ("drop", FaultPlan::new(101).with_drop_probability(0.15)),
        ("crash", crash),
        ("link-cut", link_cut),
        (
            "duplicate",
            FaultPlan::new(104).with_duplicate_probability(0.25),
        ),
        ("reorder", FaultPlan::new(105).with_delivery_perturbation()),
        ("chaos", chaos),
    ]
}

/// How an invariant checker grades one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The algorithm's full specification holds on the whole graph.
    Correct,
    /// Safety holds but the output is incomplete (crashed, undecided or
    /// unreached nodes).
    DegradedSafe,
    /// A safety invariant broke.
    Violated,
}

/// Everything observable about one (graph, plan, seed, shards) execution.
#[derive(Debug, Clone, PartialEq)]
struct Scenario<O> {
    outputs: Vec<O>,
    metrics: ExecutionMetrics,
    ledger: MessageLedger,
    crashed: Vec<NodeId>,
    /// Stringified error if the run did not halt in budget (some faulty
    /// scenarios legitimately never converge); must itself be deterministic.
    error: Option<String>,
}

#[allow(clippy::too_many_arguments)]
fn run_scenario<P, O>(
    graph: &MultiGraph,
    plan: &FaultPlan,
    seed: u64,
    budget: u32,
    shards: usize,
    trace_mode: TraceMode,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy,
    extract: impl Fn(&P) -> O,
) -> Scenario<O>
where
    P: NodeProgram,
{
    let config = NetworkConfig::with_seed(seed)
        .traced(if trace_mode == TraceMode::Full {
            100_000
        } else {
            0
        })
        .trace_mode(trace_mode)
        .sharded(shards);
    let mut network = Network::with_fault_plan(graph, config, plan.clone(), factory).unwrap();
    let error = network.run_until_halt(budget).err().map(|e| e.to_string());
    Scenario {
        outputs: network.programs().iter().map(&extract).collect(),
        metrics: network.metrics().clone(),
        ledger: network.ledger().clone(),
        crashed: network.crashed_nodes(),
        error,
    }
}

/// Drives one algorithm through the whole matrix: for every workload ×
/// profile it pins cross-shard bit-identity (and the clean-plan ≡ no-plan
/// identity), then hands the reference scenario to `assess` for
/// algorithm-specific grading, collecting the verdicts.
fn drive<P, O>(
    algo: &str,
    seed: u64,
    budget: u32,
    factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy,
    extract: impl Fn(&P) -> O + Copy,
    assess: impl Fn(&str, &MultiGraph, &FaultPlan, &Scenario<O>) -> Verdict,
) -> Vec<(String, String, Verdict)>
where
    P: NodeProgram,
    O: PartialEq + Debug + Clone,
{
    let mut verdicts = Vec::new();
    for (workload, graph) in workloads() {
        for (profile, plan) in profiles(&graph) {
            let label = format!("{algo}/{workload}/{profile}");
            let reference = run_scenario(
                &graph,
                &plan,
                seed,
                budget,
                SHARD_COUNTS[0],
                TraceMode::Off,
                factory,
                extract,
            );
            for &shards in &SHARD_COUNTS[1..] {
                let sharded = run_scenario(
                    &graph,
                    &plan,
                    seed,
                    budget,
                    shards,
                    TraceMode::Off,
                    factory,
                    extract,
                );
                assert_eq!(reference, sharded, "{label}: differs at {shards} shards");
            }
            if profile == "clean" {
                // An installed empty plan must be indistinguishable from no
                // plan at all.
                let config = NetworkConfig::with_seed(seed);
                let mut network = Network::new(&graph, config, factory).unwrap();
                let error = network.run_until_halt(budget).err().map(|e| e.to_string());
                let bare = Scenario {
                    outputs: network.programs().iter().map(&extract).collect(),
                    metrics: network.metrics().clone(),
                    ledger: network.ledger().clone(),
                    crashed: network.crashed_nodes(),
                    error,
                };
                assert_eq!(reference, bare, "{label}: clean plan differs from no plan");
                assert_eq!(reference.ledger.fault_totals().dropped, 0, "{label}");
            }
            let verdict = assess(&label, &graph, &plan, &reference);
            if profile == "clean" {
                assert_eq!(
                    verdict,
                    Verdict::Correct,
                    "{label}: clean run must be Correct"
                );
            }
            if profile == "crash" {
                // Crashes are pure silence: they can lose information but
                // never forge it, so safety must survive.
                assert_ne!(verdict, Verdict::Violated, "{label}: crash broke safety");
            }
            verdicts.push((workload.to_string(), profile.to_string(), verdict));
        }
    }
    // The matrix must actually bite: across the faulty profiles at least
    // one scenario degrades away from full correctness.
    assert!(
        verdicts
            .iter()
            .any(|(_, profile, verdict)| profile != "clean" && *verdict != Verdict::Correct),
        "{algo}: no fault profile perturbed the output — the matrix is vacuous"
    );
    verdicts
}

/// The nodes the plan ever crashes (the survivors are everything else).
fn crashed_set(plan: &FaultPlan) -> HashSet<usize> {
    plan.crashes.iter().map(|c| c.node.index()).collect()
}

#[test]
fn fault_matrix_mis() {
    let verdicts = drive(
        "luby-mis",
        1,
        300,
        |_, knowledge| LubyMis::new(knowledge.degree()),
        LubyMis::state,
        |label, graph, plan, scenario| {
            let states = &scenario.outputs;
            // Safety: independence. Two adjacent members violate it no
            // matter what the adversary did.
            for edge in graph.edges() {
                if states[edge.u.index()] == MisState::InSet
                    && states[edge.v.index()] == MisState::InSet
                {
                    return Verdict::Violated;
                }
            }
            let crashed = crashed_set(plan);
            if crashed.is_empty()
                && scenario.error.is_none()
                && is_maximal_independent_set(graph, states)
            {
                return Verdict::Correct;
            }
            // Independence holds; with crashes (or an unfinished run) the
            // set may legitimately be non-maximal. Live nodes must still be
            // *covered or decided* for the scenario to count as safe.
            let _ = label;
            Verdict::DegradedSafe
        },
    );
    assert!(verdicts.iter().any(|(_, p, _)| p == "drop"));
}

#[test]
fn fault_matrix_coloring() {
    drive(
        "coloring",
        2,
        400,
        |_, knowledge| RandomizedColoring::new(knowledge.degree()),
        RandomizedColoring::color,
        |_label, graph, plan, scenario| {
            let colors = &scenario.outputs;
            // Safety: no two adjacent *decided* nodes share a color.
            for edge in graph.edges() {
                let (a, b) = (colors[edge.u.index()], colors[edge.v.index()]);
                if a.is_some() && a == b {
                    return Verdict::Violated;
                }
            }
            let crashed = crashed_set(plan);
            if crashed.is_empty() && scenario.error.is_none() && is_proper_coloring(graph, colors) {
                Verdict::Correct
            } else {
                Verdict::DegradedSafe
            }
        },
    );
}

#[test]
fn fault_matrix_matching() {
    drive(
        "matching",
        3,
        150,
        |_, _| MaximalMatching::new(),
        MaximalMatching::matched_over,
        |label, graph, plan, scenario| {
            let matched = &scenario.outputs;
            // Safety: endpoint agreement. A half-married pair (one endpoint
            // believes in the edge, the other does not) is the classic
            // lost-Accept anomaly and counts as a violation.
            for (v, m) in matched.iter().enumerate() {
                if let Some(edge) = m {
                    let Ok((a, b)) = graph.endpoints(*edge) else {
                        panic!("{label}: matched over unknown edge {edge}");
                    };
                    if a.index() != v && b.index() != v {
                        return Verdict::Violated;
                    }
                    let other = if a.index() == v { b } else { a };
                    if matched[other.index()] != Some(*edge) {
                        return Verdict::Violated;
                    }
                }
            }
            let crashed = crashed_set(plan);
            if crashed.is_empty() && scenario.error.is_none() && is_maximal_matching(graph, matched)
            {
                Verdict::Correct
            } else {
                Verdict::DegradedSafe
            }
        },
    );
}

#[test]
fn fault_matrix_broadcast() {
    let verdicts = drive(
        "ball-gathering",
        4,
        BROADCAST_T + 2,
        |node, _| BallGathering::new(node, BROADCAST_T),
        BallGathering::known_ids,
        |label, graph, plan, scenario| {
            let views = &scenario.outputs;
            let frozen = graph.freeze();
            // Soundness: no fault kind can fabricate a node ID, so every
            // view must stay inside the true t-ball.
            for v in graph.nodes() {
                let truth: HashSet<u32> = ball(&frozen, v, BROADCAST_T)
                    .unwrap()
                    .into_iter()
                    .map(NodeId::raw)
                    .collect();
                for &id in &views[v.index()] {
                    if !truth.contains(&id) {
                        return Verdict::Violated;
                    }
                }
            }
            let crashed = crashed_set(plan);
            // Reach on the surviving component: tokens must still travel
            // every all-live path, so each live node's view contains at
            // least its t-ball in the crash-free induced subgraph (only
            // meaningful when messages are merely delayed by silence, i.e.
            // the plan drops nothing besides crash traffic).
            if plan.drop_probability == 0.0 && plan.link_cuts.is_empty() {
                let live_edges: Vec<EdgeId> = graph
                    .edges()
                    .filter(|e| !crashed.contains(&e.u.index()) && !crashed.contains(&e.v.index()))
                    .map(|e| e.id)
                    .collect();
                let surviving = graph.edge_subgraph(live_edges).unwrap();
                for v in graph.nodes() {
                    if crashed.contains(&v.index()) {
                        continue;
                    }
                    let view: HashSet<u32> = views[v.index()].iter().copied().collect();
                    for u in ball(&surviving, v, BROADCAST_T).unwrap() {
                        assert!(
                            view.contains(&u.raw()),
                            "{label}: node {v} missed {u} from its surviving-component ball"
                        );
                    }
                }
            }
            // Completeness: the exact t-ball everywhere.
            let complete = graph.nodes().all(|v| {
                let truth: Vec<u32> = ball(&frozen, v, BROADCAST_T)
                    .unwrap()
                    .into_iter()
                    .map(NodeId::raw)
                    .collect();
                views[v.index()] == truth
            });
            if complete && crashed.is_empty() && scenario.error.is_none() {
                Verdict::Correct
            } else {
                Verdict::DegradedSafe
            }
        },
    );
    // Broadcast soundness is unconditional: no profile may ever reach
    // Violated (a fabricated ID would mean the fault plane corrupted a
    // payload, not just dropped/duplicated/reordered envelopes).
    for (workload, profile, verdict) in &verdicts {
        assert_ne!(
            *verdict,
            Verdict::Violated,
            "ball-gathering/{workload}/{profile}: views contain fabricated IDs"
        );
    }
}

/// Fault plane × transport: the [`FaultPlan`] is resolved in the engine
/// *before* the barrier hands frames to a backend, so swapping the
/// in-process barrier for the wire-faithful mock must not move a single
/// bit — same ChaCha keying, same per-cause drop/duplicate totals, same
/// outputs, same error outcome. A reduced grid (first workload, every
/// profile, shards {1, 2}) over two algorithms is enough to pin this:
/// any keying drift would desynchronise the very first faulty round.
#[test]
fn fault_resolution_is_transport_independent() {
    fn check<P, O>(
        algo: &str,
        seed: u64,
        budget: u32,
        factory: impl Fn(NodeId, &InitialKnowledge) -> P + Copy,
        extract: impl Fn(&P) -> O + Copy,
    ) where
        P: NodeProgram,
        P::Message: WireCodec,
        O: PartialEq + Debug + Clone,
    {
        let (workload, graph) = workloads().remove(0);
        for (profile, plan) in profiles(&graph) {
            let label = format!("{algo}/{workload}/{profile}");
            for shards in [1usize, 2] {
                let reference = run_scenario(
                    &graph,
                    &plan,
                    seed,
                    budget,
                    shards,
                    TraceMode::Off,
                    factory,
                    extract,
                );
                let config = NetworkConfig::with_seed(seed).sharded(shards);
                let mut network = Network::with_transport(
                    &graph,
                    config,
                    plan.clone(),
                    MockTransport::new(),
                    factory,
                )
                .unwrap();
                let error = network.run_until_halt(budget).err().map(|e| e.to_string());
                let mock = Scenario {
                    outputs: network.programs().iter().map(&extract).collect(),
                    metrics: network.metrics().clone(),
                    ledger: network.ledger().clone(),
                    crashed: network.crashed_nodes(),
                    error,
                };
                assert_eq!(
                    reference, mock,
                    "{label}: mock backend diverged at {shards} shards"
                );
            }
        }
    }
    check(
        "luby-mis",
        1,
        300,
        |_, knowledge| LubyMis::new(knowledge.degree()),
        LubyMis::state,
    );
    check(
        "ball-gathering",
        4,
        BROADCAST_T + 2,
        |node, _| BallGathering::new(node, BROADCAST_T),
        BallGathering::known_ids,
    );
}

#[test]
fn trace_mode_parity_holds_under_faults() {
    let (_, graph) = workloads().remove(0);
    let n = graph.node_count();
    let mut plan = FaultPlan::new(77)
        .with_drop_probability(0.2)
        .with_delivery_perturbation();
    for (node, round) in crash_schedule(n) {
        plan = plan.with_crash(node, round);
    }
    let factory = |_: NodeId, knowledge: &InitialKnowledge| LubyMis::new(knowledge.degree());
    for shards in [1usize, 2] {
        let full = run_scenario(
            &graph,
            &plan,
            9,
            300,
            shards,
            TraceMode::Full,
            factory,
            LubyMis::state,
        );
        let off = run_scenario(
            &graph,
            &plan,
            9,
            300,
            shards,
            TraceMode::Off,
            factory,
            LubyMis::state,
        );
        assert_eq!(
            full, off,
            "trace mode changed a faulty execution at {shards} shards"
        );
        assert!(full.ledger.fault_totals().dropped > 0);
    }
}

/// The acceptance-criteria grid shape, pinned so a refactor cannot quietly
/// shrink the matrix: ≥ 4 fault kinds (drop, duplicate, link-cut, crash)
/// beyond clean, ≥ 3 workloads, shards {1, 2, 8}. (Four algorithms ride
/// through `drive` above.)
#[test]
fn matrix_grid_meets_the_acceptance_floor() {
    assert_eq!(SHARD_COUNTS, [1, 2, 8]);
    let graph = workloads().remove(0).1;
    let names: Vec<&str> = profiles(&graph).iter().map(|(name, _)| *name).collect();
    for required in ["clean", "drop", "crash", "link-cut"] {
        assert!(names.contains(&required), "missing profile {required}");
    }
    assert!(names.contains(&"duplicate"));
    assert!(names.len() >= 5, "full grid shrank to {names:?}");
    assert!(workloads().len() >= 3);
    // Every non-clean profile actually injects something.
    for (name, plan) in profiles(&graph) {
        if name == "clean" {
            assert!(plan.is_empty());
        } else {
            assert!(!plan.is_empty(), "profile {name} is empty");
        }
    }
}

/// The scheduling-parity row of the fault matrix: under the combined chaos
/// adversary (drop + duplicate + reorder + crash + link cuts) the chunked
/// work-stealing engine must reproduce the sequential engine bit-for-bit,
/// at 5-node chunks and at one contiguous range per shard. Fault fates are
/// resolved from a ChaCha stream keyed per message, so they cannot observe
/// which worker stepped the sender — this row pins that the chunk-claiming
/// order genuinely never leaks into fault resolution.
#[test]
fn fault_matrix_scheduling_parity() {
    let graph = workloads().remove(0).1;
    let n = graph.node_count();
    let m = graph.edge_count();
    let mut plan = FaultPlan::new(401)
        .with_drop_probability(0.05)
        .with_duplicate_probability(0.05)
        .with_delivery_perturbation()
        .with_crash(NodeId::from_usize(n / 2), 3);
    for e in (0..m as u64).step_by(9) {
        plan = plan.with_link_cut(EdgeId::new(e), 2);
    }
    let run = |shards: usize, chunk: usize| {
        let config = NetworkConfig::with_seed(7)
            .sharded(shards)
            .chunk_size(chunk);
        let mut network = Network::with_fault_plan(&graph, config, plan.clone(), |_, knowledge| {
            LubyMis::new(knowledge.degree())
        })
        .unwrap();
        let error = network.run_until_halt(300).err().map(|e| e.to_string());
        Scenario {
            outputs: network.programs().iter().map(LubyMis::state).collect(),
            metrics: network.metrics().clone(),
            ledger: network.ledger().clone(),
            crashed: network.crashed_nodes(),
            error,
        }
    };
    let serial = run(1, 5);
    for shards in [2, 8] {
        for chunk in [5, n.div_ceil(shards)] {
            assert_eq!(
                serial,
                run(shards, chunk),
                "chaos run differs at {shards} shards, chunk {chunk}"
            );
        }
    }
}
