//! Random graph models: Erdős–Rényi, fixed edge count, random regular.

use super::GeneratorConfig;
use crate::error::{GraphError, GraphResult};
use crate::multigraph::MultiGraph;
use crate::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

fn check_probability(p: f64) -> GraphResult<()> {
    if (0.0..=1.0).contains(&p) && p.is_finite() {
        Ok(())
    } else {
        Err(GraphError::invalid_parameter(format!(
            "edge probability must be in [0, 1], got {p}"
        )))
    }
}

/// Erdős–Rényi `G(n, p)`: every pair is an edge independently with
/// probability `p`. Not necessarily connected — see
/// [`connected_erdos_renyi`] for the connected variant used by the
/// experiments.
///
/// # Errors
///
/// Returns an error if `p` is outside `[0, 1]` or fewer than one node is
/// requested.
pub fn erdos_renyi(config: &GeneratorConfig, p: f64) -> GraphResult<MultiGraph> {
    config.require_at_least(1)?;
    check_probability(p)?;
    let n = config.nodes;
    let mut rng = config.rng();
    let expected = (p * (n * n.saturating_sub(1)) as f64 / 2.0).ceil() as usize;
    let mut graph = MultiGraph::with_capacity(n, expected);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                graph.add_edge(NodeId::from_usize(u), NodeId::from_usize(v))?;
            }
        }
    }
    Ok(graph)
}

/// Erdős–Rényi `G(n, p)` forced to be connected by first adding a random
/// Hamiltonian path (a standard trick that changes the edge count by at most
/// `n − 1` and keeps the density profile).
///
/// # Errors
///
/// Same conditions as [`erdos_renyi`].
pub fn connected_erdos_renyi(config: &GeneratorConfig, p: f64) -> GraphResult<MultiGraph> {
    config.require_at_least(1)?;
    check_probability(p)?;
    let n = config.nodes;
    let mut rng = config.rng();

    // Random Hamiltonian path guaranteeing connectivity.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut backbone: Vec<(usize, usize)> = Vec::with_capacity(n.saturating_sub(1));
    for w in order.windows(2) {
        backbone.push((w[0].min(w[1]), w[0].max(w[1])));
    }
    backbone.sort_unstable();

    let mut graph = MultiGraph::new(n);
    let mut backbone_iter = backbone.iter().peekable();
    for u in 0..n {
        for v in (u + 1)..n {
            let on_backbone = matches!(backbone_iter.peek(), Some(&&(a, b)) if (a, b) == (u, v));
            if on_backbone {
                backbone_iter.next();
            }
            if on_backbone || rng.gen_bool(p) {
                graph.add_edge(NodeId::from_usize(u), NodeId::from_usize(v))?;
            }
        }
    }
    Ok(graph)
}

/// Sparse connected Erdős–Rényi graph in `O(n + m)` expected time,
/// parameterized by the *expected average degree* instead of the edge
/// probability.
///
/// The quadratic pair scan of [`connected_erdos_renyi`] is fine up to a few
/// thousand nodes but hopeless at the million-node scale the scaling
/// experiments target; this variant uses Batagelj–Brandes geometric skip
/// sampling (each skip length is drawn from the geometric distribution of
/// the gap between successive successes of a Bernoulli process), so the
/// work is proportional to the number of edges actually produced.
/// Connectivity is guaranteed by a random Hamiltonian path, exactly as in
/// the dense variant.
///
/// The distribution matches `G(n, p)` with `p = expected_degree / (n − 1)`
/// (conditioned on the backbone), but the *stream of random draws* differs
/// from [`connected_erdos_renyi`], so equal seeds do not produce equal
/// graphs across the two functions.
///
/// # Errors
///
/// Returns an error if fewer than one node is requested or
/// `expected_degree` is negative, not finite, or at least `n − 1` (use the
/// dense generator for that regime).
pub fn sparse_connected_erdos_renyi(
    config: &GeneratorConfig,
    expected_degree: f64,
) -> GraphResult<MultiGraph> {
    config.require_at_least(1)?;
    let n = config.nodes;
    if !expected_degree.is_finite() || expected_degree < 0.0 {
        return Err(GraphError::invalid_parameter(format!(
            "expected degree must be finite and non-negative, got {expected_degree}"
        )));
    }
    if n > 1 && expected_degree >= (n - 1) as f64 {
        return Err(GraphError::invalid_parameter(format!(
            "expected degree {expected_degree} too close to n - 1 = {}; use connected_erdos_renyi",
            n - 1
        )));
    }
    let p = if n > 1 {
        expected_degree / (n - 1) as f64
    } else {
        0.0
    };
    let mut rng = config.rng();

    // Random Hamiltonian path guaranteeing connectivity; `pos` inverts
    // `order`, so `u` and `v` are path neighbours iff their positions differ
    // by one.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut pos = vec![0usize; n];
    for (i, &node) in order.iter().enumerate() {
        pos[node] = i;
    }
    let expected_edges = n + (expected_degree * n as f64 / 2.0) as usize;
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(expected_edges);
    for w in order.windows(2) {
        edges.push((
            NodeId::from_usize(w[0].min(w[1])),
            NodeId::from_usize(w[0].max(w[1])),
        ));
    }
    if p <= 0.0 {
        return MultiGraph::from_edges(n, edges);
    }

    // Batagelj–Brandes skip sampling over the upper-triangle pairs (w, v)
    // with w < v: jump ahead by a geometrically distributed gap instead of
    // flipping a coin per pair. The walk visits each pair at most once, so
    // a drawn pair can only repeat a backbone edge, which is skipped.
    let log_q = (1.0 - p).ln();
    let mut v: usize = 1;
    let mut w: i64 = -1;
    while v < n {
        let r: f64 = rng.gen();
        // `as i64` saturates for huge ratios (tiny p, r near 1), and the
        // saturating adds keep the accumulated position from overflowing.
        let skip = ((1.0 - r).ln() / log_q).floor() as i64;
        w = w.saturating_add(1).saturating_add(skip.max(0));
        while v < n && w >= v as i64 {
            w -= v as i64;
            v += 1;
        }
        if v < n && pos[w as usize].abs_diff(pos[v]) != 1 {
            edges.push((NodeId::from_usize(w as usize), NodeId::from_usize(v)));
        }
    }
    MultiGraph::from_edges(n, edges)
}

/// Uniform random graph with exactly `m` distinct edges (`G(n, m)` model).
///
/// # Errors
///
/// Returns an error if `m` exceeds `n(n-1)/2` or fewer than one node is
/// requested.
pub fn gnm_random(config: &GeneratorConfig, m: usize) -> GraphResult<MultiGraph> {
    config.require_at_least(1)?;
    let n = config.nodes;
    let max_edges = n * n.saturating_sub(1) / 2;
    if m > max_edges {
        return Err(GraphError::invalid_parameter(format!(
            "requested {m} edges but an {n}-node simple graph has at most {max_edges}"
        )));
    }
    let mut rng = config.rng();
    let mut graph = MultiGraph::with_capacity(n, m);
    let mut present = std::collections::HashSet::with_capacity(m);
    while present.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if present.insert(key) {
            graph.add_edge(NodeId::from_usize(key.0), NodeId::from_usize(key.1))?;
        }
    }
    Ok(graph)
}

/// Random `d`-regular graph sampled Steger–Wormald style: repeatedly pick two
/// random remaining stubs and accept the pair if it creates neither a
/// self-loop nor a parallel edge; restart the pairing if it gets stuck.
///
/// # Errors
///
/// Returns an error if `n·d` is odd, `d ≥ n`, or a simple pairing could not
/// be found within the retry budget (only likely for extreme parameters).
pub fn random_regular(config: &GeneratorConfig, degree: usize) -> GraphResult<MultiGraph> {
    config.require_at_least(2)?;
    let n = config.nodes;
    if degree >= n {
        return Err(GraphError::invalid_parameter(format!(
            "degree {degree} must be smaller than the node count {n}"
        )));
    }
    if !(n * degree).is_multiple_of(2) {
        return Err(GraphError::invalid_parameter(
            "n * degree must be even for a regular graph",
        ));
    }
    if degree == 0 {
        return Ok(MultiGraph::new(n));
    }

    let mut rng = config.rng();
    const MAX_ATTEMPTS: usize = 500;
    'attempt: for _ in 0..MAX_ATTEMPTS {
        let mut remaining: Vec<usize> = (0..n)
            .flat_map(|v| std::iter::repeat_n(v, degree))
            .collect();
        let mut seen = std::collections::HashSet::with_capacity(n * degree / 2);
        let mut edges = Vec::with_capacity(n * degree / 2);
        while !remaining.is_empty() {
            // Try a bounded number of random pairs before declaring the
            // pairing stuck and restarting from scratch.
            let mut placed = false;
            for _ in 0..20 * remaining.len() {
                let i = rng.gen_range(0..remaining.len());
                let mut j = rng.gen_range(0..remaining.len());
                if remaining.len() > 1 {
                    while j == i {
                        j = rng.gen_range(0..remaining.len());
                    }
                }
                let (u, v) = (remaining[i], remaining[j]);
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                if seen.contains(&key) {
                    continue;
                }
                seen.insert(key);
                edges.push(key);
                // Remove the two stubs (larger index first so the smaller
                // index stays valid).
                let (first, second) = if i > j { (i, j) } else { (j, i) };
                remaining.swap_remove(first);
                remaining.swap_remove(second);
                placed = true;
                break;
            }
            if !placed {
                continue 'attempt;
            }
        }
        let mut graph = MultiGraph::with_capacity(n, edges.len());
        for (u, v) in edges {
            graph.add_edge(NodeId::from_usize(u), NodeId::from_usize(v))?;
        }
        return Ok(graph);
    }
    Err(GraphError::invalid_parameter(format!(
        "failed to sample a simple {degree}-regular graph on {n} nodes within the retry budget"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    fn cfg(n: usize, seed: u64) -> GeneratorConfig {
        GeneratorConfig::new(n, seed)
    }

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let empty = erdos_renyi(&cfg(20, 1), 0.0).unwrap();
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(&cfg(20, 1), 1.0).unwrap();
        assert_eq!(full.edge_count(), 20 * 19 / 2);
        assert!(erdos_renyi(&cfg(20, 1), 1.5).is_err());
        assert!(erdos_renyi(&cfg(20, 1), -0.1).is_err());
        assert!(erdos_renyi(&cfg(20, 1), f64::NAN).is_err());
    }

    #[test]
    fn erdos_renyi_density_is_plausible() {
        let n = 200;
        let p = 0.1;
        let g = erdos_renyi(&cfg(n, 3), p).unwrap();
        let expected = p * (n * (n - 1)) as f64 / 2.0;
        let actual = g.edge_count() as f64;
        assert!(
            (actual - expected).abs() < 0.25 * expected,
            "edge count {actual} far from {expected}"
        );
        assert!(g.is_simple());
    }

    #[test]
    fn connected_variant_is_connected_even_when_sparse() {
        for seed in 0..5 {
            let g = connected_erdos_renyi(&cfg(100, seed), 0.001).unwrap();
            assert!(
                is_connected(&g),
                "seed {seed} produced a disconnected graph"
            );
            assert!(g.is_simple());
            assert!(g.edge_count() >= 99);
        }
    }

    #[test]
    fn connected_variant_matches_density_when_dense() {
        let n = 150;
        let g = connected_erdos_renyi(&cfg(n, 9), 0.2).unwrap();
        let expected = 0.2 * (n * (n - 1)) as f64 / 2.0;
        assert!((g.edge_count() as f64) < 1.3 * expected + n as f64);
        assert!((g.edge_count() as f64) > 0.7 * expected);
    }

    #[test]
    fn sparse_variant_is_connected_simple_and_near_target_density() {
        let n = 2000;
        let degree = 8.0;
        let g = sparse_connected_erdos_renyi(&cfg(n, 11), degree).unwrap();
        assert!(is_connected(&g));
        assert!(g.is_simple());
        // n − 1 backbone edges plus ≈ n·degree/2 sampled ones (minus the
        // small overlap with the backbone).
        let expected = (n - 1) as f64 + degree * n as f64 / 2.0;
        let actual = g.edge_count() as f64;
        assert!(
            (actual - expected).abs() < 0.2 * expected,
            "edge count {actual} far from {expected}"
        );
    }

    #[test]
    fn sparse_variant_is_deterministic_and_validates_parameters() {
        let a = sparse_connected_erdos_renyi(&cfg(300, 4), 6.0).unwrap();
        let b = sparse_connected_erdos_renyi(&cfg(300, 4), 6.0).unwrap();
        let ea: Vec<_> = a.edges().map(|e| (e.u, e.v)).collect();
        let eb: Vec<_> = b.edges().map(|e| (e.u, e.v)).collect();
        assert_eq!(ea, eb);

        // Degree 0 degenerates to the backbone path.
        let path = sparse_connected_erdos_renyi(&cfg(50, 1), 0.0).unwrap();
        assert_eq!(path.edge_count(), 49);
        assert!(is_connected(&path));
        assert_eq!(
            sparse_connected_erdos_renyi(&cfg(1, 1), 0.0)
                .unwrap()
                .edge_count(),
            0
        );

        assert!(sparse_connected_erdos_renyi(&cfg(10, 1), -1.0).is_err());
        assert!(sparse_connected_erdos_renyi(&cfg(10, 1), f64::NAN).is_err());
        assert!(sparse_connected_erdos_renyi(&cfg(10, 1), 9.0).is_err());
        assert!(sparse_connected_erdos_renyi(&cfg(0, 1), 1.0).is_err());
    }

    #[test]
    fn gnm_has_exact_edge_count() {
        let g = gnm_random(&cfg(50, 4), 300).unwrap();
        assert_eq!(g.edge_count(), 300);
        assert!(g.is_simple());
        assert!(gnm_random(&cfg(10, 4), 100).is_err());
        assert_eq!(gnm_random(&cfg(10, 4), 0).unwrap().edge_count(), 0);
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let g = random_regular(&cfg(60, 5), 4).unwrap();
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(g.is_simple());
    }

    #[test]
    fn random_regular_parameter_validation() {
        assert!(random_regular(&cfg(5, 1), 5).is_err());
        assert!(random_regular(&cfg(5, 1), 3).is_err()); // 5*3 odd
        assert_eq!(random_regular(&cfg(6, 1), 0).unwrap().edge_count(), 0);
    }

    #[test]
    fn regular_graph_has_expected_edge_count() {
        let g = random_regular(&cfg(40, 2), 6).unwrap();
        assert_eq!(g.edge_count(), 40 * 6 / 2);
    }
}
