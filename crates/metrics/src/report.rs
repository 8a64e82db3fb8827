//! The success metrics of the paper's model (Figure 1, "Success metrics").

use std::collections::VecDeque;

use xheal_graph::{cuts, traversal, Graph};
use xheal_spectral::{algebraic_connectivity, normalized_algebraic_connectivity, sweep_cut};

/// The distance [`traversal::bfs_dense`] leaves at an unreached node.
const UNSEEN: u32 = u32::MAX;

/// Success metric 1: `max_v degree(v, G_t) / degree(v, G'_t)` over live
/// nodes with nonzero `G'` degree. Returns 0 for an empty graph.
pub fn degree_increase(g: &Graph, gprime: &Graph) -> f64 {
    let mut worst = 0.0f64;
    for v in g.nodes() {
        let d = g.degree(v).unwrap_or(0) as f64;
        let dp = gprime.degree(v).unwrap_or(0) as f64;
        if dp > 0.0 {
            worst = worst.max(d / dp);
        }
    }
    worst
}

/// Success metric 3: `max_{x,y} dist(x, y, G_t) / dist(x, y, G'_t)` over
/// live pairs connected in `G'_t`.
///
/// Exact all-pairs when the graph has at most `exact_limit` nodes; above
/// that, the maximum over `sample` deterministic source nodes (every node's
/// BFS costs O(m), so sampled sources keep this linear-ish).
///
/// Returns `None` if no comparable pair exists, `Some(f64::INFINITY)` if a
/// pair connected in `G'` is disconnected in `G` (a healing failure).
pub fn stretch(g: &Graph, gprime: &Graph, exact_limit: usize, sample: usize) -> Option<f64> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    let (csr, csr_p) = (g.csr_view(), gprime.csr_view());
    // Each live node's dense index in `G'`, `None` where `G'` lacks it.
    let in_p: Vec<Option<usize>> = csr.nodes().iter().map(|&v| csr_p.index_of(v)).collect();
    // Deterministic spread when sampled: every ceil(n/sample)-th node.
    let step = if n <= exact_limit {
        1
    } else {
        n.div_ceil(sample.max(1)).max(1)
    };
    let (mut dg, mut dp, mut queue) = (Vec::new(), Vec::new(), VecDeque::new());
    let mut worst: Option<f64> = None;
    for s in (0..n).step_by(step) {
        let Some(sp) = in_p[s] else { continue };
        traversal::bfs_dense(&csr, s, &mut dg, &mut queue);
        traversal::bfs_dense(&csr_p, sp, &mut dp, &mut queue);
        // Dense indices ascend with node ids, so `s + 1..` is every `t > s`.
        for t in s + 1..n {
            let Some(b) = in_p[t].map(|tp| dp[tp]).filter(|&b| b != UNSEEN) else {
                continue;
            };
            if dg[t] == UNSEEN {
                return Some(f64::INFINITY);
            }
            let r = dg[t] as f64 / b as f64;
            worst = Some(worst.map_or(r, |w: f64| w.max(r)));
        }
    }
    worst
}

/// Expansion measurements for a graph: exact where feasible, spectral
/// bounds otherwise.
#[derive(Clone, Debug)]
pub struct ExpansionReport {
    /// Exact edge expansion `h(G)` (subset enumeration, small graphs only).
    pub exact_h: Option<f64>,
    /// Exact conductance `φ(G)` (small graphs only).
    pub exact_phi: Option<f64>,
    /// Algebraic connectivity λ₂ of the unnormalized Laplacian.
    pub lambda: f64,
    /// λ₂ of the *normalized* Laplacian — the convention under which the
    /// paper's Theorem 1 (Cheeger) holds.
    pub lambda_norm: f64,
    /// Sweep-cut conductance (upper bound on φ).
    pub sweep_phi: Option<f64>,
    /// Sweep-cut expansion quotient (upper bound on h).
    pub sweep_h: Option<f64>,
    /// Lower bound on h from Cheeger + the paper's inequality (1):
    /// `h ≥ φ·dmin ≥ (λ_norm/2)·dmin`.
    pub h_lower: f64,
}

/// Success metric 2 machinery: measures expansion every way available.
pub fn expansion_report(g: &Graph) -> ExpansionReport {
    let lambda = algebraic_connectivity(g);
    let lambda_norm = normalized_algebraic_connectivity(g);
    let dmin = g.nodes().filter_map(|v| g.degree(v)).min().unwrap_or(0) as f64;
    let (exact_h, exact_phi) = if g.node_count() <= cuts::MAX_EXACT_NODES {
        (
            cuts::edge_expansion_exact(g).map(|c| c.value),
            cuts::conductance_exact(g).map(|c| c.value),
        )
    } else {
        (None, None)
    };
    let sweep = sweep_cut(g);
    ExpansionReport {
        exact_h,
        exact_phi,
        lambda,
        lambda_norm,
        sweep_phi: sweep.as_ref().map(|s| s.conductance),
        sweep_h: sweep.as_ref().map(|s| s.expansion),
        h_lower: lambda_norm / 2.0 * dmin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xheal_graph::{generators, NodeId};

    #[test]
    fn degree_increase_identity_is_one() {
        let g = generators::cycle(8);
        assert_eq!(degree_increase(&g, &g), 1.0);
    }

    #[test]
    fn degree_increase_detects_growth() {
        let gp = generators::path(4); // degrees 1,2,2,1
        let mut g = gp.clone();
        g.add_black_edge(NodeId::new(0), NodeId::new(2)).unwrap();
        g.add_black_edge(NodeId::new(0), NodeId::new(3)).unwrap();
        // Node 0: degree 3 vs 1 in G'.
        assert_eq!(degree_increase(&g, &gp), 3.0);
    }

    /// The per-source `BTreeMap` stretch that [`stretch`] replaced, kept as
    /// its reference.
    fn stretch_oracle(g: &Graph, gprime: &Graph, exact_limit: usize, sample: usize) -> Option<f64> {
        let live: Vec<NodeId> = g.node_vec();
        if live.len() < 2 {
            return None;
        }
        let sources: Vec<NodeId> = if live.len() <= exact_limit {
            live.clone()
        } else {
            let step = live.len().div_ceil(sample.max(1));
            live.iter().copied().step_by(step.max(1)).collect()
        };
        let mut worst: Option<f64> = None;
        for &s in &sources {
            let dg = traversal::bfs_distances(g, s);
            let dp = traversal::bfs_distances(gprime, s);
            for &t in &live {
                if t <= s {
                    continue;
                }
                match (dg.get(&t), dp.get(&t)) {
                    (Some(&a), Some(&b)) if b > 0 => {
                        let r = a as f64 / b as f64;
                        worst = Some(worst.map_or(r, |w: f64| w.max(r)));
                    }
                    (None, Some(&b)) if b > 0 => return Some(f64::INFINITY),
                    _ => {}
                }
            }
        }
        worst
    }

    #[test]
    fn stretch_matches_its_oracle_bit_for_bit_after_churn() {
        // G' keeps the 5 dead nodes; G patches each hole with a path over
        // the victim's neighbours, and gains a node G' never saw.
        let gp = generators::ring_with_chords(160);
        let mut g = gp.clone();
        for v in [3u64, 40, 41, 97, 150].map(NodeId::new) {
            let nbrs: Vec<NodeId> = g.neighbors(v).collect();
            g.remove_node(v).unwrap();
            for w in nbrs.windows(2) {
                let _ = g.add_black_edge(w[0], w[1]);
            }
        }
        g.add_node(NodeId::new(500)).unwrap();
        g.add_black_edge(NodeId::new(500), NodeId::new(7)).unwrap();
        let mut cut = g.clone();
        for t in cut.neighbors(NodeId::new(60)).collect::<Vec<_>>() {
            cut.remove_edge(NodeId::new(60), t).unwrap();
        }
        for (name, h) in [("patched", &g), ("disconnected", &cut)] {
            for (limit, sample) in [(1_000, 0), (10, 7), (10, 0)] {
                let (got, want) = (
                    stretch(h, &gp, limit, sample),
                    stretch_oracle(h, &gp, limit, sample),
                );
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{name}, limit {limit}, sample {sample}: {got:?} vs {want:?}"
                );
            }
        }
        assert!(stretch(&g, &gp, 1_000, 0).unwrap().is_finite());
        assert_eq!(stretch(&cut, &gp, 1_000, 0), Some(f64::INFINITY));
    }

    #[test]
    fn stretch_identity_is_one() {
        let g = generators::grid(4, 4);
        assert_eq!(stretch(&g, &g, 100, 4), Some(1.0));
    }

    #[test]
    fn stretch_detects_detours() {
        // G' is a cycle of 6; G lost edge (0,5) but kept the path.
        let gp = generators::cycle(6);
        let mut g = gp.clone();
        g.remove_edge(NodeId::new(0), NodeId::new(5)).unwrap();
        // dist(0,5): G' = 1, G = 5.
        assert_eq!(stretch(&g, &gp, 100, 4), Some(5.0));
    }

    #[test]
    fn stretch_disconnection_is_infinite() {
        let gp = generators::path(4);
        let mut g = gp.clone();
        g.remove_edge(NodeId::new(1), NodeId::new(2)).unwrap();
        assert_eq!(stretch(&g, &gp, 100, 4), Some(f64::INFINITY));
    }

    #[test]
    fn stretch_through_dead_nodes_counts_gprime_distance() {
        // G' = star (center 0); G = center deleted, leaves re-wired in a
        // path. dist in G' between leaves = 2 (through dead center).
        let gp = generators::star(5);
        let mut g = gp.clone();
        g.remove_node(NodeId::new(0)).unwrap();
        for i in 1..4 {
            g.add_black_edge(NodeId::new(i), NodeId::new(i + 1))
                .unwrap();
        }
        // Worst pair (1,4): G' distance 2, G distance 3 => 1.5.
        assert_eq!(stretch(&g, &gp, 100, 4), Some(1.5));
    }

    #[test]
    fn expansion_report_on_empty_graph_is_all_degenerate() {
        let g = xheal_graph::Graph::new();
        let r = expansion_report(&g);
        assert_eq!(r.exact_h, None);
        assert_eq!(r.exact_phi, None);
        assert_eq!((r.lambda, r.lambda_norm, r.h_lower), (0.0, 0.0, 0.0));
        assert_eq!(r.sweep_phi, None);
        assert_eq!(r.sweep_h, None);
    }

    #[test]
    fn expansion_report_on_single_node_is_degenerate() {
        let mut g = xheal_graph::Graph::new();
        g.add_node(NodeId::new(7)).unwrap();
        let r = expansion_report(&g);
        assert_eq!(r.exact_h, None, "no 2-subset to cut");
        assert_eq!((r.lambda, r.lambda_norm), (0.0, 0.0));
        assert_eq!(r.sweep_h, None);
        assert_eq!(r.h_lower, 0.0);
    }

    #[test]
    fn expansion_report_on_disconnected_graph_is_zero() {
        // A graph with an isolated node: h = phi = lambda = 0.
        let mut g = generators::complete(5);
        g.add_node(NodeId::new(50)).unwrap();
        let r = expansion_report(&g);
        assert_eq!(r.exact_h, Some(0.0));
        assert!(r.lambda < 1e-10);
        assert!(r.lambda_norm < 1e-10);
        assert!(r.h_lower.abs() < 1e-10, "dmin = 0 kills the lower bound");

        // Two separate components (no isolated node): still 0 expansion.
        let mut two = generators::complete(4);
        two.add_node(NodeId::new(60)).unwrap();
        two.add_node(NodeId::new(61)).unwrap();
        two.add_black_edge(NodeId::new(60), NodeId::new(61))
            .unwrap();
        let r2 = expansion_report(&two);
        assert_eq!(r2.exact_h, Some(0.0));
        assert!(r2.lambda < 1e-10);
    }

    #[test]
    fn expansion_report_on_complete_graph() {
        let g = generators::complete(8);
        let r = expansion_report(&g);
        assert_eq!(r.exact_h, Some(4.0));
        assert!((r.lambda - 8.0).abs() < 1e-8);
        assert!(r.sweep_h.unwrap() >= r.exact_h.unwrap() - 1e-9);
        assert!(r.h_lower <= r.exact_h.unwrap() + 1e-9);
    }
}
