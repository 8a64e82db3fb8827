//! E6 — Theorems 3 and 4 (Law–Siu / Friedman): a random 2d-regular H-graph
//! is an expander w.h.p., and the INSERT/DELETE splices preserve that under
//! churn.
//!
//! Sweep d ∈ {2..5} and n ∈ {16..1024}: λ (normalized) of fresh H-graphs,
//! exact edge expansion at n = 16, and λ after 2n mixed splice operations.

use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_bench::{f, fo, header, row, srow, verdict};
use xheal_expander::HGraph;
use xheal_graph::{cuts, Graph, NodeId};
use xheal_spectral::normalized_algebraic_connectivity;

fn projection(h: &HGraph) -> Graph {
    let mut g = Graph::new();
    for &v in h.members() {
        g.add_node(v).unwrap();
    }
    for (u, v) in h.simple_edges() {
        g.add_black_edge(u, v).unwrap();
    }
    g
}

fn main() {
    header(
        "E6",
        "random H-graphs are expanders (Thm 4) and stay so under splices (Thm 3)",
    );
    srow(&["d", "n", "lambda fresh", "exact h", "lambda churned"]);
    let mut min_fresh: f64 = f64::INFINITY;
    let mut min_churned: f64 = f64::INFINITY;
    let mut by_d: Vec<(usize, f64)> = Vec::new();

    for d in [2usize, 3, 4, 5] {
        let mut lambda_at_256 = 0.0;
        for n in [16usize, 64, 256, 1024] {
            let mut rng = StdRng::seed_from_u64((d * 10_000 + n) as u64);
            let members: Vec<NodeId> = (0..n as u64).map(NodeId::new).collect();
            let mut h = HGraph::random(&members, d, &mut rng);
            let fresh = normalized_algebraic_connectivity(&projection(&h));
            let exact = if n == 16 {
                cuts::edge_expansion_exact(&projection(&h)).map(|c| c.value)
            } else {
                None
            };
            // Churn: 2n alternating splices.
            let mut next_id = n as u64;
            for round in 0..2 * n {
                if round % 2 == 0 {
                    h.insert(NodeId::new(next_id), &mut rng);
                    next_id += 1;
                } else {
                    let idx = rng.random_range(0..h.len());
                    let v = h.members()[idx];
                    h.delete(v);
                }
            }
            let churned = normalized_algebraic_connectivity(&projection(&h));
            min_fresh = min_fresh.min(fresh);
            min_churned = min_churned.min(churned);
            if n == 256 {
                lambda_at_256 = fresh;
            }
            row(&[
                d.to_string(),
                n.to_string(),
                f(fresh),
                fo(exact),
                f(churned),
            ]);
        }
        by_d.push((d, lambda_at_256));
    }
    let monotone = by_d.windows(2).all(|w| w[1].1 >= w[0].1 - 0.02);
    verdict(
        min_fresh > 0.1 && min_churned > 0.1 && monotone,
        &format!(
            "min lambda fresh {} / churned {} stay bounded away from 0; gap grows with d",
            f(min_fresh),
            f(min_churned)
        ),
    );
}

// Exact expansion is only used at n = 16 (enumeration limit); the paper's
// Omega(d) expansion shows up there as h >= 1 for every d >= 2.
