//! Empirical validation of Theorems 3 and 4: random H-graphs are expanders
//! with high probability, and the INSERT/DELETE splices preserve that.

use rand::{rngs::StdRng, SeedableRng};
use xheal_expander::HGraph;
use xheal_graph::{cuts, Graph, NodeId};
use xheal_spectral::algebraic_connectivity;

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

#[test]
fn fresh_hgraphs_have_positive_spectral_gap() {
    let mut rng = StdRng::seed_from_u64(1);
    for n in [16u64, 64, 128] {
        let members: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let h = HGraph::random(&members, 3, &mut rng);
        let lambda = algebraic_connectivity(&projection(&h));
        assert!(lambda > 0.5, "n={n}: lambda2 = {lambda}");
    }
}

#[test]
fn small_hgraph_exact_edge_expansion_is_strong() {
    let mut rng = StdRng::seed_from_u64(2);
    let members: Vec<NodeId> = (0..16).map(NodeId::new).collect();
    // d = 3 (kappa = 6): Theorem 4 promises expansion Omega(d) w.h.p.
    let mut ok = 0;
    const TRIALS: usize = 10;
    for _ in 0..TRIALS {
        let h = HGraph::random(&members, 3, &mut rng);
        let exact = cuts::edge_expansion_exact(&projection(&h)).unwrap();
        if exact.value >= 1.0 {
            ok += 1;
        }
    }
    assert!(ok >= TRIALS - 1, "only {ok}/{TRIALS} trials had h >= 1");
}

#[test]
fn churned_hgraph_remains_an_expander() {
    let mut rng = StdRng::seed_from_u64(3);
    let members: Vec<NodeId> = (0..64).map(NodeId::new).collect();
    let mut h = HGraph::random(&members, 3, &mut rng);
    let mut next = 64u64;
    // Heavy churn: interleave 200 inserts/deletes.
    for round in 0..200 {
        if round % 2 == 0 {
            h.insert(NodeId::new(next), &mut rng);
            next += 1;
        } else {
            let v = h.members()[round % h.len()];
            h.delete(v);
        }
    }
    h.validate().unwrap();
    let lambda = algebraic_connectivity(&projection(&h));
    assert!(lambda > 0.4, "post-churn lambda2 = {lambda}");
}

#[test]
fn expansion_grows_with_d() {
    // Theorem 4: edge expansion Omega(d). Larger d should give a larger
    // spectral gap on average.
    let mut rng = StdRng::seed_from_u64(4);
    let members: Vec<NodeId> = (0..96).map(NodeId::new).collect();
    let avg = |d: usize, rng: &mut StdRng| {
        let mut total = 0.0;
        for _ in 0..3 {
            let h = HGraph::random(&members, d, rng);
            total += algebraic_connectivity(&projection(&h));
        }
        total / 3.0
    };
    let l2 = avg(2, &mut rng);
    let l5 = avg(5, &mut rng);
    assert!(l5 > l2, "lambda2 should grow with d: d=2 {l2} vs d=5 {l5}");
}
