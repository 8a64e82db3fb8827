//! Integration tests asserting the paper's theorem-level guarantees on
//! cross-crate runs (Xheal + workload + metrics + spectral).

use xheal_core::invariants::check_invariants;
use xheal_graph::components;
use xheal_integration::churned_xheal;
use xheal_metrics::{degree_increase, expansion_report, stretch};

#[test]
fn theorem_2_connectivity_under_heavy_churn() {
    for seed in [1u64, 2, 3] {
        let (healer, _) = churned_xheal(40, 120, 0.3, 6, seed);
        assert!(
            components::is_connected(healer.graph()),
            "seed {seed}: healed graph disconnected"
        );
        check_invariants(&healer).unwrap();
    }
}

#[test]
fn theorem_2_1_degree_bound_with_slack() {
    let kappa = 4usize;
    for seed in [5u64, 6] {
        let (healer, gprime) = churned_xheal(30, 80, 0.35, kappa, seed);
        for v in healer.graph().nodes() {
            let d = healer.graph().degree(v).unwrap() as f64;
            let dp = gprime.graph().degree(v).unwrap_or(0) as f64;
            assert!(
                d <= kappa as f64 * dp + 3.0 * kappa as f64,
                "seed {seed}, node {v}: {d} vs d'={dp}"
            );
        }
        // The aggregate ratio metric is finite and sane.
        let r = degree_increase(healer.graph(), gprime.graph());
        assert!(r >= 1.0 && r <= 4.0 * kappa as f64);
    }
}

#[test]
fn theorem_2_2_stretch_logarithmic() {
    let (healer, gprime) = churned_xheal(60, 100, 0.2, 6, 9);
    let n = healer.graph().node_count() as f64;
    let s = stretch(healer.graph(), gprime.graph(), 200, 10).expect("comparable pairs exist");
    assert!(s.is_finite(), "stretch must be finite (connectivity)");
    assert!(
        s <= 3.0 * n.log2(),
        "stretch {s} above 3*log2(n) = {}",
        3.0 * n.log2()
    );
}

#[test]
fn theorem_2_3_expansion_not_collapsed() {
    // After heavy deletion the healed graph must not develop a
    // pathological bottleneck: lambda_norm stays well above the O(1/n^2)
    // range tree-patches produce.
    let (healer, _) = churned_xheal(50, 80, 0.15, 6, 21);
    let rep = expansion_report(healer.graph());
    let n = healer.graph().node_count() as f64;
    assert!(
        rep.lambda_norm > 1.0 / n,
        "lambda_norm {} collapsed below 1/n",
        rep.lambda_norm
    );
}

#[test]
fn gprime_is_append_only_superset() {
    let (healer, gprime) = churned_xheal(25, 60, 0.4, 4, 33);
    let gprime = gprime.graph();
    // Every live node exists in G'.
    for v in healer.graph().nodes() {
        assert!(gprime.contains_node(v));
    }
    // Every black edge of G_t is an edge of G' (healing edges are colored;
    // black edges come only from the original graph + insertions).
    for (u, v, l) in healer.graph().edges() {
        if l.is_black() {
            assert!(gprime.has_edge(u, v), "black edge ({u},{v}) missing in G'");
        }
    }
}
