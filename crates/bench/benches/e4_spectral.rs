//! E4 — Theorem 2(4) + Corollary 1: the spectral gap survives healing.
//!
//! Start from a bounded-degree expander (6-regular random graph), delete
//! half the nodes, and compare λ (normalized Laplacian — the convention of
//! the paper's Cheeger inequality) of the healed graph with Theorem 2(4)'s
//! lower-bound formula
//! `λ(Gt) ≥ min(λ(G't)²·dmin / (8·κ²·dmax²), 1 / (2·(κ·dmax)²))`,
//! and show the baselines' spectral collapse (Corollary 1 fails for them).

use rand::{rngs::StdRng, SeedableRng};
use xheal_baselines::{BinaryTreeHeal, CycleHeal};
use xheal_bench::{f, header, row, srow, verdict};
use xheal_core::{HealingEngine, Xheal, XhealConfig};
use xheal_graph::{generators, Graph};
use xheal_spectral::normalized_algebraic_connectivity;
use xheal_workload::{run, DeleteOnly, Targeting};

fn degree_range(g: &Graph) -> (f64, f64) {
    let degs: Vec<usize> = g.nodes().filter_map(|v| g.degree(v)).collect();
    (
        degs.iter().copied().min().unwrap_or(0) as f64,
        degs.iter().copied().max().unwrap_or(0) as f64,
    )
}

fn main() {
    header(
        "E4",
        "spectral gap preserved: lambda(Gt) vs Theorem 2(4) bound; Corollary 1",
    );
    srow(&["n/healer", "l(G't)", "l(Gt)", "thm bound", "ok"]);
    let kappa = 6usize;
    let mut xheal_ok = true;
    let mut xheal_min_lambda = f64::INFINITY;
    let mut tree_min_lambda = f64::INFINITY;

    for n in [64usize, 128, 256, 512] {
        let mut rng = StdRng::seed_from_u64(n as u64 ^ 0xE4);
        let g0 = generators::random_regular(n, 6, &mut rng);

        let healers: Vec<Box<dyn HealingEngine>> = vec![
            Box::new(Xheal::new(&g0, XhealConfig::new(kappa).with_seed(2))),
            Box::new(CycleHeal::new(&g0)),
            Box::new(BinaryTreeHeal::new(&g0)),
        ];
        for mut healer in healers {
            let mut adv = DeleteOnly::new(Targeting::Random, n / 2);
            let summary = run(healer.as_mut(), &mut adv, n, 3);
            let l_gp = normalized_algebraic_connectivity(summary.gprime.graph());
            let l_gt = normalized_algebraic_connectivity(healer.graph());
            // Theorem 2(4) formula with the proof's constants, using G't's
            // degree range (dmax(Gt) <= kappa*dmax(G't) per Lemma 3).
            let (dmin, dmax) = degree_range(summary.gprime.graph());
            let term1 = l_gp * l_gp * dmin / (8.0 * (kappa as f64).powi(2) * dmax * dmax);
            let term2 = 1.0 / (2.0 * (kappa as f64 * dmax).powi(2));
            let bound = term1.min(term2);
            let ok = l_gt >= bound;
            if healer.name() == "xheal" {
                xheal_ok &= ok;
                xheal_min_lambda = xheal_min_lambda.min(l_gt);
            }
            if healer.name() == "binary-tree-heal" {
                tree_min_lambda = tree_min_lambda.min(l_gt);
            }
            row(&[
                format!("{n}/{}", healer.name()),
                f(l_gp),
                f(l_gt),
                f(bound),
                if ok { "yes".into() } else { "NO".into() },
            ]);
        }
    }
    verdict(
        xheal_ok && xheal_min_lambda > tree_min_lambda,
        &format!(
            "xheal meets the Thm 2(4) bound at every n; min lambda {} stays above \
             binary-tree-heal's {} (Corollary 1: expander stays an expander)",
            f(xheal_min_lambda),
            f(tree_min_lambda)
        ),
    );
}
