//! E1 — Theorem 2(1) / Lemma 3: degree increase is bounded by
//! `deg_{G_t}(x) ≤ κ·deg_{G'_t}(x) + 2κ` for every node.
//!
//! Workloads: G(n,p), preferential attachment, and a star, under random and
//! max-degree-targeted deletion, for κ ∈ {4, 6, 8}. The table reports the
//! worst observed degree-increase ratio (success metric 1) and the worst
//! additive-slack witness `(deg - κ·deg')/κ`, which Lemma 3 bounds by 2
//! (our label-set strengthening allows up to 3: an edge keeps every cloud
//! label that demands it, see `xheal_graph::EdgeLabels`).

use rand::{rngs::StdRng, SeedableRng};
use xheal_bench::{f, header, row, srow, verdict};
use xheal_core::{Xheal, XhealConfig};
use xheal_graph::{generators, Graph};
use xheal_metrics::degree_increase;
use xheal_workload::{run, DeleteOnly, RandomChurn, Targeting};

fn workload_graphs(seed: u64) -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        (
            "er(120,0.05)",
            generators::connected_erdos_renyi(120, 0.05, &mut rng),
        ),
        (
            "pa(120,3)",
            generators::preferential_attachment(120, 3, &mut rng),
        ),
        ("star(120)", generators::star(120)),
    ]
}

fn main() {
    header(
        "E1",
        "degree bound: deg_Gt(x) <= kappa*deg_G't(x) + 2*kappa (Thm 2.1, Lemma 3)",
    );
    srow(&[
        "graph/adversary",
        "kappa",
        "max ratio",
        "max slack/k",
        "nodes left",
    ]);
    let mut all_ok = true;

    for kappa in [4usize, 6, 8] {
        for (gname, g0) in workload_graphs(1000 + kappa as u64) {
            for adv_name in ["random", "max-degree", "churn"] {
                let mut healer = Xheal::new(&g0, XhealConfig::new(kappa).with_seed(7));
                let keep = g0.node_count() * 2 / 5;
                let summary = match adv_name {
                    "random" => {
                        let mut adv = DeleteOnly::new(Targeting::Random, keep);
                        run(&mut healer, &mut adv, g0.node_count(), 42)
                    }
                    "max-degree" => {
                        let mut adv = DeleteOnly::new(Targeting::HighestDegree, keep);
                        run(&mut healer, &mut adv, g0.node_count(), 42)
                    }
                    _ => {
                        let mut adv = RandomChurn::new(0.3, 4, keep, &g0);
                        run(&mut healer, &mut adv, g0.node_count(), 42)
                    }
                };
                let gp = summary.gprime.graph();
                let ratio = degree_increase(healer.graph(), gp);
                // Additive-slack witness for Lemma 3's "+2k" term.
                let mut slack: f64 = 0.0;
                for v in healer.graph().nodes() {
                    let d = healer.graph().degree(v).unwrap_or(0) as f64;
                    let dp = gp.degree(v).unwrap_or(0) as f64;
                    slack = slack.max((d - kappa as f64 * dp) / kappa as f64);
                }
                let ok = slack <= 3.0 + 1e-9;
                all_ok &= ok;
                row(&[
                    format!("{gname}/{adv_name}"),
                    kappa.to_string(),
                    f(ratio),
                    f(slack),
                    healer.graph().node_count().to_string(),
                ]);
            }
        }
    }
    verdict(
        all_ok,
        "every node satisfies deg <= kappa*deg' + 3*kappa (paper bound + label-set slack)",
    );
}
