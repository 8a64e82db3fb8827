//! E2 — Theorem 2(2) / Lemma 4: stretch stays O(log n).
//!
//! Sparse connected G(n, 4/n) networks, half the nodes deleted at random;
//! the table reports max stretch (success metric 3) for Xheal and the
//! baselines, and the normalized column `stretch / log2 n` which Theorem
//! 2(2) says is O(1) for Xheal.

use rand::{rngs::StdRng, SeedableRng};
use xheal_baselines::{BinaryTreeHeal, CycleHeal, NoHeal};
use xheal_bench::{f, header, row, srow, verdict};
use xheal_core::{HealingEngine, Xheal, XhealConfig};
use xheal_graph::generators;
use xheal_metrics::stretch;
use xheal_workload::{run, DeleteOnly, Targeting};

fn main() {
    header("E2", "stretch <= O(log n) vs G' (Thm 2.2, Lemma 4)");
    srow(&["n/healer", "max stretch", "/log2(n)"]);
    let mut xheal_normalized_max: f64 = 0.0;
    let mut finite = true;

    for n in [50usize, 100, 200, 400, 800] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g0 = generators::connected_erdos_renyi(n, 4.0 / n as f64, &mut rng);
        let log2n = (n as f64).log2();

        let healers: Vec<Box<dyn HealingEngine>> = vec![
            Box::new(Xheal::new(&g0, XhealConfig::new(6).with_seed(1))),
            Box::new(CycleHeal::new(&g0)),
            Box::new(BinaryTreeHeal::new(&g0)),
            Box::new(NoHeal::new(&g0)),
        ];
        for mut healer in healers {
            let mut adv = DeleteOnly::new(Targeting::Random, n / 2);
            let summary = run(healer.as_mut(), &mut adv, n, 9);
            let s =
                stretch(healer.graph(), summary.gprime.graph(), 120, 10).unwrap_or(f64::INFINITY);
            if healer.name() == "xheal" {
                if s.is_infinite() {
                    finite = false;
                } else {
                    xheal_normalized_max = xheal_normalized_max.max(s / log2n);
                }
            }
            row(&[format!("{n}/{}", healer.name()), f(s), f(s / log2n)]);
        }
    }
    verdict(
        finite && xheal_normalized_max <= 3.0,
        &format!(
            "xheal stretch finite everywhere, max stretch/log2(n) = {} (O(1) constant)",
            f(xheal_normalized_max)
        ),
    );
}
