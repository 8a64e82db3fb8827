//! Quickstart: wrap a network in Xheal, let an adversary attack it, and
//! watch the success metrics hold.
//!
//! Run with `cargo run -p xheal-examples --bin quickstart`.

use rand::{rngs::StdRng, SeedableRng};
use xheal_core::{Xheal, XhealConfig};
use xheal_examples::{banner, describe, fmt};
use xheal_graph::generators;
use xheal_metrics::{degree_increase, expansion_report, stretch};
use xheal_workload::{run, RandomChurn};

fn main() {
    banner("quickstart: a self-healing peer-to-peer overlay");

    // 1. Start from a sparse random network of 100 peers.
    let mut rng = StdRng::seed_from_u64(2026);
    let g0 = generators::connected_erdos_renyi(100, 0.05, &mut rng);
    describe("initial network", &g0);

    // 2. Wrap it in Xheal with kappa = 6 expander clouds.
    let mut healer = Xheal::new(&g0, XhealConfig::new(6).with_seed(1));

    // 3. Adversarial churn: 150 events, 30% insertions, down to 40 peers min.
    let mut adversary = RandomChurn::new(0.3, 4, 40, &g0);
    let summary = run(&mut healer, &mut adversary, 150, 7);
    println!(
        "applied {} insertions and {} deletions",
        summary.insertions, summary.deletions
    );
    describe("healed network G_t", healer.graph());
    describe(
        "reference network G'_t (insertions only)",
        summary.gprime.graph(),
    );

    // 4. The paper's success metrics.
    banner("success metrics (Figure 1 of the paper)");
    println!(
        "degree increase (metric 1):  {}  [Thm 2.1 bound: kappa*d' + 2k]",
        fmt(degree_increase(healer.graph(), summary.gprime.graph()))
    );
    let s = stretch(healer.graph(), summary.gprime.graph(), 150, 8).unwrap_or(f64::INFINITY);
    println!(
        "network stretch (metric 3):  {}  [Thm 2.2 bound: O(log n)]",
        fmt(s)
    );
    let rep = expansion_report(healer.graph());
    println!(
        "expansion (metric 2): lambda = {}, lambda_norm = {}, sweep h <= {}",
        fmt(rep.lambda),
        fmt(rep.lambda_norm),
        fmt(rep.sweep_h.unwrap_or(f64::NAN)),
    );

    banner("healing internals");
    let st = healer.stats();
    println!(
        "secondary clouds built: {}, combines: {}, free-node shares: {}",
        st.secondaries_built, st.combines, st.shares
    );
    println!(
        "colored edges added/removed: {}/{}, clouds live: {}",
        st.edges_added,
        st.edges_removed,
        healer.cloud_count()
    );
    println!(
        "amortized Lemma 5 lower bound A(p): {}",
        fmt(st.amortized_lower_bound())
    );
}
