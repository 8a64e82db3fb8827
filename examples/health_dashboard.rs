//! A live health dashboard riding the monitoring subsystem: an
//! [`xheal_monitor::Monitor`] subscribed to the healing delta stream keeps
//! every invariant metric incrementally (no per-query graph rebuild) while
//! a churn run streams [`HealthEvent`] alerts as the configured budgets
//! are crossed and recovered.
//!
//! Run with `cargo run -p xheal-examples --example health_dashboard`.

use std::cell::RefCell;
use std::rc::Rc;

use rand::{rngs::StdRng, SeedableRng};
use xheal_core::{Severity, Xheal};
use xheal_examples::{banner, describe, fmt};
use xheal_graph::generators;
use xheal_monitor::{HealthPolicy, Monitor, MonitorConfig, MonitorHook};
use xheal_workload::{run_observed, RandomChurn};

fn main() {
    banner("health dashboard: live invariant monitoring off the delta stream");
    let mut rng = StdRng::seed_from_u64(0xDA5B);
    let g0 = generators::random_regular(96, 6, &mut rng);
    describe("initial overlay", &g0);

    // Budgets for the Theorem 2 invariant family. The degree budget is
    // deliberately tight so the dashboard has something to show, and the
    // warn edges put a hysteresis band inside each budget: one Warning on
    // the way in, no Critical/Info flapping around the breach limit.
    let config = MonitorConfig {
        policy: HealthPolicy {
            max_degree_increase: Some(3.0),
            warn_degree_increase: Some(2.5),
            min_spectral_gap: Some(0.02),
            warn_spectral_gap: Some(0.03),
            min_expansion: Some(0.05),
            warn_expansion: Some(0.07),
            max_components: Some(1),
        },
        track_lambda3: true,
    };
    let monitor = Rc::new(RefCell::new(Monitor::new(&g0, config)));
    let mut net = Xheal::builder()
        .kappa(4)
        .seed(23)
        .sink(Box::new(Rc::clone(&monitor)))
        .build(&g0);

    // Heavy random churn, observed: the hook checkpoints the expensive
    // metrics every 12 events and records alerts into the summary.
    let mut adversary = RandomChurn::new(0.6, 2, 3, &g0);
    let mut hook = MonitorHook::new(Rc::clone(&monitor), 12);
    let summary = run_observed(&mut net, &mut adversary, 120, 0x0DD5, &mut hook);

    banner("alert stream");
    if summary.health.is_empty() {
        println!("(no budget crossed — every invariant held)");
    }
    for note in &summary.health {
        let tag = match note.severity {
            Severity::Critical => "ALERT",
            Severity::Warning => "warn ",
            Severity::Info => "ok   ",
        };
        println!("step {:>4}  {tag}  {}", note.step, note.message);
    }

    banner("final checkpoint (all metrics off the delta-fed mirror)");
    let mut m = monitor.borrow_mut();
    let report = m.checkpoint();
    println!(
        "generation {} — {} nodes, {} edges after {} insertions / {} deletions",
        report.generation, report.nodes, report.edges, summary.insertions, summary.deletions
    );
    println!(
        "degree: max {} (mean {}), degree-increase vs G' {}",
        report.max_degree,
        fmt(report.mean_degree),
        report.degree_increase.map_or("n/a".into(), fmt)
    );
    println!(
        "components {}   spectral gap {} ({} restart cycles)   lambda3 {}   expansion {}   stretch {}",
        report.components,
        fmt(report.spectral_gap.lambda),
        report.spectral_gap.restarts,
        report.spectral_gap.lambda3.map_or("n/a".into(), fmt),
        report.expansion.map_or("n/a".into(), fmt),
        report.stretch.map_or("n/a".into(), fmt),
    );
    println!("mirror: {} deltas ingested", report.generation);

    // The end-to-end consistency proof: the delta-fed mirror is the
    // engine's graph, labels included, and its CSR snapshot is the fresh
    // rebuild, field for field.
    assert_eq!(m.csr().graph(), net.graph());
    let inc = m.csr().snapshot();
    let fresh = net.graph().csr_view();
    assert_eq!(inc.nodes(), fresh.nodes());
    assert_eq!(inc.offsets(), fresh.offsets());
    assert_eq!(inc.neighbors_flat(), fresh.neighbors_flat());
    assert_eq!(report.components, 1, "healed network stays connected");
    println!("\nmirror == engine graph, snapshot == Graph::csr_view(): the stream is complete.");
}
