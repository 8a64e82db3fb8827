//! Ten engines, one schedule set, one scoreboard.
//!
//! Drives every engine in `xheal_workload::standard_registry` — Xheal in
//! all four flavors, DEX, and the five baselines — through the three
//! standard seeded adversary schedules, scoring each run live with the
//! monitor-backed `xheal_monitor::MonitorHook`, and prints the trade-off
//! matrix.
//! This is the example-sized version of the `arena` bench binary that
//! produces `BENCH_arena.json`.
//!
//! ```sh
//! cargo run --example engine_arena
//! ```

use xheal_graph::generators;
use xheal_monitor::MonitorHook;
use xheal_workload::{run_arena, standard_registry, ArenaSchedule};

fn main() {
    let n0 = 96;
    let steps = 60;
    let g0 = generators::ring_with_chords(n0);
    let registry = standard_registry(4);
    let schedules = ArenaSchedule::standard(steps);

    println!(
        "engine arena: {} engines x {} schedules",
        registry.len(),
        schedules.len()
    );
    println!("n0 = {n0}, {steps} adversary events per schedule, kappa = 4\n");

    let matrix = run_arena(&registry, &schedules, &g0, 0xA5EED, |_, _, g| {
        MonitorHook::scorer(g, 16)
    });
    assert!(matrix.is_complete());

    for sched in matrix.schedules() {
        println!("=== {sched} ===");
        println!(
            "{:<18} {:>8} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>5} {:>5}",
            "engine",
            "messages",
            "edge-ops",
            "maxdeg",
            "deg-inc",
            "stretch",
            "gap",
            "lambda3",
            "comps",
            "crit"
        );
        for engine in matrix.engines() {
            let c = matrix.cell(engine, sched).expect("complete");
            let q = &c.quality;
            let opt = |v: Option<f64>| match v {
                Some(x) if x.is_finite() => format!("{x:.3}"),
                _ => "n/a".to_string(),
            };
            println!(
                "{:<18} {:>8} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>5} {:>5}",
                c.engine,
                c.messages,
                c.edges_added + c.edges_removed,
                q.max_degree,
                opt(q.degree_increase),
                opt(q.stretch),
                opt(q.spectral_gap),
                opt(q.lambda3),
                q.components,
                q.critical_notes,
            );
        }
        println!();
    }

    println!(
        "full-size matrix: cargo run --release -p xheal-bench --bin arena  \
         (writes BENCH_arena.json)"
    );
}
