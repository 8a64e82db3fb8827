//! The self-healing-algorithm arena: every engine in the workspace driven
//! through identical seeded adversary schedules, scored live by the
//! monitoring subsystem, one trade-off matrix out.
//!
//! For each of the ten roster engines of `xheal_bench::arena` (`xheal`,
//! `xheal-par`, the two distributed substrates, DEX, and the five
//! baselines) and each of the three standard schedules (uniform churn,
//! clustered `DeleteBatch` bursts, insert-heavy growth), a fresh engine
//! runs the schedule scored by `xheal_monitor::MonitorHook`: a monitor
//! subscribed to the engine's delta stream, fed each insertion of the
//! tape, checkpointed periodically during the run and once at the end.
//! Every cell reports healing *cost* (rounds, messages, edge operations,
//! wall time) against invariant *quality* (degree increase against the
//! tape's `G'`, exact all-pairs stretch, sweep-cut expansion, spectral gap
//! λ₂ and λ₃, components, alert counts).
//!
//! DEX's hard constant-degree bound (`max_load × degree`) is asserted
//! **in-process after every applied event**, not just on the final graph —
//! a transient breach anywhere in the schedule aborts the run.
//!
//! Output is `BENCH_arena.json` (schema `xheal-bench-arena/v2`, override
//! the path with `--out`). `--smoke` shrinks sizes for CI and writes a file
//! only when given `--out`, so it never replaces the full record. Run the
//! full measurement with:
//!
//! ```text
//! cargo run --release -p xheal-bench --bin arena
//! ```

use xheal_bench::arena::{dex_degree_cap, run_arena, ArenaMatrix, ArenaSchedule, ENGINES, KAPPA};
use xheal_graph::generators;

const ARENA_SEED: u64 = 0xA12E4A;

fn fmt_opt(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => format!("{v:.6}"),
        _ => "null".to_string(),
    }
}

fn json(matrix: &ArenaMatrix, smoke: bool, steps: usize, dex_bound: usize) -> String {
    let engines = matrix
        .engines()
        .iter()
        .map(|e| format!("\"{e}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let schedules = matrix
        .schedules()
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let mut cells = String::new();
    for (i, c) in matrix.cells.iter().enumerate() {
        let q = &c.quality;
        cells.push_str(&format!(
            "    {{\"engine\": \"{}\", \"schedule\": \"{}\", \
             \"steps_applied\": {}, \"insertions\": {}, \"deletions\": {}, \
             \"edges_added\": {}, \"edges_removed\": {}, \
             \"rounds\": {}, \"messages\": {}, \
             \"insert_rounds\": {}, \"insert_messages\": {}, \
             \"nodes\": {}, \"edges\": {}, \"wall_ms\": {:.3}, \
             \"max_degree\": {}, \"degree_increase\": {}, \"stretch\": {}, \
             \"expansion\": {}, \"spectral_gap\": {}, \"lambda3\": {}, \
             \"components\": {}, \"warn_notes\": {}, \"critical_notes\": {}}}{}\n",
            c.engine,
            c.schedule,
            c.steps_applied,
            c.insertions,
            c.deletions,
            c.edges_added,
            c.edges_removed,
            c.rounds,
            c.messages,
            c.insert_rounds,
            c.insert_messages,
            c.nodes,
            c.edges,
            c.wall_nanos as f64 / 1e6,
            q.max_degree,
            fmt_opt(q.degree_increase),
            fmt_opt(q.stretch),
            fmt_opt(q.expansion),
            fmt_opt(Some(q.spectral_gap)),
            fmt_opt(q.lambda3),
            q.components,
            q.warn_notes,
            q.critical_notes,
            if i + 1 == matrix.cells.len() { "" } else { "," },
        ));
    }
    format!(
        "{{\n  \"schema\": \"xheal-bench-arena/v2\",\n  \"smoke\": {smoke},\n  \
         \"kappa\": {KAPPA},\n  \"n0\": {},\n  \"steps\": {steps},\n  \
         \"seed\": {},\n  \"dex_degree_bound\": {dex_bound},\n  \
         \"engines\": [{engines}],\n  \"schedules\": [{schedules}],\n  \
         \"cells\": [\n{cells}  ]\n}}\n",
        matrix.n0, matrix.seed,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| (!smoke).then(|| "BENCH_arena.json".to_string()));

    let (n0, steps, checkpoint_every) = if smoke {
        (60usize, 40usize, 8usize)
    } else {
        (512, 480, 32)
    };
    let dex_bound = dex_degree_cap();

    println!("arena: all engines x all schedules, monitor-scored");
    println!(
        "mode: {}, n0 = {n0}, steps = {steps}, kappa = {KAPPA}, \
         checkpoint every {checkpoint_every} events",
        if smoke { "smoke" } else { "full" }
    );

    let g0 = generators::ring_with_chords(n0);
    let schedules = ArenaSchedule::standard(steps);
    let matrix = run_arena(&schedules, &g0, ARENA_SEED, checkpoint_every);

    assert!(matrix.is_complete(), "arena matrix has holes");
    assert_eq!(
        matrix.cells.len(),
        ENGINES.len() * schedules.len(),
        "expected one cell per engine per schedule"
    );

    for sched in matrix.schedules() {
        println!("\n=== {sched} ===");
        println!(
            "{:<18} {:>7} {:>9} {:>9} {:>6} {:>8} {:>9} {:>9} {:>5} {:>5}",
            "engine",
            "rounds",
            "messages",
            "edge-ops",
            "maxdeg",
            "deg-inc",
            "stretch",
            "gap",
            "comps",
            "crit"
        );
        for engine in matrix.engines() {
            let c = matrix.cell(engine, sched).expect("complete");
            let q = &c.quality;
            println!(
                "{:<18} {:>7} {:>9} {:>9} {:>6} {:>8} {:>9} {:>9} {:>5} {:>5}",
                c.engine,
                c.rounds,
                c.messages,
                c.edges_added + c.edges_removed,
                q.max_degree,
                q.degree_increase
                    .map_or("n/a".into(), |v| format!("{v:.2}")),
                q.stretch.map_or("n/a".into(), |v| format!("{v:.2}")),
                format!("{:.4}", q.spectral_gap),
                q.components,
                q.critical_notes,
            );
        }
    }

    // Cross-cell acceptance gates: the Xheal family and DEX keep every
    // schedule connected; DEX additionally respects its hard degree cap on
    // the final graph (the per-event assertion already covered the run).
    for sched in matrix.schedules() {
        for engine in ["xheal", "xheal-par", "xheal-dist-sync", "xheal-dist-async"] {
            let c = matrix.cell(engine, sched).expect("complete");
            assert_eq!(c.quality.components, 1, "{engine}/{sched} disconnected");
        }
        let dex = matrix.cell("dex", sched).expect("complete");
        assert_eq!(dex.quality.components, 1, "dex/{sched} disconnected");
        assert!(
            dex.quality.max_degree <= dex_bound,
            "dex/{sched}: {} > {dex_bound}",
            dex.quality.max_degree
        );
    }

    match out_path {
        Some(path) => {
            let out = json(&matrix, smoke, steps, dex_bound);
            std::fs::write(&path, out).expect("write arena report");
            println!("\nwrote {path}");
        }
        None => println!("\nsmoke run: no file written (pass --out PATH to keep the JSON)"),
    }
}
