//! Monitor-overhead harness: incremental metric maintenance vs per-event
//! fresh rebuild, plus warm-started vs from-scratch spectral checkpoints.
//!
//! Drives a seeded mixed insert/delete/batch churn schedule through
//! [`xheal_core::Xheal`] and, for every event:
//!
//! - **incremental**: feeds the event's [`TopologyDelta`]s into an
//!   [`xheal_monitor::Monitor`] (its delta-fed graph mirror + O(1)
//!   trackers);
//! - **fresh rebuild**: what a non-streaming monitor would do instead —
//!   rebuild `Graph::csr_view()`, rebuild the normalized-Laplacian
//!   operator, and recount the degree/black-degree histograms and the
//!   degree increase against `G'` from scratch.
//!
//! At checkpoints it additionally compares the monitor's **warm-started**
//! spectral gap against a from-scratch `normalized_algebraic_connectivity`
//! solve (the two must agree within 1e-6) and cross-checks the monitor's
//! mirror against the engine's graph (labels included) and its CSR snapshot
//! against the fresh one field-by-field.
//!
//! Output is `BENCH_monitor.json` (schema `xheal-monitor-overhead/v2`,
//! override the path with `--out`); `--smoke` shrinks sizes for CI. Full
//! run:
//!
//! ```text
//! cargo run --release -p xheal-bench --bin monitor_overhead
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xheal_bench::{json_quantiles, quantiles};
use xheal_core::{Event, HealingEngine, TopologyDelta, TopologySink, Xheal, XhealConfig};
use xheal_graph::{generators, Graph, NodeId};
use xheal_metrics::{degree_increase, GPrime};
use xheal_monitor::{Monitor, MonitorConfig};
use xheal_spectral::{normalized_algebraic_connectivity, NormalizedLaplacianOp};

const KAPPA: usize = 6;
const HEALER_SEED: u64 = 17;
const ADVERSARY_SEED: u64 = 0x5EED_BEEF;
const SPECTRAL_TOL: f64 = 1e-6;

/// Buffers one event's deltas so monitor ingestion can be timed apart from
/// the engine's own work.
#[derive(Default)]
struct Recorder {
    deltas: Vec<TopologyDelta>,
}

impl TopologySink for Recorder {
    fn on_delta(&mut self, delta: &TopologyDelta) {
        self.deltas.push(*delta);
    }
}

/// The fresh-rebuild comparator: everything a monitor without the delta
/// stream would redo per event.
fn fresh_rebuild_pass(graph: &Graph, gprime: &GPrime) -> (usize, f64) {
    let csr = graph.csr_view();
    // The operator build the spectral stack would need per query.
    let op = NormalizedLaplacianOp::new(graph);
    // Histogram recounts.
    let mut degs: Vec<u64> = Vec::new();
    let mut blacks: Vec<u64> = Vec::new();
    for i in 0..csr.len() {
        let d = csr.degree_of(i);
        if d >= degs.len() {
            degs.resize(d + 1, 0);
        }
        degs[d] += 1;
    }
    for v in graph.nodes() {
        let b = graph.black_degree(v).expect("live node");
        if b >= blacks.len() {
            blacks.resize(b + 1, 0);
        }
        blacks[b] += 1;
    }
    let di = degree_increase(graph, gprime.graph());
    // Return values derived from every rebuilt structure so nothing is
    // optimized away.
    (op.nodes().len() + degs.len() + blacks.len(), di)
}

/// Population-stable mixed churn: ~0.5 inserts vs ~0.52 expected victims
/// per event (single deletions plus occasional 2–3 victim bursts) — the
/// sustained regime a long-running monitor actually watches, not a
/// shrink-to-combine-storm death spiral.
fn next_event(graph: &Graph, rng: &mut StdRng, next_id: &mut u64) -> Event {
    let nodes = graph.node_vec();
    let roll = rng.random_range(0..12u32);
    if nodes.len() < 16 || roll < 6 {
        let node = NodeId::new(*next_id);
        *next_id += 1;
        let wanted = rng.random_range(1..=3usize.min(nodes.len()));
        let mut neighbors = Vec::with_capacity(wanted);
        for _ in 0..wanted {
            neighbors.push(nodes[rng.random_range(0..nodes.len())]);
        }
        neighbors.dedup();
        Event::Insert { node, neighbors }
    } else if roll < 11 {
        Event::Delete {
            node: nodes[rng.random_range(0..nodes.len())],
        }
    } else {
        let mut victims: Vec<NodeId> = Vec::new();
        for _ in 0..rng.random_range(2..=3usize) {
            let v = nodes[rng.random_range(0..nodes.len())];
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        Event::DeleteBatch { nodes: victims }
    }
}

struct CheckpointRow {
    event: usize,
    generation: u64,
    warm_gap: f64,
    cold_gap: f64,
    abs_diff: f64,
    warm_restarts: usize,
    warm_ns: u64,
    cold_ns: u64,
}

struct SizeReport {
    n: usize,
    events: usize,
    inc_json: String,
    fresh_json: String,
    speedup: f64,
    speedup_p50: f64,
    checkpoints: Vec<CheckpointRow>,
    spectral_max_abs_diff: f64,
    consistency_ok: bool,
    alerts: usize,
}

fn measure_size(n: usize, events: usize, checkpoint_every: usize) -> SizeReport {
    let mut rng = StdRng::seed_from_u64(n as u64 ^ 0xA11CE);
    let g0 = generators::random_regular(n, 6, &mut rng);

    let recorder = std::rc::Rc::new(std::cell::RefCell::new(Recorder::default()));
    let mut net = Xheal::builder()
        .config(XhealConfig::new(KAPPA).with_seed(HEALER_SEED))
        .sink(Box::new(std::rc::Rc::clone(&recorder)))
        .build(&g0);
    let mut monitor = Monitor::new(&g0, MonitorConfig::default());
    let mut gprime = GPrime::new(&g0);

    let mut adv = StdRng::seed_from_u64(ADVERSARY_SEED);
    let mut next_id = n as u64 + 1;
    let mut inc_ns: Vec<u64> = Vec::with_capacity(events);
    let mut fresh_ns: Vec<u64> = Vec::with_capacity(events);
    let mut delta_count = 0u64;
    let mut checkpoints: Vec<CheckpointRow> = Vec::new();
    let mut consistency_ok = true;
    let mut sink_blackhole = 0usize;

    eprintln!("[n={n}] {events} churn events, checkpoint every {checkpoint_every}");
    for step in 0..events {
        let event = next_event(net.graph(), &mut adv, &mut next_id);
        if let Event::Insert { node, neighbors } = &event {
            gprime.record_insert(*node, neighbors).expect("fresh node");
        }
        recorder.borrow_mut().deltas.clear();
        net.apply(&event).expect("valid adversary event");

        // Incremental side: replay this event's deltas into the monitor.
        let deltas = std::mem::take(&mut recorder.borrow_mut().deltas);
        delta_count += deltas.len() as u64;
        let t = Instant::now();
        for d in &deltas {
            monitor.on_delta(d);
        }
        inc_ns.push(t.elapsed().as_nanos() as u64);

        // Fresh-rebuild side: the same metrics recomputed from the graph.
        let t = Instant::now();
        let (blackhole, fresh_di) = fresh_rebuild_pass(net.graph(), &gprime);
        fresh_ns.push(t.elapsed().as_nanos() as u64);
        sink_blackhole = sink_blackhole.wrapping_add(blackhole);

        // Not timed: the maintained metric must equal the recount.
        assert!(
            (monitor.degree_increase() - fresh_di).abs() < 1e-12,
            "step {step}: maintained degree increase {} != recount {fresh_di}",
            monitor.degree_increase()
        );

        if (step + 1) % checkpoint_every == 0 {
            // Spectral head-to-head first (warm vs cold, solver time only),
            // then the full checkpoint (components/expansion/stretch +
            // policy) untimed.
            let t = Instant::now();
            let warm = monitor.spectral_gap();
            let warm_ns = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let cold_gap = normalized_algebraic_connectivity(net.graph());
            let cold_ns = t.elapsed().as_nanos() as u64;
            let report = monitor.checkpoint();
            let warm_gap = warm.lambda;
            let abs_diff = (warm_gap - cold_gap).abs();
            eprintln!(
                "[n={n}] checkpoint @{}: warm {warm_gap:.9} ({} restarts, {:.1}ms) vs cold {cold_gap:.9} ({:.1}ms), |diff| {abs_diff:.2e}",
                step + 1,
                warm.restarts,
                warm_ns as f64 / 1e6,
                cold_ns as f64 / 1e6,
            );
            // Mirror and field-by-field CSR cross-check (the runtime
            // consistency proof).
            let inc = monitor.csr().snapshot();
            let fresh = net.graph().csr_view();
            consistency_ok &= monitor.csr().graph() == net.graph()
                && inc.nodes() == fresh.nodes()
                && inc.offsets() == fresh.offsets()
                && inc.neighbors_flat() == fresh.neighbors_flat();
            assert_eq!(report.generation, monitor.generation());
            checkpoints.push(CheckpointRow {
                event: step + 1,
                generation: report.generation,
                warm_gap,
                cold_gap,
                abs_diff,
                warm_restarts: warm.restarts,
                warm_ns,
                cold_ns,
            });
        }
    }
    // Keep the blackhole live so the fresh pass is not dead code.
    assert!(sink_blackhole > 0);

    let inc_q = quantiles(&mut inc_ns);
    let fresh_q = quantiles(&mut fresh_ns);
    let speedup = fresh_q.mean as f64 / inc_q.mean.max(1) as f64;
    // The typical-event ratio: the mean is dominated by rare combine
    // storms whose delta volume scales with cloud size, not n.
    let speedup_p50 = fresh_q.p50 as f64 / inc_q.p50.max(1) as f64;
    let spectral_max_abs_diff = checkpoints
        .iter()
        .map(|c| c.abs_diff)
        .fold(0.0f64, f64::max);
    eprintln!(
        "[n={n}] incremental {}ns/event vs fresh {}ns/event: {speedup:.1}x cheaper (p50 {speedup_p50:.1}x); spectral max |diff| {spectral_max_abs_diff:.2e}",
        inc_q.mean, fresh_q.mean
    );

    let inc_json = format!(
        "{{\"per_event\": {}, \"deltas_per_event_mean\": {:.2}}}",
        json_quantiles(&inc_q),
        delta_count as f64 / events as f64,
    );
    let fresh_json = format!("{{\"per_event\": {}}}", json_quantiles(&fresh_q));
    SizeReport {
        n,
        events,
        inc_json,
        fresh_json,
        speedup,
        speedup_p50,
        checkpoints,
        spectral_max_abs_diff,
        consistency_ok,
        alerts: monitor.alerts().len(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_monitor.json".to_string());

    // (n, events, checkpoint interval). The acceptance target is the
    // n = 10k row: incremental maintenance ≥ 10× cheaper than per-event
    // fresh rebuild, warm spectral gap within 1e-6 of the cold solve.
    let sizes: Vec<(usize, usize, usize)> = if smoke {
        vec![(200, 240, 80)]
    } else {
        vec![(1_000, 1_000, 250), (10_000, 2_000, 500)]
    };

    let reports: Vec<SizeReport> = sizes
        .iter()
        .map(|&(n, e, c)| measure_size(n, e, c))
        .collect();

    let speedup_min = reports
        .iter()
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);
    let speedup_at_largest = reports.last().expect("at least one size").speedup;
    let spectral_worst = reports
        .iter()
        .map(|r| r.spectral_max_abs_diff)
        .fold(0.0f64, f64::max);
    let within_tol = spectral_worst < SPECTRAL_TOL;
    let consistency = reports.iter().all(|r| r.consistency_ok);
    assert!(
        within_tol,
        "warm spectral gap drifted {spectral_worst:.2e} from the cold solve (tolerance {SPECTRAL_TOL:.0e})"
    );
    assert!(consistency, "monitor mirror diverged from the engine graph");
    // The acceptance target: at the full n = 10k scale, incremental
    // maintenance must be at least 10x cheaper than per-event rebuild
    // (smoke sizes are too small for the rebuild cost to dominate).
    assert!(
        smoke || speedup_at_largest >= 10.0,
        "incremental maintenance only {speedup_at_largest:.1}x cheaper at the largest size"
    );

    let size_entries: Vec<String> = reports
        .iter()
        .map(|r| {
            let rows: Vec<String> = r
                .checkpoints
                .iter()
                .map(|c| {
                    format!(
                        "        {{\"event\": {}, \"generation\": {}, \"warm_gap\": {:.12}, \"cold_gap\": {:.12}, \"abs_diff\": {:.3e}, \"warm_restarts\": {}, \"warm_ns\": {}, \"cold_ns\": {}}}",
                        c.event,
                        c.generation,
                        c.warm_gap,
                        c.cold_gap,
                        c.abs_diff,
                        c.warm_restarts,
                        c.warm_ns,
                        c.cold_ns
                    )
                })
                .collect();
            format!(
                "    {{\"n\": {}, \"events\": {}, \"incremental\": {}, \"fresh_rebuild\": {}, \"speedup_mean\": {:.3}, \"speedup_p50\": {:.3}, \"spectral_max_abs_diff\": {:.3e}, \"consistency_ok\": {}, \"alerts\": {}, \"checkpoints\": [\n{}\n      ]}}",
                r.n,
                r.events,
                r.inc_json,
                r.fresh_json,
                r.speedup,
                r.speedup_p50,
                r.spectral_max_abs_diff,
                r.consistency_ok,
                r.alerts,
                rows.join(",\n")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"xheal-monitor-overhead/v2\",\n  \"smoke\": {smoke},\n  \"kappa\": {KAPPA},\n  \"healer_seed\": {HEALER_SEED},\n  \"adversary_seed\": {ADVERSARY_SEED},\n  \"spectral_tolerance\": {SPECTRAL_TOL:e},\n  \"sizes\": [\n{}\n  ],\n  \"summary\": {{\n    \"speedup_min\": {speedup_min:.3},\n    \"speedup_at_largest\": {speedup_at_largest:.3},\n    \"spectral_max_abs_diff\": {spectral_worst:.3e},\n    \"spectral_within_tol\": {within_tol},\n    \"consistency_ok\": {consistency}\n  }}\n}}\n",
        size_entries.join(",\n"),
    );

    std::fs::write(&out_path, &json).expect("write monitor report");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
