//! Churn-throughput harness: the repair hot path of [`xheal_graph::Graph`]
//! under seeded churn, plus the component-parallel cores axis.
//!
//! Drives seeded [`RepairPlanner`] repair schedules over random-regular
//! networks (n ∈ {1k, 10k, 50k}), applying every plan through
//! [`xheal_core::RepairPlan::apply_streamed_with`] with a persistent
//! [`ApplyScratch`] exactly as [`Xheal`] does, and records:
//!
//! - **heal-delete micro**: per-deletion latency on a delete-only schedule,
//!   split into the *graph-side* cost (node removal + repair-plan edge
//!   application) and the full operation including the planner;
//! - **end-to-end churn**: events/sec over a mixed insert/delete schedule,
//!   with p50/p99 heal latency and peak live edges;
//! - **fingerprints**: every schedule is also replayed through the
//!   [`Xheal`] engine, and the topology fingerprints of the timed loop, of
//!   every trial, and of the engine replay must all agree.
//!
//! - **component-parallel cores axis** (n = 1M): end-to-end batch healing
//!   through sequential [`Xheal`] vs [`ParallelXheal`] at each requested
//!   thread count (`--threads 1,2,4` or `XHEAL_THREADS`), under both
//!   scattered-uniform and clustered-outage failure models, with
//!   fingerprints asserted bit-identical at every thread count.
//!
//! Output is `BENCH_throughput.json` (schema `xheal-churn-throughput/v4`,
//! override the path with `--out`); `--smoke` shrinks sizes for CI;
//! `--trace <path>` additionally captures a fully instrumented cross-layer
//! companion run as chrome://tracing JSON (see `xheal_bench::capture_trace`).
//! With the `bench` feature a counting global allocator additionally
//! records heap allocations per measurement phase (`"allocs"` fields,
//! `"alloc_counting": true`), so regressions in the zero-alloc hot paths
//! fail loudly. Run the full measurement with:
//!
//! ```text
//! cargo run --release -p xheal-bench --features bench --bin churn_throughput
//! ```

use std::time::{Duration, Instant};

use xheal_bench::{alloc_count, json_quantiles, quantiles, Quantiles, ALLOC_COUNTING};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xheal_core::{
    ApplyScratch, Event, HealingEngine, ParallelXheal, RepairPlanner, SinkRegistry, Xheal,
    XhealConfig,
};
use xheal_graph::{generators, EdgeLabels, Graph, NodeId};

const KAPPA: usize = 6;
const PLANNER_SEED: u64 = 11;
const ADVERSARY_SEED: u64 = 0x5EED_CAFE;

/// Delete-only tape: the heal-delete micro schedule. The adversary draws
/// from its own live list, never from graph state, so the whole schedule
/// can be fixed up front and replayed identically by every consumer.
fn micro_tape(g0: &Graph, deletes: usize) -> Vec<Event> {
    let mut adv = StdRng::seed_from_u64(ADVERSARY_SEED);
    let mut live: Vec<NodeId> = g0.nodes().collect();
    (0..deletes)
        .map(|_| Event::Delete {
            node: live.swap_remove(adv.random_range(0..live.len())),
        })
        .collect()
}

/// Mixed insert/delete tape at 50/50, inserts wiring 1..=3 black edges to
/// random live nodes — the DEX-style sustained-churn workload.
fn churn_tape(g0: &Graph, events: usize) -> Vec<Event> {
    let mut adv = StdRng::seed_from_u64(ADVERSARY_SEED ^ 0xC0FFEE);
    let mut live: Vec<NodeId> = g0.nodes().collect();
    let mut next_id = live.iter().map(|v| v.as_u64() + 1).max().unwrap_or(0);
    (0..events)
        .map(|_| {
            if live.len() < 8 || adv.random::<f64>() < 0.5 {
                let node = NodeId::new(next_id);
                next_id += 1;
                let wanted = adv.random_range(1..=3usize.min(live.len()));
                let neighbors = (0..wanted)
                    .map(|_| live[adv.random_range(0..live.len())])
                    .collect();
                live.push(node);
                Event::Insert { node, neighbors }
            } else {
                Event::Delete {
                    node: live.swap_remove(adv.random_range(0..live.len())),
                }
            }
        })
        .collect()
}

/// One timed pass over a tape.
struct TapeRun {
    inserts: usize,
    deletes: usize,
    /// Per deletion: node removal + plan application.
    graph_ns: Vec<u64>,
    /// Per deletion: the whole heal, planner included.
    op_ns: Vec<u64>,
    /// Every event, inserts included (adversary bookkeeping excluded).
    elapsed: Duration,
    /// Heap allocations across the pass (0 without `bench`).
    allocs: u64,
    peak_edges: usize,
    final_edges: usize,
    fingerprint: u64,
}

/// Replays `tape` through the split-phase repair loop — graph removal,
/// [`RepairPlanner::plan_deletion`], then grouped plan application with a
/// persistent scratch and no sinks, the steps `Xheal::heal_delete` takes —
/// timing each phase.
fn run_tape(g0: &Graph, tape: &[Event]) -> TapeRun {
    let mut graph = g0.clone();
    let mut planner =
        RepairPlanner::new(g0.nodes(), XhealConfig::new(KAPPA).with_seed(PLANNER_SEED));
    let mut sinks = SinkRegistry::default();
    let mut scratch = ApplyScratch::default();
    let mut incident: Vec<(NodeId, EdgeLabels)> = Vec::new();
    let mut run = TapeRun {
        inserts: 0,
        deletes: 0,
        graph_ns: Vec::with_capacity(tape.len()),
        op_ns: Vec::with_capacity(tape.len()),
        elapsed: Duration::ZERO,
        allocs: 0,
        peak_edges: 0,
        final_edges: 0,
        fingerprint: 0,
    };
    let allocs_before = alloc_count();

    for event in tape {
        match event {
            Event::Insert { node, neighbors } => {
                let t = Instant::now();
                graph.add_node(*node).expect("fresh id");
                for &u in neighbors {
                    graph.add_black_edge(*node, u).expect("live endpoints");
                }
                planner.note_insert(*node);
                run.elapsed += t.elapsed();
                run.inserts += 1;
            }
            Event::Delete { node } => {
                incident.clear();
                let t_op = Instant::now();
                let degree = graph.degree(*node).expect("victim is live");
                let t_graph = Instant::now();
                graph
                    .remove_node_into(*node, &mut incident)
                    .expect("victim is live");
                let mut spent_graph = t_graph.elapsed();
                let plan = planner.plan_deletion(*node, &incident, degree);
                let t_apply = Instant::now();
                plan.apply_streamed_with(&mut graph, &mut sinks, &mut scratch);
                spent_graph += t_apply.elapsed();
                let spent = t_op.elapsed();
                run.elapsed += spent;
                run.op_ns.push(spent.as_nanos() as u64);
                run.graph_ns.push(spent_graph.as_nanos() as u64);
                run.deletes += 1;
            }
            Event::DeleteBatch { .. } => unreachable!("tapes carry single events"),
        }
        run.peak_edges = run.peak_edges.max(graph.edge_count());
    }

    run.allocs = alloc_count() - allocs_before;
    run.final_edges = graph.edge_count();
    run.fingerprint = graph.edge_fingerprint();
    run
}

/// Best of `trials` timed passes (minimum by `key`: the tape is identical
/// across trials, so the minimum isolates machine noise), asserting every
/// pass and an untimed [`Xheal`] engine replay end on one topology.
fn best_run<K: Ord>(
    g0: &Graph,
    tape: &[Event],
    trials: usize,
    key: impl Fn(&TapeRun) -> K,
) -> TapeRun {
    let runs: Vec<TapeRun> = (0..trials).map(|_| run_tape(g0, tape)).collect();
    let mut engine = Xheal::new(g0, XhealConfig::new(KAPPA).with_seed(PLANNER_SEED));
    for event in tape {
        engine.apply(event).expect("tape events are valid");
    }
    let reference = engine.graph().edge_fingerprint();
    assert!(
        runs.iter().all(|r| r.fingerprint == reference),
        "timed passes must land on the Xheal engine's topology"
    );
    runs.into_iter()
        .min_by_key(|r| key(r))
        .expect("at least one trial")
}

/// Collects a BFS ball of up to `k` live nodes around a random live
/// center (deterministic: neighbor lists iterate sorted ascending).
fn bfs_ball(graph: &Graph, n: usize, adv: &mut StdRng, k: usize, out: &mut Vec<NodeId>) {
    out.clear();
    let center = loop {
        let id = NodeId::new(adv.random_range(0..n as u64));
        if graph.degree(id).is_some() {
            break id;
        }
    };
    out.push(center);
    let mut qi = 0;
    'fill: while qi < out.len() && out.len() < k {
        let v = out[qi];
        qi += 1;
        for u in graph.neighbors(v) {
            if !out.contains(&u) {
                out.push(u);
                if out.len() == k {
                    break 'fill;
                }
            }
        }
    }
}

/// Victims per event on the component-parallel cores axis: large enough
/// that a uniform draw dies in ~dozens of independent components (phase-2
/// parallelism to harvest), while the clustered row's single BFS ball of
/// this size measures the honest worst case (one component ≈ no phase-2
/// parallelism at all).
const PAR_BATCH: usize = 64;

/// Result of one batch-heal run (sequential engine or the parallel engine
/// at a fixed thread count): the **whole** heal is timed — victim capture,
/// node removal, planning, and grouped application — because that is the
/// end-to-end number the cores axis claims to scale.
struct ParBatchResult {
    deletes: usize,
    heal: Quantiles,
    elapsed: Duration,
    fingerprint: u64,
}

/// Batched delete-only schedule through a [`HealingEngine`]: `threads:
/// None` drives sequential [`Xheal`] (the baseline), `Some(t)` drives
/// [`ParallelXheal`] with a `t`-thread pool. Identical seeds, so every
/// configuration replays the same victim schedule and must land on the
/// same topology fingerprint — that assert *is* the determinism claim.
fn run_parallel_batch(
    g0: &Graph,
    deletes: usize,
    threads: Option<usize>,
    clustered: bool,
) -> ParBatchResult {
    let n = g0.node_count();
    let config = XhealConfig::new(KAPPA).with_seed(PLANNER_SEED);
    let mut seq: Option<Xheal> = None;
    let mut par: Option<ParallelXheal> = None;
    let engine: &mut dyn HealingEngine = match threads {
        None => seq.insert(Xheal::new(g0, config)),
        Some(t) => par.insert(ParallelXheal::new(g0, config, t)),
    };
    let events = deletes.div_ceil(PAR_BATCH);
    let mut adv = StdRng::seed_from_u64(ADVERSARY_SEED ^ 0xBA7C4);
    let mut live: Vec<NodeId> = if clustered {
        Vec::new()
    } else {
        g0.nodes().collect()
    };
    let mut victims: Vec<NodeId> = Vec::with_capacity(PAR_BATCH);
    let mut heal_ns: Vec<u64> = Vec::with_capacity(events);
    let mut elapsed = Duration::ZERO;
    let mut applied = 0usize;

    for _ in 0..events {
        if clustered {
            bfs_ball(engine.graph(), n, &mut adv, PAR_BATCH, &mut victims);
        } else {
            victims.clear();
            for _ in 0..PAR_BATCH {
                victims.push(live.swap_remove(adv.random_range(0..live.len())));
            }
        }
        applied += victims.len();
        let event = Event::DeleteBatch {
            nodes: victims.clone(),
        };
        let t = Instant::now();
        engine.apply(&event).expect("victims are live");
        let spent = t.elapsed();
        elapsed += spent;
        heal_ns.push(spent.as_nanos() as u64);
    }

    ParBatchResult {
        deletes: applied,
        heal: quantiles(&mut heal_ns),
        elapsed,
        fingerprint: engine.graph().edge_fingerprint(),
    }
}

/// The cores axis under one failure model: sequential baseline, then the
/// parallel engine at every requested thread count, best-of-trials each,
/// fingerprints asserted identical throughout. Returns the JSON fragment
/// and the best parallel speedup observed.
fn measure_parallel_axis(
    g0: &Graph,
    deletes: usize,
    trials: usize,
    threads_list: &[usize],
    clustered: bool,
) -> (String, f64) {
    let label = if clustered { "clustered" } else { "uniform" };
    let best = |threads: Option<usize>| {
        (0..trials)
            .map(|_| run_parallel_batch(g0, deletes, threads, clustered))
            .min_by_key(|r| r.elapsed)
            .expect("at least one trial")
    };
    let seq = best(None);
    let mut best_speedup = 0.0f64;
    let mut rows: Vec<String> = Vec::with_capacity(threads_list.len());
    for &t in threads_list {
        let par = best(Some(t));
        assert_eq!(
            seq.fingerprint, par.fingerprint,
            "parallel batch healing must be bit-identical to sequential (threads={t})"
        );
        let speedup = seq.elapsed.as_secs_f64() / par.elapsed.as_secs_f64().max(1e-9);
        best_speedup = best_speedup.max(speedup);
        eprintln!(
            "[n={} {label}] parallel batch heal x{t}: {speedup:.2}x over sequential ({} vs {} mean ns/event)",
            g0.node_count(),
            par.heal.mean,
            seq.heal.mean,
        );
        rows.push(format!(
            "{{\"threads\": {t}, \"heal\": {}, \"total_ms\": {:.3}, \"speedup\": {speedup:.3}, \"fingerprint_match\": true}}",
            json_quantiles(&par.heal),
            par.elapsed.as_secs_f64() * 1e3,
        ));
    }
    let json = format!(
        "{{\"deletes\": {}, \"batch\": {PAR_BATCH}, \"sequential\": {{\"heal\": {}, \"total_ms\": {:.3}}}, \"cores\": [{}]}}",
        seq.deletes,
        json_quantiles(&seq.heal),
        seq.elapsed.as_secs_f64() * 1e3,
        rows.join(", "),
    );
    (json, best_speedup)
}

/// One random-regular network per size, seeded by the size.
fn network(n: usize) -> Graph {
    generators::random_regular(n, 6, &mut StdRng::seed_from_u64(n as u64))
}

/// The micro and churn rows at one size. Returns the JSON entry plus the
/// mean graph-side micro latency (ns) and the churn events/sec.
fn measure_size(
    n: usize,
    micro_deletes: usize,
    churn_events: usize,
    trials: usize,
) -> (String, u64, f64) {
    let g0 = network(n);

    eprintln!("[n={n}] heal-delete micro: {micro_deletes} deletes × {trials} trial(s)");
    let micro = best_run(&g0, &micro_tape(&g0, micro_deletes), trials, |r| {
        r.op_ns.iter().sum::<u64>()
    });
    let (micro_graph, micro_op) = (
        quantiles(&mut micro.graph_ns.clone()),
        quantiles(&mut micro.op_ns.clone()),
    );

    eprintln!("[n={n}] end-to-end churn: {churn_events} events × {trials} trial(s)");
    let churn = best_run(&g0, &churn_tape(&g0, churn_events), trials, |r| r.elapsed);
    let events_per_sec = churn_events as f64 / churn.elapsed.as_secs_f64();
    let heal = quantiles(&mut churn.op_ns.clone());

    eprintln!(
        "[n={n}] micro graph-side {} ns (op {} ns) mean, churn {events_per_sec:.0} events/sec",
        micro_graph.mean, micro_op.mean,
    );
    let entry = format!(
        "    {{\"n\": {n}, \"micro_heal_delete\": {{\"deletes\": {}, \"graph_side\": {}, \"full_op\": {}, \"allocs\": {}}}, \"churn\": {{\"events\": {churn_events}, \"insert_ratio\": 0.5, \"events_per_sec\": {events_per_sec:.1}, \"heal_latency\": {}, \"peak_edges\": {}, \"final_edges\": {}, \"inserts\": {}, \"deletes\": {}, \"allocs\": {}}}, \"fingerprint_match\": true}}",
        micro.deletes,
        json_quantiles(&micro_graph),
        json_quantiles(&micro_op),
        micro.allocs,
        json_quantiles(&heal),
        churn.peak_edges,
        churn.final_edges,
        churn.inserts,
        churn.deletes,
        churn.allocs,
    );
    (entry, micro_graph.mean, events_per_sec)
}

/// The cores-axis row: batch healing at a size where a uniform batch dies
/// in many independent components. Returns the JSON entry and the best
/// uniform parallel speedup.
fn measure_parallel_row(
    n: usize,
    deletes: usize,
    trials: usize,
    threads_list: &[usize],
) -> (String, f64) {
    eprintln!("[n={n}] generating 6-regular network…");
    let g0 = network(n);
    eprintln!(
        "[n={n}] component-parallel batch healing: {deletes} deletes × {trials} trial(s), threads {threads_list:?}"
    );
    let (uniform_json, uniform_speedup) =
        measure_parallel_axis(&g0, deletes, trials, threads_list, false);
    let (clustered_json, _) = measure_parallel_axis(&g0, deletes, trials, threads_list, true);
    let entry = format!(
        "    {{\"n\": {n}, \"parallel_batch\": {{\"uniform\": {uniform_json}, \"clustered_outage\": {clustered_json}}}}}"
    );
    (entry, uniform_speedup)
}

/// Thread counts for the cores axis: `--threads 1,2,4` beats the
/// `XHEAL_THREADS` env var beats the default — {1, 2, 4, 8} clipped to
/// twice the host's cores (one oversubscribed point stays in, so
/// single-core hosts still record the pool's overhead honestly), and
/// always at least {1, 2} so the determinism cross-check runs everywhere.
fn thread_axis(args: &[String]) -> Vec<usize> {
    let spec = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var("XHEAL_THREADS").ok());
    if let Some(spec) = spec {
        let parsed: Vec<usize> = spec
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .filter(|&t| t >= 1)
            .collect();
        assert!(!parsed.is_empty(), "no valid thread counts in {spec:?}");
        return parsed;
    }
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= (2 * cores).max(2))
        .collect()
}

fn join<T>(items: &[T], fmt: impl Fn(&T) -> String) -> String {
    items.iter().map(fmt).collect::<Vec<_>>().join(", ")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());
    let threads_list = thread_axis(&args);

    // (n, micro deletes, churn events) per size. Churn runs 2 events per
    // node at 1k/10k so those sizes reach the sustained-churn regime
    // (clouds mature, repairs dominate) instead of measuring a cold-start
    // transient; 50k runs 1 event per node.
    let sizes: Vec<(usize, usize, usize)> = if smoke {
        vec![(200, 80, 400)]
    } else {
        vec![
            (1_000, 600, 2_000),
            (10_000, 6_000, 20_000),
            (50_000, 6_000, 50_000),
        ]
    };
    // Cores-axis row (n, deletes); smoke keeps a liveness-sized row.
    let (par_n, par_deletes) = if smoke {
        (1_000, 200)
    } else {
        (1_000_000, 2_000)
    };

    let trials = if smoke { 1 } else { 2 };
    let rows: Vec<(String, u64, f64)> = sizes
        .iter()
        .map(|&(n, d, e)| measure_size(n, d, e, trials))
        .collect();
    let (par_entry, par_speedup) = measure_parallel_row(par_n, par_deletes, trials, &threads_list);
    let host_cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);

    let mut entries: Vec<String> = rows.iter().map(|(e, _, _)| e.clone()).collect();
    entries.push(par_entry);
    let json = format!(
        "{{\n  \"schema\": \"xheal-churn-throughput/v4\",\n  \"smoke\": {smoke},\n  \"alloc_counting\": {ALLOC_COUNTING},\n  \"kappa\": {KAPPA},\n  \"planner_seed\": {PLANNER_SEED},\n  \"adversary_seed\": {ADVERSARY_SEED},\n  \"host_cores\": {host_cores},\n  \"parallel_threads\": [{}],\n  \"sizes\": [\n{}\n  ],\n  \"summary\": {{\n    \"sizes_n\": [{}],\n    \"micro_graph_side_mean_ns\": [{}],\n    \"churn_events_per_sec\": [{}],\n    \"parallel_batch_n\": {par_n},\n    \"parallel_batch_speedup_max\": {par_speedup:.3},\n    \"fingerprint_match\": true\n  }}\n}}\n",
        join(&threads_list, |t| t.to_string()),
        entries.join(",\n"),
        join(&sizes, |&(n, _, _)| n.to_string()),
        join(&rows, |&(_, ns, _)| ns.to_string()),
        join(&rows, |&(_, _, eps)| format!("{eps:.1}")),
    );

    std::fs::write(&out_path, &json).expect("write throughput report");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(trace_path) = xheal_bench::trace_arg(&args) {
        xheal_bench::capture_trace(&trace_path, PLANNER_SEED);
    }
}
