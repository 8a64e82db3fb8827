//! # xheal-bench
//!
//! Shared table/formatting utilities for the experiment harness. Each bench
//! target (`benches/e1_*.rs` … `benches/e10_*.rs`, `benches/micro.rs`)
//! regenerates one experiment from DESIGN.md's per-experiment index; run one
//! with `cargo bench -p xheal-bench --bench e1_degree_bound` or all with
//! `cargo bench --workspace`.
//!
//! With the `bench` feature this crate also installs the counting global
//! allocator ([`alloc_count`]) that the `churn_throughput` and
//! `traffic_throughput` binaries use for their allocation ledgers. The
//! `churn_throughput` and `monitor_overhead` binaries share one latency
//! quantile helper ([`quantiles`]).

// `deny` rather than `forbid`: the feature-gated counting allocator below
// is the one permitted unsafe block (a verbatim delegation to `System`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

/// Counting global allocator (the `bench` feature): every allocation bumps
/// a relaxed atomic, so measurement phases can report exact
/// heap-allocation counts. Schedules are fully seeded, so counts are
/// deterministic per phase. Installed for every binary linking this crate
/// when the feature is on — off by default, since the counter adds an
/// atomic op to every alloc.
#[cfg(feature = "bench")]
#[allow(unsafe_code)]
mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    struct CountingAlloc;

    // SAFETY: delegates verbatim to `System`; the counter has no effect on
    // allocation behavior.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static A: CountingAlloc = CountingAlloc;

    pub(crate) fn current() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Heap allocations since process start (always 0 without the `bench`
/// feature — check [`ALLOC_COUNTING`] before trusting deltas).
pub fn alloc_count() -> u64 {
    #[cfg(feature = "bench")]
    {
        alloc_counter::current()
    }
    #[cfg(not(feature = "bench"))]
    {
        0
    }
}

/// Whether allocation counting is live in this build.
pub const ALLOC_COUNTING: bool = cfg!(feature = "bench");

/// Latency quantiles over one measurement phase's samples (nanoseconds).
#[derive(Clone, Copy, Debug)]
pub struct Quantiles {
    /// Median sample.
    pub p50: u64,
    /// 99th-percentile sample.
    pub p99: u64,
    /// Arithmetic mean (integer division).
    pub mean: u64,
}

/// Sorts `samples` and reads the nearest-rank quantiles at the floored
/// index `⌊(len − 1)·p⌋`.
///
/// # Panics
///
/// On an empty sample set.
pub fn quantiles(samples: &mut [u64]) -> Quantiles {
    assert!(!samples.is_empty(), "no samples recorded");
    samples.sort_unstable();
    let q = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
    Quantiles {
        p50: q(0.50),
        p99: q(0.99),
        mean: samples.iter().sum::<u64>() / samples.len() as u64,
    }
}

/// Renders [`Quantiles`] as the `{"p50_ns", "p99_ns", "mean_ns"}` JSON
/// object the BENCH records use.
pub fn json_quantiles(q: &Quantiles) -> String {
    format!(
        "{{\"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}}}",
        q.p50, q.p99, q.mean
    )
}

/// Shared `--trace <path>` implementation for the bench binaries: drives a
/// compact, fully instrumented cross-layer repair scenario — the repair
/// planner, the centralized executors (Xheal and DEX), the distributed
/// actor protocol, the message transport, and the invariant monitor all
/// recording into one tracer — then writes the chrome://tracing JSON to
/// `path` and prints the per-phase summary, the metrics frame, and the
/// repair-forensics ledger to stderr.
///
/// The measured benchmark loops stay untraced on purpose: instrumenting
/// the timed hot paths would perturb the numbers the binaries exist to
/// record, so `--trace` captures a representative companion run instead
/// (same engines, same layers, bench-scale sizes).
pub fn capture_trace(path: &str, seed: u64) {
    use std::cell::RefCell;
    use std::rc::Rc;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xheal_core::{Event, HealingEngine, Xheal, XhealConfig};
    use xheal_dex::{Dex, DexConfig};
    use xheal_dist::DistXheal;
    use xheal_graph::{generators, NodeId};
    use xheal_monitor::{HealthPolicy, Monitor, MonitorConfig};
    use xheal_trace::{hook, Layer, Tracer};

    let tracer = Tracer::shared(1 << 15);
    let handle = Some(tracer.clone());
    hook::begin(&handle, Layer::Harness, "bench.capture", 0, seed);

    // Distributed segment: planner + protocol + transport + monitor. A
    // tight degree-increase budget makes the monitor's band machine move,
    // so health transitions land in the trace too.
    let g0 = generators::ring_with_chords(96);
    let mut net = DistXheal::new(&g0, XhealConfig::new(4).with_seed(seed));
    let monitor = Rc::new(RefCell::new(Monitor::new(
        net.graph(),
        MonitorConfig {
            policy: HealthPolicy {
                max_degree_increase: Some(2.0),
                warn_degree_increase: Some(1.5),
                ..HealthPolicy::default()
            },
            ..MonitorConfig::default()
        },
    )));
    monitor.borrow_mut().set_tracer(Some(tracer.clone()));
    net.subscribe(Box::new(Rc::clone(&monitor)));
    net.set_tracer(Some(tracer.clone()));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<NodeId> = g0.nodes().collect();
    for i in 0..10 {
        let v = live.swap_remove(rng.random_range(0..live.len()));
        net.delete(v).expect("victim is live");
        hook::bump(&handle, "capture.deletes", 1);
        if i % 4 == 3 {
            monitor.borrow_mut().checkpoint();
        }
    }
    let victims: Vec<NodeId> = (0..6)
        .map(|_| live.swap_remove(rng.random_range(0..live.len())))
        .collect();
    net.delete_batch(&victims).expect("victims are live");
    hook::bump(&handle, "capture.batches", 1);
    let contact = live[0];
    net.insert(NodeId::new(10_000), &[contact])
        .expect("contact is live");
    monitor.borrow_mut().checkpoint();

    // Centralized executor segment: exec.repair / exec.apply spans.
    let g1 = generators::ring_with_chords(64);
    let mut xheal = Xheal::new(&g1, XhealConfig::new(4).with_seed(seed ^ 1));
    xheal.set_tracer(Some(tracer.clone()));
    let mut live: Vec<NodeId> = g1.nodes().collect();
    for _ in 0..6 {
        let v = live.swap_remove(rng.random_range(0..live.len()));
        xheal.heal_delete(v).expect("victim is live");
        hook::bump(&handle, "capture.deletes", 1);
    }
    let victims: Vec<NodeId> = (0..4)
        .map(|_| live.swap_remove(rng.random_range(0..live.len())))
        .collect();
    xheal
        .apply(&Event::DeleteBatch { nodes: victims })
        .expect("victims are live");
    hook::bump(&handle, "capture.batches", 1);

    // DEX segment: exec.insert instants carrying the reconfiguration cost.
    let mut dex = Dex::new(&generators::cycle(32), DexConfig::default());
    HealingEngine::set_tracer(&mut dex, Some(tracer.clone()));
    dex.apply(&Event::Insert {
        node: NodeId::new(900),
        neighbors: vec![NodeId::new(3)],
    })
    .expect("contact is live");
    dex.apply(&Event::Delete {
        node: NodeId::new(5),
    })
    .expect("victim is live");

    hook::end(&handle, Layer::Harness, "bench.capture", 0, 0);

    let t = hook::lock(&tracer);
    std::fs::write(path, t.chrome_trace_json()).expect("write chrome trace");
    eprintln!("\n--- trace phase summary ({path}) ---");
    eprint!("{}", t.phase_summary());
    eprint!("{}", t.metrics_ref().frame().render());
    eprint!("{}", t.forensics().render());
    eprintln!("wrote {path} ({} trace events)", t.len());
}

/// Parses `--trace <path>` from the argument list.
pub fn trace_arg(args: &[String]) -> Option<String> {
    args.iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Prints an experiment header with provenance.
pub fn header(id: &str, claim: &str) {
    println!();
    println!("==================================================================");
    println!("{id}: {claim}");
    println!("==================================================================");
}

/// Prints an aligned table row of cells (first column left-aligned, rest
/// right-aligned, 12 chars).
pub fn row(cells: &[String]) {
    let mut line = String::new();
    for (i, c) in cells.iter().enumerate() {
        if i == 0 {
            line.push_str(&format!("{c:<26}"));
        } else {
            line.push_str(&format!("{c:>12}"));
        }
    }
    println!("{line}");
}

/// Convenience: builds a row from string slices.
pub fn srow(cells: &[&str]) {
    row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
}

/// Formats a float compactly (3 significant decimals, inf-aware).
pub fn f(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() < 0.001 {
        format!("{v:.1e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats an optional float ("-" when absent).
pub fn fo(v: Option<f64>) -> String {
    v.map(f).unwrap_or_else(|| "-".to_string())
}

/// Prints the final verdict line for an experiment.
pub fn verdict(ok: bool, text: &str) {
    println!();
    println!("VERDICT [{}]: {text}", if ok { "PASS" } else { "CHECK" });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_floor_the_nearest_rank_index() {
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        let q = quantiles(&mut samples);
        // Indices ⌊99·0.5⌋ = 49 and ⌊99·0.99⌋ = 98 of the sorted samples.
        assert_eq!((q.p50, q.p99, q.mean), (50, 99, 50));
        assert_eq!(
            json_quantiles(&q),
            r#"{"p50_ns": 50, "p99_ns": 99, "mean_ns": 50}"#
        );
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(f64::INFINITY), "inf");
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1234.5), "1234.5");
        assert_eq!(f(1.23456), "1.235");
        assert_eq!(f(0.00004), "4.0e-5");
        assert_eq!(fo(None), "-");
        assert_eq!(fo(Some(2.0)), "2.000");
    }
}
