//! Trace determinism: the span-tree projection (`Tracer::span_tree`) is a
//! pure function of the seed — identical seeds produce identical trees for
//! the centralized engine, the distributed protocol stack, and the
//! component-parallel executor at every thread count — plus the recorded
//! events' per-lane balance and monotone timestamps across every layer
//! (the chrome exporter's input) and the ledger/counter cross-check.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_core::{Event, HealingEngine, ParallelXheal, Xheal, XhealConfig};
use xheal_dex::{Dex, DexConfig};
use xheal_dist::DistXheal;
use xheal_graph::{generators, NodeId};
use xheal_monitor::{Monitor, MonitorConfig};
use xheal_trace::{hook, EvKind, Layer, Tracer, TreeEvent};

const KAPPA: usize = 4;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A seeded churn schedule over a ring-with-chords overlay: `singles`
/// single deletions then one clustered batch of `batch` victims.
fn schedule(n: usize, seed: u64, singles: usize, batch: usize) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<NodeId> = generators::ring_with_chords(n).nodes().collect();
    let victims = (0..singles)
        .map(|_| live.swap_remove(rng.random_range(0..live.len())))
        .collect();
    let batch = (0..batch)
        .map(|_| live.swap_remove(rng.random_range(0..live.len())))
        .collect();
    (victims, batch)
}

/// Runs the distributed stack under a tracer and returns the span tree.
fn dist_tree(n: usize, seed: u64, singles: usize, batch: usize) -> Vec<TreeEvent> {
    let tracer = Tracer::shared(1 << 14);
    let g0 = generators::ring_with_chords(n);
    let mut net = DistXheal::new(&g0, XhealConfig::new(KAPPA).with_seed(seed));
    net.set_tracer(Some(tracer.clone()));
    let (victims, batched) = schedule(n, seed, singles, batch);
    for v in victims {
        net.delete(v).expect("victim is live");
    }
    net.delete_batch(&batched).expect("victims are live");
    let tree = hook::lock(&tracer).span_tree();
    // The forensics ledger's protocol totals agree with the engine's own
    // cost accounting — the ledger is not a parallel bookkeeping system.
    let traced: u64 = hook::lock(&tracer)
        .forensics()
        .repairs
        .iter()
        .map(|r| r.instant_arg_sum("proto.done"))
        .sum();
    assert_eq!(traced, net.counters().messages);
    tree
}

/// Runs the component-parallel executor at `threads` and returns the tree.
fn parallel_tree(n: usize, seed: u64, threads: usize) -> Vec<TreeEvent> {
    let tracer = Tracer::shared(1 << 14);
    let g0 = generators::ring_with_chords(n);
    let mut eng = ParallelXheal::new(&g0, XhealConfig::new(KAPPA).with_seed(seed), threads);
    eng.set_tracer(Some(tracer.clone()));
    let (victims, batched) = schedule(n, seed, 4, 8);
    for v in victims {
        eng.heal_delete(v).expect("victim is live");
    }
    eng.heal_delete_batch(&batched).expect("victims are live");
    let tree = hook::lock(&tracer).span_tree();
    tree
}

/// Layers present in a tree (the acceptance surface: a healed distributed
/// run shows planner, protocol, and transport; adding any executor-layer
/// source pushes past the four-layer floor).
fn layers(tree: &[TreeEvent]) -> Vec<Layer> {
    let mut out: Vec<Layer> = tree.iter().map(|e| e.layer).collect();
    out.sort();
    out.dedup();
    out
}

#[test]
fn identical_seeds_identical_dist_trees() {
    let a = dist_tree(96, 23, 8, 6);
    let b = dist_tree(96, 23, 8, 6);
    assert!(!a.is_empty());
    assert_eq!(a, b);
    let ls = layers(&a);
    for l in [Layer::Planner, Layer::Protocol, Layer::Transport] {
        assert!(ls.contains(&l), "missing {l:?} in {ls:?}");
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity: the tree is not a constant — the determinism assertions
    // above would pass vacuously if it were.
    assert_ne!(dist_tree(96, 23, 8, 6), dist_tree(96, 24, 8, 6));
}

#[test]
fn thread_count_does_not_change_the_tree() {
    let reference = parallel_tree(96, 5, THREADS[0]);
    assert!(!reference.is_empty());
    // The batch fans per-component speculation out on worker lanes; the
    // merged tree must still be schedule-independent.
    assert!(
        reference.iter().any(|e| e.lane != 0),
        "no worker lanes traced"
    );
    for &t in &THREADS[1..] {
        assert_eq!(reference, parallel_tree(96, 5, t), "threads = {t}");
    }
}

#[test]
fn chrome_export_is_balanced_and_monotone() {
    let tracer = Tracer::shared(1 << 16);
    let handle = Some(tracer.clone());

    // The distributed stack with a subscribed monitor: planner, protocol,
    // transport and monitor spans.
    let g0 = generators::ring_with_chords(96);
    let mut net = DistXheal::new(&g0, XhealConfig::new(KAPPA).with_seed(9));
    let monitor = Rc::new(RefCell::new(Monitor::new(
        net.graph(),
        MonitorConfig::default(),
    )));
    monitor.borrow_mut().set_tracer(handle.clone());
    net.subscribe(Box::new(Rc::clone(&monitor)));
    net.set_tracer(handle.clone());
    let (victims, batched) = schedule(96, 9, 6, 5);
    for v in victims {
        net.delete(v).expect("victim is live");
    }
    monitor.borrow_mut().checkpoint();
    net.delete_batch(&batched).expect("victims are live");
    monitor.borrow_mut().checkpoint();

    // The centralized executor: executor spans around planner spans.
    let g1 = generators::ring_with_chords(64);
    let mut eng = Xheal::new(&g1, XhealConfig::new(KAPPA).with_seed(9));
    eng.set_tracer(handle.clone());
    let (victims, batched) = schedule(64, 9, 6, 5);
    for v in victims {
        eng.heal_delete(v).expect("victim is live");
    }
    eng.apply(&Event::DeleteBatch { nodes: batched })
        .expect("victims are live");

    // DEX: an insertion that rewires, and a repair.
    let mut dex = Dex::new(&generators::cycle(32), DexConfig::default());
    HealingEngine::set_tracer(&mut dex, handle.clone());
    let inserted = dex
        .apply(&Event::Insert {
            node: NodeId::new(900),
            neighbors: vec![NodeId::new(3)],
        })
        .expect("contact is live");
    dex.apply(&Event::Delete {
        node: NodeId::new(5),
    })
    .expect("victim is live");

    let t = hook::lock(&tracer);
    assert_eq!(t.dropped(), 0, "the ring must hold the whole run");
    let events = t.events();
    let layers: BTreeSet<Layer> = events.iter().map(|e| e.layer).collect();
    assert!(layers.len() >= 4, "spans from {layers:?}");
    // Per lane: timestamps never go back, and the open-span depth never
    // goes negative and ends at zero.
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
    for e in &events {
        let ts = last_ts.entry(e.lane).or_insert(0);
        assert!(e.ts_nanos >= *ts, "timestamp went back: {e:?}");
        *ts = e.ts_nanos;
        let d = depth.entry(e.lane).or_insert(0);
        match e.kind {
            EvKind::Begin => *d += 1,
            EvKind::End => *d -= 1,
            EvKind::Instant => {}
        }
        assert!(*d >= 0, "an end without its begin: {e:?}");
    }
    assert!(
        depth.values().all(|&d| d == 0),
        "unclosed spans per lane: {depth:?}"
    );
    // DEX's insertion instant carries the messages of its reported cost.
    let messages = inserted
        .cost()
        .expect("DEX insertions report a cost")
        .messages;
    let instant = events
        .iter()
        .find(|e| e.kind == EvKind::Instant && e.name == "exec.insert")
        .expect("DEX records its insertion");
    assert_eq!(instant.arg, messages);

    let json = t.chrome_trace_json();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"displayTimeUnit\""));
    assert_eq!(
        json.matches("\"ph\": \"B\"").count(),
        json.matches("\"ph\": \"E\"").count(),
        "unbalanced duration events"
    );
    // Executor spans wrap planner spans in the tree.
    let tree = t.span_tree();
    assert!(tree
        .iter()
        .any(|e| e.layer == Layer::Planner && e.depth > 0 && e.kind == EvKind::Begin));
}

#[test]
fn checkpoint_records_each_part_once_inside_its_span() {
    let tracer = Tracer::shared(1 << 10);
    let g0 = generators::ring_with_chords(96);
    let mut monitor = Monitor::new(&g0, MonitorConfig::default());
    monitor.set_tracer(Some(tracer.clone()));
    let report = monitor.checkpoint();
    assert_eq!(report.components, 1, "the sweep runs on a connected graph");
    let tree = hook::lock(&tracer).span_tree();
    let spans: Vec<(u32, EvKind, &str)> = tree
        .iter()
        .filter(|e| e.layer == Layer::Monitor && e.kind != EvKind::Instant)
        .map(|e| (e.depth, e.kind, e.name))
        .collect();
    let mut expect = vec![(0, EvKind::Begin, "mon.checkpoint")];
    for part in [
        "mon.snapshot",
        "mon.components",
        "mon.gap",
        "mon.sweep",
        "mon.stretch",
    ] {
        expect.push((1, EvKind::Begin, part));
        expect.push((1, EvKind::End, part));
    }
    expect.push((0, EvKind::End, "mon.checkpoint"));
    assert_eq!(spans, expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Identical seeds give identical distributed span trees for arbitrary
    /// schedule shapes.
    #[test]
    fn prop_dist_trees_deterministic(
        seed in 0u64..1_000_000,
        n in 48usize..96,
        singles in 2usize..8,
        batch in 3usize..7,
    ) {
        prop_assert_eq!(
            dist_tree(n, seed, singles, batch),
            dist_tree(n, seed, singles, batch)
        );
    }

    /// The parallel executor's tree is invariant across thread counts for
    /// arbitrary seeds (lanes are keyed on task identity, not thread id).
    #[test]
    fn prop_parallel_trees_thread_invariant(seed in 0u64..1_000_000) {
        let reference = parallel_tree(72, seed, 1);
        for &t in &[2usize, 8] {
            let tree = parallel_tree(72, seed, t);
            prop_assert!(reference == tree, "tree differs at threads = {}", t);
        }
    }
}
