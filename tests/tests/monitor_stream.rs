//! The monitor's consistency proof: its `DeltaMirror`, a `Graph`
//! mirrored purely from the `TopologyDelta` stream, equals the engine's
//! graph, labels included, and snapshots to exactly `Graph::csr_view()` —
//! after **every** event, under arbitrary mixed insert/delete/batch churn,
//! for the centralized executor, both distributed engines, and the
//! component-parallel executor, including a subscription that starts
//! mid-run. The companion property pins the monitor's maintained degree
//! histogram and degree-increase metric against from-scratch
//! recounts on the same schedule, for Xheal, star-heal and DEX.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_baselines::StarHeal;
use xheal_core::{Event, HealingEngine, Xheal, XhealConfig};
use xheal_dex::{Dex, DexConfig};
use xheal_dist::{DistXheal, Msg};
use xheal_graph::{generators, CsrView, Graph, NodeId};
use xheal_metrics::{degree_increase, GPrime};
use xheal_monitor::{Monitor, MonitorConfig};
use xheal_sim::{AsyncConfig, AsyncNetwork};

/// Builds one engine of the given kind over `g0` with a monitor subscribed.
fn engine_with_monitor(
    kind: usize,
    g0: &Graph,
    cfg: XhealConfig,
) -> (Box<dyn HealingEngine>, Rc<RefCell<Monitor>>) {
    let monitor = Rc::new(RefCell::new(Monitor::new(g0, MonitorConfig::default())));
    let sink = Box::new(Rc::clone(&monitor));
    let engine: Box<dyn HealingEngine> = match kind {
        0 => Box::new(Xheal::builder().config(cfg).sink(sink).build(g0)),
        1 => Box::new(DistXheal::builder().config(cfg).sink(sink).build(g0)),
        2 => Box::new(
            DistXheal::builder()
                .config(cfg)
                .sink(sink)
                // Latency and jitter reorder deliveries; the delta stream
                // (driven by the shared planner) must not change.
                .engine(AsyncNetwork::<Msg>::new(
                    AsyncConfig::uniform(1, 3, 29).with_jitter(1),
                ))
                .build(g0),
        ),
        // Component-parallel batches: the merged per-component delta
        // streams arrive in repair-seq order, so the monitor sees the same
        // sequence as the sequential engine's.
        _ => Box::new(
            Xheal::builder()
                .config(cfg)
                .sink(sink)
                .build_parallel(g0, 2),
        ),
    };
    (engine, monitor)
}

/// One adversary move: mixed inserts, single deletions, and multi-victim
/// batches, always valid against the current graph.
fn next_event(graph: &Graph, rng: &mut StdRng, next_id: &mut u64) -> Event {
    let nodes = graph.node_vec();
    let roll = rng.random_range(0..4u32);
    if nodes.len() < 8 || roll == 0 {
        let node = NodeId::new(*next_id);
        *next_id += 1;
        let wanted = rng.random_range(1..=2usize.min(nodes.len()));
        let mut neighbors = Vec::with_capacity(wanted);
        for _ in 0..wanted {
            neighbors.push(nodes[rng.random_range(0..nodes.len())]);
        }
        neighbors.dedup();
        Event::Insert { node, neighbors }
    } else if roll < 3 {
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

/// Field-by-field CSR equality (CsrView carries no `PartialEq` on purpose).
fn csr_equal(a: &CsrView, b: &CsrView) -> bool {
    a.nodes() == b.nodes() && a.offsets() == b.offsets() && a.neighbors_flat() == b.neighbors_flat()
}

/// The per-event check: the monitor's mirror equals `graph` (labels
/// included) and passes `Graph::validate`, its snapshot is exactly
/// `graph.csr_view()`, and its generation advanced past `last_generation`
/// (every event emits at least one delta). Returns the new generation.
fn check_monitor(
    monitor: &Monitor,
    graph: &Graph,
    last_generation: u64,
    ctx: &str,
) -> Result<u64, TestCaseError> {
    let mirror = monitor.csr().graph();
    mirror
        .validate()
        .map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
    prop_assert!(mirror == graph, "{}: mirror diverged", ctx);
    prop_assert!(
        csr_equal(&monitor.csr().snapshot(), &graph.csr_view()),
        "{}: snapshot differs from csr_view()",
        ctx
    );
    let generation = monitor.generation();
    prop_assert!(
        generation > last_generation,
        "{}: generation stalled at {}",
        ctx,
        generation
    );
    Ok(generation)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The monitor's mirror == the engine's graph after every event, for
    /// all four executors on one shared schedule, with the generation
    /// stamp advancing with every delta the engine emitted.
    #[test]
    fn incremental_csr_matches_fresh_rebuild_under_mixed_churn(
        seed in any::<u64>(),
        n in 12usize..28,
        steps in 8usize..24,
    ) {
        let g0 = generators::connected_erdos_renyi(
            n,
            0.15,
            &mut StdRng::seed_from_u64(seed),
        );
        let cfg = XhealConfig::new(4).with_seed(seed ^ 0xCAFE);

        for kind in 0..4usize {
            let (mut engine, monitor) = engine_with_monitor(kind, &g0, cfg.clone());
            let mut adv_rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let mut next_id = 10_000u64;
            let mut last_generation = 0u64;
            for step in 0..steps {
                let event = next_event(engine.graph(), &mut adv_rng, &mut next_id);
                engine.apply(&event).map_err(|e| {
                    TestCaseError::fail(format!("{}: {e}", engine.name()))
                })?;
                let ctx = format!("{} step {step} after {event:?}", engine.name());
                last_generation =
                    check_monitor(&monitor.borrow(), engine.graph(), last_generation, &ctx)?;
            }
        }
    }

    /// Mid-run subscription: a monitor seeded from the graph mid-run tracks
    /// the engine from that point on, generation counting from zero.
    #[test]
    fn incremental_csr_subscribed_mid_run_tracks_from_there(
        seed in any::<u64>(),
        steps in 4usize..14,
    ) {
        let g0 = generators::connected_erdos_renyi(
            20,
            0.15,
            &mut StdRng::seed_from_u64(seed),
        );
        let mut net = Xheal::new(&g0, XhealConfig::new(4).with_seed(seed ^ 3));
        let mut adv_rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let mut next_id = 20_000u64;
        // Churn without any subscriber first.
        for _ in 0..steps {
            let event = next_event(net.graph(), &mut adv_rng, &mut next_id);
            net.apply(&event).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        // Subscribe now, seeded from the *current* graph.
        let monitor = Rc::new(RefCell::new(Monitor::new(net.graph(), MonitorConfig::default())));
        net.subscribe(Box::new(Rc::clone(&monitor)));
        prop_assert_eq!(monitor.borrow().generation(), 0);
        let mut last_generation = 0u64;
        for step in 0..steps {
            let event = next_event(net.graph(), &mut adv_rng, &mut next_id);
            net.apply(&event).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let ctx = format!("mid-run step {step} after {event:?}");
            last_generation =
                check_monitor(&monitor.borrow(), net.graph(), last_generation, &ctx)?;
        }
    }

    /// The monitor's maintained degree histogram and degree increase
    /// equal from-scratch recounts after every event of a mixed
    /// churn schedule (the satellite pin), for Xheal, star-heal (black
    /// repair edges) and DEX (every edge coloured). Each insertion is handed
    /// to the monitor after the engine applied it, as `MonitorHook` does,
    /// and `G'` is recounted from the same tape.
    #[test]
    fn maintained_metrics_match_recounts_under_mixed_churn(
        seed in any::<u64>(),
        steps in 6usize..20,
    ) {
        let g0 = generators::connected_erdos_renyi(
            18,
            0.18,
            &mut StdRng::seed_from_u64(seed),
        );
        let engines: [Box<dyn HealingEngine>; 3] = [
            Box::new(Xheal::new(&g0, XhealConfig::new(4).with_seed(seed ^ 0xD06))),
            Box::new(StarHeal::new(&g0)),
            Box::new(Dex::new(&g0, DexConfig { seed: seed ^ 0xDE7, ..DexConfig::default() })),
        ];
        for mut net in engines {
            // DEX rebuilds its topology at construction; the monitor and `G'`
            // both start from the engine's graph.
            let monitor = Rc::new(RefCell::new(Monitor::new(net.graph(), MonitorConfig::default())));
            net.subscribe(Box::new(Rc::clone(&monitor)));
            let mut gp = GPrime::new(net.graph());
            let mut adv_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
            let mut next_id = 30_000u64;
            for step in 0..steps {
                let event = next_event(net.graph(), &mut adv_rng, &mut next_id);
                net.apply(&event).map_err(|e| TestCaseError::fail(e.to_string()))?;
                let mut m = monitor.borrow_mut();
                if let Event::Insert { node, neighbors } = &event {
                    gp.record_insert(*node, neighbors)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    m.record_insert(*node, neighbors)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                }
                let g = net.graph();
                // From-scratch recounts.
                let mut degs: Vec<u64> = Vec::new();
                for v in g.nodes() {
                    let d = g.degree(v).unwrap();
                    if d >= degs.len() { degs.resize(d + 1, 0); }
                    degs[d] += 1;
                }
                prop_assert!(
                    m.degrees().buckets() == &degs[..],
                    "{} step {}: degree histogram drift after {:?}", net.name(), step, event
                );
                let expect = degree_increase(g, gp.graph());
                prop_assert!(
                    m.degree_increase().is_some_and(|d| (d - expect).abs() < 1e-12),
                    "{} step {}: degree increase {:?} vs recomputed {}",
                    net.name(), step, m.degree_increase(), expect
                );
            }
        }
    }
}
