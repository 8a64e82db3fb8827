//! Cross-crate arena integration: DEX invariants under arbitrary churn
//! (property tests) and `xheal-bench`'s ten-engine arena end to end, scored
//! by the monitor-backed `MonitorHook` so every engine's delta stream is
//! checked in debug mode and every engine is scored against the tape's `G'`.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use xheal_baselines::StarHeal;
use xheal_bench::arena::{build_engine, dex_degree_cap, run_arena, ArenaSchedule, ENGINES};
use xheal_core::{DeltaMirror, Event, HealingEngine, Outcome, RunObserver};
use xheal_dex::{Dex, DexConfig};
use xheal_graph::{components, generators, Graph, NodeId};
use xheal_metrics::{degree_increase, stretch};
use xheal_monitor::MonitorHook;
use xheal_workload::{replay, run, run_observed, BurstDeletions, RandomChurn, Scripted};

/// Observer asserting DEX's hard invariants after every applied event:
/// the constant-degree cap and connectivity.
struct DexInvariantCheck {
    bound: usize,
}

impl RunObserver for DexInvariantCheck {
    fn on_event(&mut self, step: usize, _: &Event, _: &Outcome, graph: &Graph) {
        for v in graph.node_vec() {
            let d = graph.degree(v).expect("live node");
            assert!(
                d <= self.bound,
                "step {step}: degree {d} of {v} exceeds {}",
                self.bound
            );
        }
        assert!(
            graph.node_count() == 0 || components::is_connected(graph),
            "step {step}: projection disconnected"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed insert/delete churn never breaks DEX's constant-degree bound
    /// or connectivity — checked after *every* event, not just at the end.
    #[test]
    fn dex_bound_and_connectivity_under_churn(
        seed in any::<u64>(),
        n in 8usize..24,
        steps in 10usize..40,
        p_insert in 0.2f64..0.7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(n, 0.2, &mut rng);
        let mut dex = Dex::new(&g0, DexConfig { seed: seed ^ 1, ..DexConfig::default() });
        let bound = dex.degree_bound();
        let mut adv = RandomChurn::new(p_insert, 2, 4, &g0);
        let mut check = DexInvariantCheck { bound };
        run_observed(&mut dex, &mut adv, steps, seed ^ 2, &mut check);
        dex.assert_invariants();
    }

    /// Clustered `DeleteBatch` racks (adjacent victims, whole-rack kills)
    /// respect the same invariants.
    #[test]
    fn dex_survives_batch_racks(
        seed in any::<u64>(),
        n in 14usize..30,
        steps in 8usize..24,
    ) {
        let g0 = generators::ring_with_chords(n);
        let mut dex = Dex::new(&g0, DexConfig { seed: seed ^ 5, ..DexConfig::default() });
        let bound = dex.degree_bound();
        let mut adv = BurstDeletions::new(3, 3, 3, 6, &g0);
        let mut check = DexInvariantCheck { bound };
        run_observed(&mut dex, &mut adv, steps, seed ^ 6, &mut check);
        dex.assert_invariants();
    }

    /// The same event tape replayed onto fresh DEX instances lands on
    /// bit-identical graphs: the engine is deterministic in (seed, tape).
    #[test]
    fn dex_is_deterministic_across_reruns(
        seed in any::<u64>(),
        n in 8usize..20,
        steps in 8usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(n, 0.2, &mut rng);
        let cfg = DexConfig { seed: seed ^ 9, ..DexConfig::default() };
        let mut live = Dex::new(&g0, cfg);
        let mut adv = RandomChurn::new(0.5, 2, 4, &g0);
        let summary = run(&mut live, &mut adv, steps, seed ^ 10);

        let mut a = Dex::new(&g0, cfg);
        let mut b = Dex::new(&g0, cfg);
        replay(&mut a, &summary.events);
        replay(&mut b, &summary.events);
        prop_assert_eq!(a.graph(), b.graph());
        prop_assert_eq!(a.graph(), live.graph());
        prop_assert_eq!(
            a.graph().edge_fingerprint(),
            live.graph().edge_fingerprint()
        );
    }

    /// A `DeltaMirror` fed from DEX's subscription stream reconstructs the
    /// engine graph exactly under mixed churn — the delta stream is
    /// complete and minimal.
    #[test]
    fn dex_delta_stream_rebuilds_the_graph(
        seed in any::<u64>(),
        n in 8usize..20,
        steps in 8usize..30,
        p_insert in 0.2f64..0.7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(n, 0.2, &mut rng);
        let mut dex = Dex::new(&g0, DexConfig { seed: seed ^ 3, ..DexConfig::default() });
        // Mirror the *post-construction* graph: DEX rebuilds its topology,
        // so the subscription baseline is its bootstrap projection.
        let mirror = Rc::new(RefCell::new(DeltaMirror::new(dex.graph())));
        dex.subscribe(Box::new(Rc::clone(&mirror)));
        let mut adv = RandomChurn::new(p_insert, 2, 4, &g0);
        run(&mut dex, &mut adv, steps, seed ^ 4);
        let rebuilt = mirror.borrow();
        prop_assert_eq!(rebuilt.graph(), dex.graph());
    }
}

/// The full ten-engine arena: every cell present, every engine driven
/// through every schedule.
#[test]
fn arena_covers_ten_engines_by_three_schedules() {
    let g0 = generators::ring_with_chords(28);
    let matrix = run_arena(&ArenaSchedule::standard(15), &g0, 11, 0);
    assert!(matrix.is_complete());
    assert_eq!(matrix.cells.len(), 30);
    assert_eq!(matrix.engines().len(), 10);
    assert_eq!(matrix.schedules().len(), 3);
}

/// The monitor-scored arena in debug mode: every engine's delta stream
/// must keep the monitor's delta-fed mirror exactly in sync (the monitor
/// `debug_assert`s drift per event), DEX's cap holds after every event
/// (`run_arena` asserts it), and the scored qualities must be sane: λ₂/λ₃
/// ordered, components ≥ 1, degree caps where promised.
#[test]
fn monitor_scored_arena_is_consistent_for_every_engine() {
    let g0 = generators::ring_with_chords(26);
    let matrix = run_arena(&ArenaSchedule::standard(12), &g0, 23, 8);
    assert!(matrix.is_complete());
    let dex_bound = dex_degree_cap();
    for cell in &matrix.cells {
        let q = &cell.quality;
        assert!(q.components >= 1, "{}/{}", cell.engine, cell.schedule);
        let gap = q.spectral_gap;
        if let Some(l3) = q.lambda3 {
            assert!(
                l3 >= gap - 1e-9,
                "{}/{}: lambda3 {l3} below lambda2 {gap}",
                cell.engine,
                cell.schedule
            );
        }
        if cell.engine == "dex" {
            assert!(q.max_degree <= dex_bound);
        }
    }
}

/// Every engine on every standard schedule is scored against the tape's
/// `G'`: the arena's degree increase equals the recount against
/// `RunSummary::gprime`, and its stretch is the exact all-pairs stretch
/// against it. Engines that install black repair edges, and DEX, which
/// colours every edge, are no exception. The scorer only observes, so an
/// unscored rerun of each cell ends on the cell's graph.
#[test]
fn every_engine_is_scored_against_the_tape_gprime() {
    let g0 = generators::ring_with_chords(26);
    let schedules = ArenaSchedule::standard(12);
    let matrix = run_arena(&schedules, &g0, 23, 8);
    for sched in &schedules {
        for key in ENGINES {
            let ctx = format!("{key}/{}", sched.name);
            let cell = matrix.cell(key, sched.name).expect("complete");
            let mut engine = build_engine(key, &g0, 23);
            let mut adversary = sched.adversary(&g0);
            let summary = run(
                engine.as_mut(),
                adversary.as_mut(),
                sched.steps,
                sched.seed(23),
            );
            let (graph, tape) = (engine.graph(), summary.gprime.graph());
            assert_eq!(
                (cell.nodes, cell.edges),
                (graph.node_count(), graph.edge_count()),
                "{ctx}"
            );
            let want = degree_increase(graph, tape);
            let got = cell.quality.degree_increase;
            assert!(
                got.is_some_and(|d| (d - want).abs() < 1e-12),
                "{ctx}: monitor {got:?} vs tape {want}"
            );
            assert_eq!(
                cell.quality.stretch,
                stretch(graph, tape, graph.node_count(), 0),
                "{ctx}"
            );
        }
    }
}

/// star-heal patches a deleted hub with black edges. None of them may
/// enter the monitor's `G'`, which must hold the tape's nodes and edges
/// exactly.
#[test]
fn star_heal_repair_edges_stay_out_of_gprime() {
    let n = NodeId::new;
    let g0 = generators::star(12);
    let mut engine = StarHeal::new(&g0);
    let mut hook = MonitorHook::scorer(engine.graph(), 0);
    engine.subscribe(Box::new(Rc::clone(hook.monitor())));
    let mut tape = Scripted::new(vec![
        Event::Insert {
            node: n(12),
            neighbors: vec![n(3)],
        },
        Event::Delete { node: n(0) },
    ]);
    let summary = run_observed(&mut engine, &mut tape, 2, 0, &mut hook);
    let monitor = hook.monitor().borrow();
    let (mine, tape) = (monitor.gprime().graph(), summary.gprime.graph());
    let edges = |g: &Graph| {
        let mut e: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        e.sort_unstable();
        e
    };
    assert_eq!(mine.node_vec(), tape.node_vec());
    assert_eq!(edges(mine), edges(tape));
    let repairs: Vec<(NodeId, NodeId)> = edges(engine.graph())
        .into_iter()
        .filter(|&(u, v)| !tape.has_edge(u, v))
        .collect();
    assert!(!repairs.is_empty(), "star-heal repaired the hub");
    assert!(repairs.iter().all(|&(u, v)| !mine.has_edge(u, v)));
    assert_eq!(
        monitor.degree_increase(),
        Some(degree_increase(engine.graph(), tape))
    );
}
