//! The grouped plan-application path's equivalence proof.
//!
//! `RepairPlan::apply_streamed_with` accumulates a whole plan's edge
//! mutations and flushes them through `Graph::apply_delta` — one validated
//! batch per plan, or sequence-ordered chunks once a plan outgrows the
//! accumulation cap. These tests pin that path **bit-identical** — same
//! topology fingerprint, same [`TopologyDelta`] stream, same order — to the
//! sequential per-edge reference ([`PlanAction::apply_streamed`], one
//! strip/add per edge), at the plan level, across chunk boundaries, and end
//! to end on all three Xheal executors under mixed insert/delete/batch
//! churn, including recolor (a color joining an existing edge) and
//! label-strip (dissolve) cases.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_core::{
    ApplyScratch, BatchVictim, DeltaMirror, Event, HealingEngine, RepairPlanner, SinkRegistry,
    TopologyDelta, TopologySink, Xheal, XhealConfig,
};
use xheal_dist::{DistXheal, Msg};
use xheal_graph::{generators, EdgeLabels, NodeId};
use xheal_sim::{AsyncConfig, AsyncNetwork};

/// A sink that records the raw delta stream, flattening batched emissions
/// in order — so grouped and per-delta feeds are directly comparable — and
/// counts the batched emissions (one per flush).
#[derive(Debug, Default)]
struct RecordingSink(Vec<TopologyDelta>, usize);

impl TopologySink for RecordingSink {
    fn on_delta(&mut self, delta: &TopologyDelta) {
        self.0.push(*delta);
    }

    fn on_deltas(&mut self, deltas: &[TopologyDelta]) {
        self.1 += 1;
        self.0.extend_from_slice(deltas);
    }
}

fn recording_registry() -> (SinkRegistry, Rc<RefCell<RecordingSink>>) {
    let rec = Rc::new(RefCell::new(RecordingSink::default()));
    let mut sinks = SinkRegistry::default();
    sinks.register(Box::new(Rc::clone(&rec)));
    (sinks, rec)
}

// ----------------------------------------------------------------------
// Plan-level equivalence: one planner, two graphs, two application paths.
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every plan a real churn run produces is applied twice — grouped
    /// through `apply_streamed_with` and action by action through the
    /// sequential `PlanAction::apply_streamed` reference — and both the
    /// graphs and the emitted delta streams must agree exactly after every
    /// event. Plans here exercise recolors (PatchCloud/ExtendCloud splice
    /// colors onto surviving edges) and label strips (DissolveCloud).
    #[test]
    fn grouped_plan_application_matches_sequential_reference(
        seed in any::<u64>(),
        n in 14usize..30,
        steps in 10usize..40,
    ) {
        let g0 = generators::connected_erdos_renyi(
            n,
            0.15,
            &mut StdRng::seed_from_u64(seed),
        );
        let mut planner = RepairPlanner::new(g0.nodes(), XhealConfig::new(4).with_seed(seed ^ 0xA11));
        let mut grouped_g = g0.clone();
        let mut seq_g = g0;
        let (mut grouped_sinks, grouped_rec) = recording_registry();
        let (mut seq_sinks, seq_rec) = recording_registry();
        let mut scratch = ApplyScratch::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut incident: Vec<(NodeId, EdgeLabels)> = Vec::new();

        for step in 0..steps {
            let nodes = grouped_g.node_vec();
            if nodes.len() <= 4 {
                break;
            }
            if rng.random_range(0..4u32) == 0 {
                // Batch deletion: the staged plan flushes prologue +
                // component stages as one grouped batch.
                let mut victims: Vec<NodeId> = Vec::new();
                for _ in 0..rng.random_range(2..=3usize) {
                    let v = nodes[rng.random_range(0..nodes.len())];
                    if !victims.contains(&v) {
                        victims.push(v);
                    }
                }
                let ctx = BatchVictim::capture(&grouped_g, &victims).unwrap();
                for bv in &ctx {
                    grouped_g.remove_node(bv.node).unwrap();
                    seq_g.remove_node(bv.node).unwrap();
                }
                let plan = planner.plan_batch_deletion(&ctx);
                plan.apply_streamed_with(&mut grouped_g, &mut grouped_sinks, &mut scratch);
                for action in plan.actions() {
                    action.apply_streamed(&mut seq_g, &mut seq_sinks);
                }
            } else {
                let v = nodes[rng.random_range(0..nodes.len())];
                let degree = grouped_g.degree(v).unwrap();
                incident.clear();
                grouped_g.remove_node_into(v, &mut incident).unwrap();
                seq_g.remove_node(v).unwrap();
                let plan = planner.plan_deletion(v, &incident, degree);
                plan.apply_streamed_with(&mut grouped_g, &mut grouped_sinks, &mut scratch);
                for action in &plan.actions {
                    action.apply_streamed(&mut seq_g, &mut seq_sinks);
                }
            }
            prop_assert!(grouped_g.validate().is_ok(), "step {step}: {:?}", grouped_g.validate());
            prop_assert!(
                grouped_g.edge_fingerprint() == seq_g.edge_fingerprint(),
                "step {step}: topology fingerprints diverged"
            );
            let same = grouped_g == seq_g;
            prop_assert!(same, "step {step}: graphs diverged");
            {
                let a = grouped_rec.borrow();
                let b = seq_rec.borrow();
                prop_assert!(a.0 == b.0, "step {step}: delta streams diverged");
            }
        }
    }
}

// ----------------------------------------------------------------------
// Executor-level equivalence: the grouped path is live in every engine;
// mirrors replay its stream, and all three engines must stay
// fingerprint-identical on one schedule.
// ----------------------------------------------------------------------

/// One adversary move, always valid against the current graph: mixed
/// inserts, single deletions, and multi-victim batches.
fn next_event(engine: &dyn HealingEngine, rng: &mut StdRng, next_id: &mut u64) -> Event {
    let nodes = engine.graph().node_vec();
    let roll = rng.random_range(0..4u32);
    if nodes.len() < 8 || roll == 0 {
        let node = NodeId::new(*next_id);
        *next_id += 1;
        let mut neighbors = Vec::new();
        for _ in 0..rng.random_range(1..=2usize.min(nodes.len())) {
            let u = nodes[rng.random_range(0..nodes.len())];
            if !neighbors.contains(&u) {
                neighbors.push(u);
            }
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// All three executors (centralized, distributed at zero latency,
    /// distributed under latency) run one schedule through their grouped apply
    /// paths: each engine's [`DeltaMirror`] must reconstruct its graph
    /// after every event, and the three engines' fingerprints must agree
    /// with each other at every step.
    #[test]
    fn all_executors_stay_bit_identical_under_grouped_apply(
        seed in any::<u64>(),
        n in 12usize..26,
        steps in 8usize..24,
    ) {
        let g0 = generators::connected_erdos_renyi(
            n,
            0.15,
            &mut StdRng::seed_from_u64(seed),
        );
        let cfg = XhealConfig::new(4).with_seed(seed ^ 0x9E37);

        type MirroredEngine = (Box<dyn HealingEngine>, Rc<RefCell<DeltaMirror>>);
        let mut engines: Vec<MirroredEngine> = (0..3usize)
            .map(|kind| {
                let mirror = Rc::new(RefCell::new(DeltaMirror::new(&g0)));
                let sink = Box::new(Rc::clone(&mirror));
                let engine: Box<dyn HealingEngine> = match kind {
                    0 => Box::new(Xheal::builder().config(cfg.clone()).sink(sink).build(&g0)),
                    1 => Box::new(DistXheal::builder().config(cfg.clone()).sink(sink).build(&g0)),
                    _ => Box::new(
                        DistXheal::builder()
                            .config(cfg.clone())
                            .sink(sink)
                            .engine(AsyncNetwork::<Msg>::new(
                                AsyncConfig::uniform(1, 3, 29).with_jitter(1),
                            ))
                            .build(&g0),
                    ),
                };
                (engine, mirror)
            })
            .collect();

        let mut adv_rng = StdRng::seed_from_u64(seed ^ 0xFEED);
        let mut next_id = 50_000u64;
        for step in 0..steps {
            // The event depends only on the (identical) graph state.
            let event = next_event(engines[0].0.as_ref(), &mut adv_rng, &mut next_id);
            let mut prints = Vec::with_capacity(3);
            for (engine, mirror) in &mut engines {
                engine
                    .apply(&event)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", engine.name())))?;
                let matches = engine.graph() == mirror.borrow().graph();
                prop_assert!(
                    matches,
                    "{} step {}: mirror diverged after {:?}",
                    engine.name(),
                    step,
                    event
                );
                prints.push(engine.graph().edge_fingerprint());
            }
            prop_assert!(
                prints.windows(2).all(|w| w[0] == w[1]),
                "step {}: executor fingerprints diverged: {:?}",
                step,
                prints
            );
        }
    }
}

/// A deterministic recolor/strip scenario flushed as one grouped batch: a
/// plan that colors existing black edges (recolor), colors fresh pairs
/// (create), then strips one of each (survive vs. die) — against the
/// hand-computed outcome and the sequential reference.
#[test]
fn recolor_and_strip_flush_matches_reference() {
    use xheal_core::PlanAction;
    use xheal_expander::EdgeDelta;
    use xheal_graph::CloudColor;

    let n = NodeId::new;
    let g0 = generators::cycle(6); // black edges (i, i+1 mod 6)
    let c = CloudColor::new(9);
    let actions = [
        // Recolor two existing black edges and create one chord.
        PlanAction::BuildCloud {
            color: c,
            kind: xheal_graph::CloudKind::Primary,
            members: vec![n(0), n(1), n(2), n(3)],
            delta: EdgeDelta {
                added: vec![(n(0), n(1)), (n(2), n(3)), (n(0), n(3))],
                removed: vec![],
            },
        },
        // Strip the color back off one recolored edge (black survives)
        // and off the chord (edge dies).
        PlanAction::PatchCloud {
            color: c,
            removed: vec![],
            delta: EdgeDelta {
                added: vec![],
                removed: vec![(n(0), n(1)), (n(0), n(3))],
            },
        },
    ];

    let mut grouped_g = g0.clone();
    let mut seq_g = g0;
    let (mut grouped_sinks, grouped_rec) = recording_registry();
    let (mut seq_sinks, seq_rec) = recording_registry();
    let plan = xheal_core::RepairPlan {
        actions: actions.to_vec(),
        report: xheal_core::DeletionReport {
            case: xheal_core::HealCase::AllBlack,
            edges_added: 3,
            edges_removed: 2,
            combined: false,
            shares: 0,
            black_degree: 0,
            degree: 0,
        },
    };
    plan.apply_streamed_with(
        &mut grouped_g,
        &mut grouped_sinks,
        &mut ApplyScratch::default(),
    );
    for action in &actions {
        action.apply_streamed(&mut seq_g, &mut seq_sinks);
    }

    assert_eq!(grouped_rec.borrow().0, seq_rec.borrow().0);
    assert_eq!(grouped_g.edge_fingerprint(), seq_g.edge_fingerprint());
    assert!(grouped_g == seq_g);
    grouped_g.validate().unwrap();
    // Hand-computed: (0,1) black only again, (2,3) black + c, (0,3) gone.
    let l01 = grouped_g.edge_labels(n(0), n(1)).unwrap();
    assert!(l01.is_black() && l01.colors().is_empty());
    let l23 = grouped_g.edge_labels(n(2), n(3)).unwrap();
    assert!(l23.is_black() && l23.colors() == [c]);
    assert!(grouped_g.edge_labels(n(0), n(3)).is_none());
}

/// A plan far past the flush cap (4096 mutations) over a dense cloud
/// overlay: several actions each add or strip thousands of colored edges,
/// re-adding and stripping the same (pair, color) across chunk
/// boundaries, recoloring black edges, and dissolving a cloud. The chunked
/// grouped flush must match per-action application exactly — graph and
/// delta stream — and must really have split into several flushes.
#[test]
fn chunked_flush_matches_per_action_reference() {
    use xheal_core::PlanAction;
    use xheal_expander::EdgeDelta;
    use xheal_graph::{CloudColor, CloudKind};

    let n = 120u64;
    let g0 = generators::cycle(n as usize);
    let pairs = |k: u64| -> Vec<(NodeId, NodeId)> {
        (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&(i, j)| (i + j + k) % 3 == 0)
            .map(|(i, j)| (NodeId::new(i), NodeId::new(j)))
            .collect()
    };
    let members: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let mut actions = Vec::new();
    for k in 0..4u64 {
        actions.push(PlanAction::BuildCloud {
            color: CloudColor::new(k),
            kind: CloudKind::Primary,
            members: members.clone(),
            delta: EdgeDelta {
                added: pairs(k),
                removed: vec![],
            },
        });
    }
    // Strip every other edge of cloud 0 and re-add a third of them; strip
    // cloud 1 entirely; then rebuild cloud 1 on cloud 2's pairs.
    let p0 = pairs(0);
    actions.push(PlanAction::PatchCloud {
        color: CloudColor::new(0),
        removed: vec![],
        delta: EdgeDelta {
            added: p0.iter().copied().step_by(3).collect(),
            removed: p0.iter().copied().step_by(2).collect(),
        },
    });
    actions.push(PlanAction::DissolveCloud {
        color: CloudColor::new(1),
        delta: EdgeDelta {
            added: vec![],
            removed: pairs(1),
        },
    });
    actions.push(PlanAction::ExtendCloud {
        color: CloudColor::new(1),
        node: NodeId::new(0),
        shared: false,
        delta: EdgeDelta {
            added: pairs(2),
            removed: vec![],
        },
    });
    let mutations: usize = actions
        .iter()
        .map(|a| a.delta().added.len() + a.delta().removed.len())
        .sum();
    assert!(mutations > 3 * 4096, "plan must span several flushes");

    let plan = xheal_core::RepairPlan {
        actions: actions.clone(),
        report: xheal_core::DeletionReport {
            case: xheal_core::HealCase::AllBlack,
            edges_added: 0,
            edges_removed: 0,
            combined: false,
            shares: 0,
            black_degree: 0,
            degree: 0,
        },
    };
    let mut grouped_g = g0.clone();
    let mut seq_g = g0;
    let (mut grouped_sinks, grouped_rec) = recording_registry();
    let (mut seq_sinks, seq_rec) = recording_registry();
    plan.apply_streamed_with(
        &mut grouped_g,
        &mut grouped_sinks,
        &mut ApplyScratch::default(),
    );
    for action in &actions {
        action.apply_streamed(&mut seq_g, &mut seq_sinks);
    }

    grouped_g.validate().unwrap();
    assert!(grouped_g == seq_g, "chunked flush diverged from per-action");
    assert_eq!(grouped_g.edge_fingerprint(), seq_g.edge_fingerprint());
    let (grouped, seq) = (grouped_rec.borrow(), seq_rec.borrow());
    assert_eq!(grouped.0.len(), mutations);
    assert!(grouped.0 == seq.0, "delta streams diverged");
    assert!(
        grouped.1 >= 3,
        "only {} flushes for {mutations} mutations",
        grouped.1
    );
    // Spot checks: a cycle edge kept black under a stripped color, and
    // cloud 1's edges exist only where the rebuild placed them.
    assert!(grouped_g
        .edge_labels(NodeId::new(0), NodeId::new(1))
        .unwrap()
        .is_black());
    let c1 = CloudColor::new(1);
    assert!(grouped_g
        .edges()
        .filter(|(_, _, l)| l.has_color(c1))
        .all(|(u, v, _)| (u.as_u64() + v.as_u64() + 2) % 3 == 0));
}
