//! `churn` and `rack-outage`: a tape of adversary events through the
//! central `Xheal` executor with no sinks, and its traced replay through the
//! layers' public functions.

use std::time::Instant;

use xheal_core::{
    ApplyScratch, BatchVictim, Event, HealingEngine, ParallelXheal, RepairPlanner, SinkRegistry,
    Xheal, XhealConfig,
};
use xheal_graph::Graph;

use crate::inputs::{self, Rng};
use crate::measure::{median, secs, Off, Probe, Span, Traced};
use crate::quality;
use crate::report::Report;
use crate::{passes, report_timing, Config, Timing};

const KAPPA: usize = 6;
const PLANNER_SEED: u64 = 11;
/// Victims per `rack-outage` batch.
const RACK: usize = 64;

fn config() -> XhealConfig {
    XhealConfig::new(KAPPA).with_seed(PLANNER_SEED)
}

/// `churn`: a random 6-regular graph under half inserts, half deletions.
pub fn churn(cfg: &Config) -> Report {
    let (n, events) = if cfg.smoke {
        (400, 1_600)
    } else {
        (5_000, 20_000)
    };
    let t = Instant::now();
    let top = inputs::random_regular(n, 6, &mut Rng::stream(cfg.seed, "churn.graph"));
    let tape = inputs::churn_tape(n, events, &mut Rng::stream(cfg.seed, "churn.tape"));
    let g0 = top.graph();
    let gen_s = secs(t);
    let fingerprint = inputs::fingerprint(&top, &tape, &[]);
    central(cfg, &g0, &tape, gen_s, fingerprint, false)
}

/// `rack-outage`: a random 6-regular graph under alternating rack and
/// scattered 64-victim batch deletions.
pub fn rack(cfg: &Config) -> Report {
    let (n, batches) = if cfg.smoke {
        (2_000, 20)
    } else {
        (150_000, 150)
    };
    let t = Instant::now();
    let top = inputs::random_regular(n, 6, &mut Rng::stream(cfg.seed, "rack.graph"));
    let tape = inputs::rack_tape(&top, batches, RACK, &mut Rng::stream(cfg.seed, "rack.tape"));
    let g0 = top.graph();
    let gen_s = secs(t);
    let fingerprint = inputs::fingerprint(&top, &tape, &[]);
    drop(top);
    central(cfg, &g0, &tape, gen_s, fingerprint, true)
}

/// One measured pass of an engine over the tape.
struct Pass {
    timing: Timing,
    errors: u64,
    victims: u64,
    edge_ops: u64,
    fingerprint: u64,
}

fn pass(engine: &mut dyn HealingEngine, tape: &[Event]) -> Pass {
    let mut p = Pass {
        timing: Timing::default(),
        errors: 0,
        victims: 0,
        edge_ops: 0,
        fingerprint: 0,
    };
    let t0 = Instant::now();
    for event in tape {
        let t = Instant::now();
        let outcome = engine.apply(event);
        let dt = secs(t);
        match outcome {
            Ok(o) => {
                p.victims += o.victims() as u64;
                p.edge_ops += (o.edges_added() + o.edges_removed()) as u64;
                p.timing.record(dt, o.victims() > 0);
            }
            Err(_) => {
                p.errors += 1;
                p.timing.record(dt, false);
            }
        }
    }
    p.timing.wall_s = secs(t0);
    p.fingerprint = engine.graph().edge_fingerprint();
    p
}

/// The tape replayed through the layers' public functions — exactly what
/// `Xheal::apply` does, one span per call into a layer.
fn replay(g0: &Graph, tape: &[Event], probe: &mut impl Probe) -> (Graph, f64) {
    let mut graph = g0.clone();
    let mut planner = RepairPlanner::new(g0.nodes(), config());
    let mut sinks = SinkRegistry::default();
    let mut scratch = ApplyScratch::default();
    let mut incident = Vec::new();
    let t0 = Instant::now();
    probe.start();
    for event in tape {
        match event {
            Event::Insert { node, neighbors } => {
                probe.time(Span::GraphInsert, || {
                    graph.add_node(*node).expect("tape ids are fresh");
                    for &u in neighbors {
                        graph.add_black_edge(*node, u).expect("contacts are live");
                    }
                });
                probe.time(Span::Planner, || planner.note_insert(*node));
            }
            Event::Delete { node } => {
                let degree = probe.time(Span::GraphRemove, || {
                    let degree = graph.degree(*node).expect("victim is live");
                    incident.clear();
                    graph
                        .remove_node_into(*node, &mut incident)
                        .expect("victim is live");
                    degree
                });
                let plan = probe.time(Span::Planner, || {
                    planner.plan_deletion(*node, &incident, degree)
                });
                probe.time(Span::GraphApply, || {
                    plan.apply_streamed_with(&mut graph, &mut sinks, &mut scratch);
                    drop(plan);
                });
            }
            Event::DeleteBatch { nodes } => {
                let ctx = probe.time(Span::GraphCapture, || {
                    BatchVictim::capture(&graph, nodes).expect("victims are live")
                });
                probe.time(Span::GraphRemove, || {
                    for bv in &ctx {
                        graph.remove_node(bv.node).expect("victim is live");
                    }
                });
                let plan = probe.time(Span::Planner, || planner.plan_batch_deletion(&ctx));
                probe.time(Span::GraphApply, || {
                    plan.apply_streamed_with(&mut graph, &mut sinks, &mut scratch);
                    drop(plan);
                    drop(ctx);
                });
            }
        }
    }
    let wall = secs(t0);
    probe.stop();
    (graph, wall)
}

fn central(
    cfg: &Config,
    g0: &Graph,
    tape: &[Event],
    gen_s: f64,
    fingerprint: u64,
    par: bool,
) -> Report {
    let mut r = Report::default();
    let (passes, setups) = passes(
        cfg,
        || Xheal::new(g0, config()),
        |mut engine, i| {
            let p = pass(&mut engine, tape);
            if i == 0 {
                r.set(
                    "planner.combines",
                    engine.stats().combines as f64,
                    "first pass",
                );
                if !cfg.trace {
                    quality::report(&mut r, engine.graph(), &inputs::gprime(g0, tape), cfg.seed);
                }
            }
            p
        },
    );
    let first = &passes[0];
    r.attempted = passes.iter().map(|p| p.timing.events() as u64).sum();
    r.failed = passes.iter().map(|p| p.errors).sum();
    r.check(
        "no apply returns Err",
        r.failed == 0,
        format!("{} errors", r.failed),
    );
    r.check(
        "passes agree",
        passes.iter().all(|p| p.fingerprint == first.fingerprint),
        format!(
            "{} passes, edge fingerprint {:#018x}",
            passes.len(),
            first.fingerprint
        ),
    );
    report_timing(&mut r, passes.iter().map(|p| &p.timing), setups);
    r.set(
        "edge_ops_per_repair",
        first.edge_ops as f64 / first.victims as f64,
        format!("{} victims", first.victims),
    );
    r.set("harness.gen_s", gen_s, "input and tape generation");

    if cfg.trace {
        let mut walls: Vec<f64> = passes.iter().map(|p| p.timing.wall_s).collect();
        let untraced_wall = median(&mut walls);
        let (untraced, replay_wall) = replay(g0, tape, &mut Off);
        let comps = quality::components(&untraced.csr_view());
        r.check("components == 1", comps == 1, format!("{comps}"));
        drop(untraced);
        let mut probe = Traced::new(8 * tape.len() + 64);
        let (traced, traced_wall) = replay(g0, tape, &mut probe);
        r.check(
            "traced replay matches",
            traced.edge_fingerprint() == first.fingerprint,
            format!("{:#018x}", traced.edge_fingerprint()),
        );
        drop(traced);
        r.set(
            "executor.overhead_share",
            1.0 - replay_wall / untraced_wall,
            "untraced replay vs Xheal::apply, pass wall",
        );
        r.set(
            "trace.overhead",
            traced_wall / replay_wall - 1.0,
            "traced vs untraced replay",
        );
        r.layers(probe.finish(&cfg.timer), cfg);
        if par {
            let threads = cfg.nproc.clamp(1, 2);
            let mut engine = ParallelXheal::new(g0, config(), threads);
            let p = pass(&mut engine, tape);
            r.check(
                "parallel matches sequential",
                p.fingerprint == first.fingerprint && p.errors == 0,
                format!("{threads} threads, {:#018x}", p.fingerprint),
            );
            let mut seq: Vec<f64> = passes.iter().map(|p| p.timing.apply_s()).collect();
            r.set(
                "shard.par_speedup",
                median(&mut seq) / p.timing.apply_s(),
                format!("ParallelXheal at {threads} threads vs Xheal, apply time"),
            );
        }
    }
    r.fingerprint = fingerprint;
    r
}
