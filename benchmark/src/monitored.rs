//! `monitored-dist`: the monitor mix through the distributed actor protocol
//! over the calendar-queue transport, with a `Monitor` subscribed, the
//! policy evaluated after every event and a checkpoint every `every` events.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use xheal_core::{Event, HealingEngine, TopologyDelta, TopologySink, XhealConfig};
use xheal_dist::{DistXheal, Msg};
use xheal_graph::Graph;
use xheal_monitor::{component_count, Monitor, MonitorConfig, SpectralGapTracker};
use xheal_sim::{AsyncConfig, AsyncNetwork};
use xheal_spectral::sweep_cut_csr;

use crate::inputs::{self, Rng};
use crate::measure::{median, secs, Probe, Span, Traced};
use crate::quality;
use crate::report::Report;
use crate::{passes, report_timing, Config, Timing};

const KAPPA: usize = 4;
const PLANNER_SEED: u64 = 7;

type Net = DistXheal<AsyncNetwork<Msg>>;

fn build(g0: &Graph, link_seed: u64, sink: Box<dyn TopologySink>) -> Net {
    DistXheal::builder()
        .config(XhealConfig::new(KAPPA).with_seed(PLANNER_SEED))
        .engine(AsyncNetwork::<Msg>::new(AsyncConfig::uniform(
            1, 3, link_seed,
        )))
        .sink(sink)
        .build(g0)
}

/// Buffers one event's deltas so the monitor's ingest is timed apart from
/// the protocol.
#[derive(Default)]
struct Recorder {
    deltas: Vec<TopologyDelta>,
}

impl TopologySink for Recorder {
    fn on_delta(&mut self, delta: &TopologyDelta) {
        self.deltas.push(*delta);
    }

    fn on_deltas(&mut self, deltas: &[TopologyDelta]) {
        self.deltas.extend_from_slice(deltas);
    }
}

/// One measured pass.
struct Pass {
    timing: Timing,
    checkpoint_ms: Vec<f64>,
    lambdas: Vec<f64>,
    /// Checkpoints whose monitor counts disagreed with the engine graph.
    drifted: usize,
    /// Checkpoints that saw more than one component.
    split: usize,
    errors: u64,
    victims: u64,
    edge_ops: u64,
    fingerprint: u64,
}

fn pass(net: &mut Net, monitor: &RefCell<Monitor>, tape: &[Event], every: usize) -> Pass {
    let mut p = Pass {
        timing: Timing::default(),
        checkpoint_ms: Vec::new(),
        lambdas: Vec::new(),
        drifted: 0,
        split: 0,
        errors: 0,
        victims: 0,
        edge_ops: 0,
        fingerprint: 0,
    };
    let t0 = Instant::now();
    for (i, event) in tape.iter().enumerate() {
        let t = Instant::now();
        let outcome = net.apply(event);
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
        let mut m = monitor.borrow_mut();
        m.evaluate_policy();
        if (i + 1) % every == 0 {
            let t = Instant::now();
            let report = m.checkpoint();
            p.checkpoint_ms.push(secs(t) * 1e3);
            p.lambdas.push(report.spectral_gap.lambda);
            let g = net.graph();
            p.drifted +=
                usize::from((report.nodes, report.edges) != (g.node_count(), g.edge_count()));
            p.split += usize::from(report.components != 1);
        }
    }
    p.timing.wall_s = secs(t0);
    p.fingerprint = net.graph().edge_fingerprint();
    p
}

/// The pass again with a recording sink in place of the monitor: each call
/// into the protocol, the monitor and the spectral code is its own span, and
/// each checkpoint runs as its parts (snapshot, components, warm gap, sweep
/// cut). Returns the pass wall, the gaps, and the deltas per event.
fn traced_pass(
    g0: &Graph,
    link_seed: u64,
    tape: &[Event],
    every: usize,
    probe: &mut Traced,
) -> (f64, Vec<f64>, f64, bool) {
    let recorder = Rc::new(RefCell::new(Recorder::default()));
    let mut net = build(g0, link_seed, Box::new(Rc::clone(&recorder)));
    let mut monitor = Monitor::new(g0, MonitorConfig::default());
    let mut tracker = SpectralGapTracker::new();
    let (mut lambdas, mut deltas_seen, mut consistent) = (Vec::new(), 0usize, true);
    let mut deltas = Vec::new();
    let t0 = Instant::now();
    probe.start();
    for (i, event) in tape.iter().enumerate() {
        let ok = probe.time(Span::Dist, || net.apply(event).is_ok());
        probe.time(Span::Harness, || {
            std::mem::swap(&mut deltas, &mut recorder.borrow_mut().deltas);
        });
        deltas_seen += deltas.len();
        probe.time(Span::MonitorIngest, || {
            monitor.on_deltas(&deltas);
            deltas.clear();
        });
        probe.time(Span::MonitorPolicy, || monitor.evaluate_policy());
        if (i + 1) % every == 0 {
            let view = probe.time(Span::MonitorSnapshot, || monitor.csr().snapshot());
            let comps = probe.time(Span::MonitorComponents, || component_count(&view));
            let gap = probe.time(Span::SpectralGap, || tracker.estimate(&view));
            let sweep = probe.time(Span::SpectralSweep, || sweep_cut_csr(&view));
            std::hint::black_box(sweep);
            lambdas.push(gap.lambda);
            let g = net.graph();
            consistent &= comps == 1
                && (monitor.node_count(), monitor.edge_count()) == (g.node_count(), g.edge_count());
        }
        consistent &= ok;
    }
    let wall = secs(t0);
    probe.stop();
    (
        wall,
        lambdas,
        deltas_seen as f64 / tape.len() as f64,
        consistent,
    )
}

/// `monitored-dist` at full or smoke size.
pub fn monitored(cfg: &Config) -> Report {
    let (n, events, every) = if cfg.smoke {
        (400, 400, 100)
    } else {
        (2_000, 4_000, 200)
    };
    let t = Instant::now();
    let top = inputs::ring_with_chords(n, &mut Rng::stream(cfg.seed, "monitored.graph"));
    let tape = inputs::monitored_tape(n, events, &mut Rng::stream(cfg.seed, "monitored.tape"));
    let link_seed = Rng::stream(cfg.seed, "monitored.links").next_u64();
    let g0 = top.graph();
    let gen_s = secs(t);
    let fingerprint = inputs::fingerprint(&top, &tape, &[]) ^ link_seed;
    drop(top);

    let mut r = Report::default();
    let setup = || {
        let monitor = Rc::new(RefCell::new(Monitor::new(&g0, MonitorConfig::default())));
        let net = build(&g0, link_seed, Box::new(Rc::clone(&monitor)));
        (net, monitor)
    };
    let (passes, setups) = passes(cfg, setup, |(mut net, monitor), i| {
        let p = pass(&mut net, &monitor, &tape, every);
        if i == 0 {
            let victims = p.victims as f64;
            let c = net.counters();
            r.set(
                "dist.rounds_per_repair",
                c.rounds as f64 / victims,
                "first pass",
            );
            r.set(
                "dist.msgs_per_repair",
                c.messages as f64 / victims,
                "first pass",
            );
            let (labels, counts) = net.message_breakdown();
            for (label, &count) in labels.iter().zip(counts) {
                let name = match *label {
                    "probe" => "dist.msgs.probe",
                    "grant" => "dist.msgs.grant",
                    "link" => "dist.msgs.link",
                    "unlink" => "dist.msgs.unlink",
                    "splice" => "dist.msgs.splice",
                    "splice_ack" => "dist.msgs.splice_ack",
                    _ => continue,
                };
                r.set(name, count as f64, "first pass");
            }
            if !cfg.trace {
                quality::report(&mut r, net.graph(), &inputs::gprime(&g0, &tape), cfg.seed);
            }
        }
        p
    });

    let first = &passes[0];
    r.attempted = passes.iter().map(|p| p.timing.events() as u64).sum();
    r.failed = passes.iter().map(|p| p.errors).sum();
    r.check(
        "no apply returns Err",
        r.failed == 0,
        format!("{} errors", r.failed),
    );
    r.check(
        "monitor matches engine at every checkpoint",
        passes.iter().all(|p| p.drifted == 0),
        format!("{} checkpoints per pass", first.checkpoint_ms.len()),
    );
    r.check(
        "connected at every checkpoint",
        passes.iter().all(|p| p.split == 0),
        format!("{} checkpoints per pass", first.checkpoint_ms.len()),
    );
    r.check(
        "passes agree",
        passes
            .iter()
            .all(|p| p.fingerprint == first.fingerprint && p.lambdas == first.lambdas),
        format!(
            "{} passes, edge fingerprint {:#018x}",
            passes.len(),
            first.fingerprint
        ),
    );
    let mut checkpoints: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.checkpoint_ms.iter().copied())
        .collect();
    r.note(format!(
        "  monitored: checkpoint p50 {:.3} ms over {} checkpoints",
        median(&mut checkpoints),
        checkpoints.len()
    ));
    let mut walls: Vec<f64> = passes.iter().map(|p| p.timing.wall_s).collect();
    let untraced_wall = median(&mut walls);
    report_timing(&mut r, passes.iter().map(|p| &p.timing), setups);
    r.set(
        "spectral.lambda2_min",
        first.lambdas.iter().copied().fold(f64::INFINITY, f64::min),
        format!("min over {} checkpoints", first.lambdas.len()),
    );
    r.set(
        "edge_ops_per_repair",
        first.edge_ops as f64 / first.victims as f64,
        format!("{} victims", first.victims),
    );
    r.set("harness.gen_s", gen_s, "input and tape generation");

    if cfg.trace {
        let mut probe = Traced::new(16 * tape.len() + 64);
        let (wall, lambdas, deltas, consistent) =
            traced_pass(&g0, link_seed, &tape, every, &mut probe);
        r.check(
            "traced pass consistent",
            consistent,
            "counts, components, apply",
        );
        r.check(
            "traced gaps match checkpoints",
            lambdas.len() == first.lambdas.len()
                && lambdas
                    .iter()
                    .zip(&first.lambdas)
                    .all(|(a, b)| (a - b).abs() < 1e-9),
            format!("{} checkpoints", lambdas.len()),
        );
        r.set(
            "monitor.deltas_per_event",
            deltas,
            format!("{} events", tape.len()),
        );
        r.set(
            "trace.overhead",
            wall / untraced_wall - 1.0,
            "traced vs untraced pass",
        );
        r.layers(probe.finish(&cfg.timer), cfg);
    }
    r.fingerprint = fingerprint;
    r
}
