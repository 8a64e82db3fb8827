//! Timing: the probe that records layer spans in traced runs, sample
//! summaries, and the host facts printed with every result.

use std::time::Instant;

use xheal_trace::{Layer, Tracer};

/// A timed call into one layer, named `<layer>.<what>` after the module it
/// enters. The traced run records one span per call; a layer's share is the
/// summed duration of its spans over the traced pass wall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `RepairPlanner` (`plan_deletion`, `plan_batch_deletion`, `note_insert`).
    Planner,
    /// `Graph::add_node` / `add_black_edge` for an inserted node.
    GraphInsert,
    /// `Graph::remove_node_into` / `remove_node`.
    GraphRemove,
    /// `BatchVictim::capture`.
    GraphCapture,
    /// `apply_streamed_with` (`Graph::apply_delta` underneath).
    GraphApply,
    /// `Graph::csr_view`.
    GraphSnapshot,
    /// `Xheal::heal_delete` as one call.
    ExecutorHeal,
    /// `DistXheal::apply` with a recording sink.
    Dist,
    /// `AsyncNetwork::step`.
    SimStep,
    /// `nodes_with_mail_into`, `drain_inbox_into`, `drain_dropped_into`.
    SimDrain,
    /// `AsyncNetwork::send`.
    SimSend,
    /// Greedy next hops (`greedy_next_hop`) and delivery accounting.
    TrafficRoute,
    /// `Monitor::on_deltas` over one event's recorded deltas.
    MonitorIngest,
    /// `Monitor::evaluate_policy`.
    MonitorPolicy,
    /// `IncrementalCsr::snapshot`.
    MonitorSnapshot,
    /// `component_count` over the snapshot.
    MonitorComponents,
    /// Warm `SpectralGapTracker::estimate`.
    SpectralGap,
    /// `sweep_cut_csr`.
    SpectralSweep,
    /// The benchmark's own bookkeeping inside a pass.
    Harness,
}

impl Span {
    /// Every span, in declaration order (`span as usize` indexes it).
    pub const ALL: [Span; 19] = [
        Span::Planner,
        Span::GraphInsert,
        Span::GraphRemove,
        Span::GraphCapture,
        Span::GraphApply,
        Span::GraphSnapshot,
        Span::ExecutorHeal,
        Span::Dist,
        Span::SimStep,
        Span::SimDrain,
        Span::SimSend,
        Span::TrafficRoute,
        Span::MonitorIngest,
        Span::MonitorPolicy,
        Span::MonitorSnapshot,
        Span::MonitorComponents,
        Span::SpectralGap,
        Span::SpectralSweep,
        Span::Harness,
    ];

    /// The span's name, the share metric its time lands in, and its
    /// chrome-trace category (`xheal-trace`'s fixed layer set).
    fn info(self) -> (&'static str, &'static str, Layer) {
        match self {
            Span::Planner => ("planner.plan", "planner.share", Layer::Planner),
            Span::GraphInsert => ("graph.insert", "graph.insert_share", Layer::Executor),
            Span::GraphRemove => ("graph.remove", "graph.remove_share", Layer::Executor),
            Span::GraphCapture => ("graph.capture", "graph.capture_share", Layer::Executor),
            Span::GraphApply => ("graph.apply", "graph.apply_share", Layer::Executor),
            Span::GraphSnapshot => ("graph.snapshot", "graph.snapshot_share", Layer::Executor),
            Span::ExecutorHeal => ("executor.heal", "executor.heal_share", Layer::Executor),
            Span::Dist => ("dist.apply", "dist.share", Layer::Protocol),
            Span::SimStep => ("sim.step", "sim.step_share", Layer::Transport),
            Span::SimDrain => ("sim.drain", "sim.drain_share", Layer::Transport),
            Span::SimSend => ("sim.send", "sim.send_share", Layer::Transport),
            Span::TrafficRoute => ("traffic.route", "traffic.route_share", Layer::Harness),
            Span::MonitorIngest => ("monitor.ingest", "monitor.ingest_share", Layer::Monitor),
            Span::MonitorPolicy => ("monitor.policy", "monitor.policy_share", Layer::Monitor),
            Span::MonitorSnapshot => ("monitor.snapshot", "monitor.snapshot_share", Layer::Monitor),
            Span::MonitorComponents => (
                "monitor.components",
                "monitor.components_share",
                Layer::Monitor,
            ),
            Span::SpectralGap => ("spectral.gap", "spectral.gap_share", Layer::Monitor),
            Span::SpectralSweep => ("spectral.sweep", "spectral.sweep_share", Layer::Monitor),
            Span::Harness => ("harness.tape", "harness.share", Layer::Harness),
        }
    }

    /// The per-layer share metric this span's time lands in.
    pub fn share_metric(self) -> &'static str {
        self.info().1
    }
}

/// Where a pass reports its layer calls: nowhere ([`Off`], the measured
/// end-to-end passes) or into a tracer ([`Traced`]). Passes are written
/// once, generic over the probe, so the traced pass runs the same code.
pub trait Probe {
    /// Marks the start of the pass: its set-up is done, its wall starts.
    fn start(&mut self) {}
    /// Marks the end of the pass.
    fn stop(&mut self) {}
    fn begin(&mut self, span: Span);
    fn end(&mut self, span: Span);

    /// Runs `f` inside a span.
    #[inline]
    fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        self.begin(span);
        let out = f();
        self.end(span);
        out
    }
}

/// The untraced probe: every call compiles away.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn begin(&mut self, _: Span) {}
    #[inline(always)]
    fn end(&mut self, _: Span) {}
}

/// Name of the span enclosing one whole traced pass.
const PASS: &str = "harness.pass";

/// The traced probe: spans go into an `xheal-trace` [`Tracer`] sized so the
/// ring never wraps during a pass.
pub struct Traced {
    tracer: Tracer,
}

impl Traced {
    pub fn new(capacity: usize) -> Traced {
        Traced {
            tracer: Tracer::new(capacity),
        }
    }

    /// Sums the spans recorded between `start` and `stop`.
    pub fn finish(self, timer: &TimerCost) -> LayerSplit {
        assert_eq!(
            self.tracer.dropped(),
            0,
            "trace ring wrapped during the pass"
        );
        let mut split = LayerSplit {
            wall_ns: 0.0,
            span_ns: [0.0; Span::ALL.len()],
            spans: 0,
            chrome: String::new(),
        };
        for s in self.tracer.completed_spans() {
            let dur = s.dur_nanos.expect("every span is closed") as f64;
            if s.depth == 0 {
                split.wall_ns = dur;
            } else {
                let span = Span::ALL
                    .into_iter()
                    .find(|k| k.info().0 == s.name)
                    .expect("spans are recorded by name");
                split.span_ns[span as usize] += (dur - timer.inside_ns).max(0.0);
                split.spans += 1;
            }
        }
        split.chrome = self.tracer.chrome_trace_json();
        split
    }
}

impl Probe for Traced {
    fn start(&mut self) {
        self.tracer.begin(Layer::Harness, PASS, 0, 0);
    }
    fn stop(&mut self) {
        self.tracer.end(Layer::Harness, PASS, 0, 0);
    }
    #[inline]
    fn begin(&mut self, span: Span) {
        let (name, _, layer) = span.info();
        self.tracer.begin(layer, name, 0, 0);
    }
    #[inline]
    fn end(&mut self, span: Span) {
        let (name, _, layer) = span.info();
        self.tracer.end(layer, name, 0, 0);
    }
}

/// Summed span time per layer call of one traced pass.
pub struct LayerSplit {
    /// Wall of the traced pass.
    pub wall_ns: f64,
    /// Time per [`Span`], indexed by `span as usize`, timer cost removed.
    pub span_ns: [f64; Span::ALL.len()],
    /// Spans recorded (excluding the pass span).
    pub spans: u64,
    /// The chrome://tracing JSON of the pass.
    pub chrome: String,
}

impl LayerSplit {
    pub fn share(&self, span: Span) -> f64 {
        self.span_ns[span as usize] / self.wall_ns
    }

    /// Σ layer time ÷ traced wall.
    pub fn attributed(&self) -> f64 {
        self.span_ns.iter().sum::<f64>() / self.wall_ns
    }
}

/// The calibrated cost of one span's begin/end pair.
#[derive(Clone, Copy, Debug)]
pub struct TimerCost {
    /// Wall per begin/end pair.
    pub pair_ns: f64,
    /// Part of that cost that falls inside the span it measures.
    pub inside_ns: f64,
}

impl TimerCost {
    /// Times empty spans: the median recorded duration is the cost a span
    /// carries inside it, the wall per pair the full cost.
    pub fn calibrate() -> TimerCost {
        const PAIRS: usize = 20_000;
        let mut tracer = Tracer::new(2 * PAIRS);
        let t = Instant::now();
        for _ in 0..PAIRS {
            tracer.begin(Layer::Harness, "calibrate", 0, 0);
            tracer.end(Layer::Harness, "calibrate", 0, 0);
        }
        let pair_ns = t.elapsed().as_nanos() as f64 / PAIRS as f64;
        let mut inside: Vec<f64> = tracer
            .completed_spans()
            .iter()
            .filter_map(|s| s.dur_nanos)
            .map(|d| d as f64)
            .collect();
        TimerCost {
            pair_ns,
            inside_ns: median(&mut inside),
        }
    }
}

/// Median of `xs` (reorders them); NaN when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by nearest rank (reorders them); NaN when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let rank = ((xs.len() as f64 * q).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The host facts printed with every result, so records from different
/// hosts are never compared blindly.
pub fn host_block(timer: &TimerCost, smoke: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string())
    };
    // The bracketed word of the sysfs setting is the mode in force.
    let thp = read("/sys/kernel/mm/transparent_hugepage/enabled");
    let thp = thp
        .split_whitespace()
        .find(|w| w.starts_with('['))
        .map_or(thp.as_str(), |w| w.trim_matches(|c| c == '[' || c == ']'))
        .to_string();
    format!(
        "host: nproc={nproc} thp={thp} kernel={} timer_pair_ns={:.1} timer_inside_ns={:.1} smoke={smoke}",
        read("/proc/sys/kernel/osrelease"),
        timer.pair_ns,
        timer.inside_ns,
    )
}
