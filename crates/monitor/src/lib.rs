//! # xheal-monitor
//!
//! Live invariant monitoring for Xheal, fed by the [`TopologyDelta`]
//! stream — **no per-query graph rebuild**. Xheal's value proposition is a
//! bundle of *maintained invariants* (Pandurangan & Trehan, PODC 2011,
//! Theorem 2): constant-factor degree increase, O(log n) stretch, and
//! expansion no worse than a constant factor of the original. This crate
//! watches them on a long-running service:
//!
//! - an [`xheal_core::DeltaMirror`]: a `Graph` mirrored from the deltas,
//!   equal to the engine's graph after every event, whose snapshot is
//!   exactly `Graph::csr_view()`;
//! - maintained metrics, moved by the degrees read off the mirror before
//!   and after each delta: a [`DegreeHistogram`] and a
//!   [`DegreeIncreaseTracker`] against the insertion-only `G'` baseline.
//!   `G'` is an [`xheal_metrics::GPrime`] grown from the event tape
//!   ([`Monitor::record_insert`]), never from the colours of the edges an
//!   engine reports;
//! - [`SpectralGapTracker`]: λ₂ of the normalized Laplacian re-estimated
//!   by Lanczos **warm-started** from the previous Fiedler vector. That one
//!   solve also yields the checkpoint's expansion: the Cheeger sweep over
//!   the same vector, so each checkpoint runs one spectral solve;
//! - [`HealthPolicy`]: configurable thresholds emitting edge-triggered
//!   [`HealthEvent`] alerts.
//!
//! [`Monitor`] bundles it all behind one [`TopologySink`], attachable to
//! any executor via `Xheal::builder().sink(..)` /
//! `DistXheal::builder().sink(..)`; [`MonitorHook`] is the same monitor as
//! an [`xheal_core::RunObserver`] for a run driver such as
//! `xheal_workload::run_observed`: it records each insertion of the tape
//! into its `G'` and lands per-event health in the run's summary. The arena
//! in `xheal-bench` scores every engine with one.
//!
//! The crate reads only the delta stream and the `xheal-core` interfaces,
//! so it links no engine crate: whatever healer produced the stream, the
//! same code checks it.
//!
//! # Examples
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use xheal_core::{Event, HealingEngine, Xheal};
//! use xheal_graph::{generators, NodeId};
//! use xheal_monitor::{Monitor, MonitorConfig};
//!
//! let g0 = generators::star(12);
//! let monitor = Rc::new(RefCell::new(Monitor::new(&g0, MonitorConfig::default())));
//! let mut net = Xheal::builder()
//!     .kappa(4)
//!     .sink(Box::new(Rc::clone(&monitor)))
//!     .build(&g0);
//! net.apply(&Event::Delete { node: NodeId::new(0) })?;
//! let mut m = monitor.borrow_mut();
//! assert_eq!(m.node_count(), net.graph().node_count());
//! let report = m.checkpoint();
//! assert_eq!(report.components, 1, "healed network stays connected");
//! # Ok::<(), xheal_core::HealError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod health;
mod metrics;
mod spectral;

use std::cell::RefCell;
use std::rc::Rc;

use xheal_core::{
    DeltaMirror, Event, HealthNote, Outcome, RunObserver, Severity, TopologyDelta, TopologySink,
};
use xheal_graph::{Graph, GraphError, NodeId};
use xheal_metrics::GPrime;
use xheal_spectral::sweep_cut_csr;
use xheal_trace::{hook, Layer, SharedTracer};

pub use health::{Band, BreachState, HealthEvent, HealthPolicy, MetricKind, MetricsSnapshot};
pub use metrics::{DegreeHistogram, DegreeIncreaseTracker};
pub use spectral::{GapEstimate, SpectralGapTracker};
pub use xheal_graph::components::component_count;

/// Sources of a checkpoint's stretch: exact over all live pairs up to this
/// many live nodes, sampled from this many sources above it.
const STRETCH_SOURCES: usize = 16;

/// Construction-time knobs for a [`Monitor`].
#[derive(Clone, Copy, Debug, Default)]
pub struct MonitorConfig {
    /// Invariant budgets (see [`HealthPolicy`]).
    pub policy: HealthPolicy,
    /// Additionally chase λ₃ of the normalized Laplacian at checkpoints
    /// (a second deflated Lanczos sweep; see
    /// [`SpectralGapTracker::with_lambda3`]). Off by default.
    pub track_lambda3: bool,
}

/// A full checkpoint evaluation: the cheap maintained metrics plus the
/// expensive on-demand ones, all computed off the delta-fed mirror.
#[derive(Clone, Copy, Debug)]
pub struct HealthReport {
    /// Topology generation the report describes.
    pub generation: u64,
    /// Live nodes.
    pub nodes: usize,
    /// Live edges.
    pub edges: usize,
    /// Maximum degree (maintained histogram).
    pub max_degree: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Maintained `max deg_G / deg_{G'}` (success metric 1); `None` while
    /// `G'` lacks a live node (see [`Monitor::degree_increase`]).
    pub degree_increase: Option<f64>,
    /// Connected components (BFS over the mirror's CSR snapshot).
    pub components: usize,
    /// Warm-started λ₂ of the normalized Laplacian, with λ₃ when
    /// [`MonitorConfig::track_lambda3`] is on.
    pub spectral_gap: GapEstimate,
    /// Edge expansion `cut / min(|S|, |S̄|)`, minimized over the prefixes
    /// of the Cheeger sweep over the tracker's λ₂ vector (whose best
    /// conductance prefix is within `sqrt(2 λ₂)`): a constructive upper
    /// bound on `h`. Exactly 0 when the graph is disconnected; `None` for
    /// graphs with fewer than 2 nodes.
    pub expansion: Option<f64>,
    /// Max stretch against `G'` (success metric 3), from
    /// `xheal_metrics::stretch`: exact over all live pairs up to 16 live
    /// nodes; above that, sampled: the max over the pairs whose lower id is
    /// one of at most 16 sources, every ⌈n/16⌉-th live node by id.
    /// Infinite when a pair connected in `G'` is disconnected live; `None`
    /// when no pair is comparable or `G'` lacks a live node.
    pub stretch: Option<f64>,
}

/// The streaming invariant monitor: one [`TopologySink`] maintaining every
/// live metric from deltas alone.
///
/// Cheap metrics (degree histogram, degree increase) update in
/// O(1)–O(log n) per changed degree and are policy-checked at event
/// boundaries ([`Monitor::evaluate_policy`], driven by [`MonitorHook`]); the
/// expensive ones (components, spectral gap, expansion, stretch) run at
/// [`Monitor::checkpoint`] — still off the delta-fed mirror, never off the
/// engine's graph.
#[derive(Clone, Debug)]
pub struct Monitor {
    mirror: DeltaMirror,
    /// Deltas applied since construction.
    generation: u64,
    degrees: DegreeHistogram,
    degree_increase: DegreeIncreaseTracker,
    gprime: GPrime,
    /// Live nodes `G'` lacks: arrivals no recorded insertion covers.
    unrecorded: usize,
    spectral: SpectralGapTracker,
    policy: HealthPolicy,
    breaches: BreachState,
    alerts: Vec<HealthEvent>,
    /// Optional monitor-span recorder; `None` keeps evaluation branch-only.
    tracer: Option<SharedTracer>,
}

impl Monitor {
    /// Seeds the monitor from the engine's current graph. `G'` starts as
    /// that whole graph, every edge whatever its colour, and grows only
    /// through [`Monitor::record_insert`]. A monitor subscribed mid-run
    /// therefore measures degree increase and stretch against the graph it
    /// was given plus the insertions recorded since.
    pub fn new(initial: &Graph, config: MonitorConfig) -> Self {
        let mut degrees = DegreeHistogram::new();
        let mut degree_increase = DegreeIncreaseTracker::new();
        for v in initial.nodes() {
            let d = initial.degree(v).expect("live node");
            degrees.transition(None, Some(d));
            degree_increase.transition(None, Some((d, d)));
        }
        Monitor {
            mirror: DeltaMirror::new(initial),
            generation: 0,
            degrees,
            degree_increase,
            gprime: GPrime::new(initial),
            unrecorded: 0,
            spectral: if config.track_lambda3 {
                SpectralGapTracker::with_lambda3()
            } else {
                SpectralGapTracker::new()
            },
            policy: config.policy,
            breaches: BreachState::default(),
            alerts: Vec::new(),
            tracer: None,
        }
    }

    /// Attaches (or detaches, with `None`) a tracer recording
    /// `mon.checkpoint` spans, each holding one child span per part
    /// (`mon.snapshot`, `mon.components`, `mon.gap`, `mon.sweep`,
    /// `mon.stretch`), and one `mon.health` instant per band transition
    /// (arg encodes the severity: 0 = info/recovery, 1 = warning, 2 =
    /// critical).
    pub fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        self.tracer = tracer;
    }

    /// Emits one `mon.health` instant per alert appended past `from`.
    fn trace_health(&self, from: usize) {
        if self.tracer.is_none() {
            return;
        }
        for alert in &self.alerts[from..] {
            let code = match alert.severity {
                Severity::Info => 0,
                Severity::Warning => 1,
                Severity::Critical => 2,
            };
            hook::instant(
                &self.tracer,
                Layer::Monitor,
                "mon.health",
                alert.generation,
                code,
            );
        }
    }

    // ------------------------------------------------------------------
    // Live (maintained) metrics
    // ------------------------------------------------------------------

    /// Topology generation: deltas applied since construction.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Live node count.
    pub fn node_count(&self) -> usize {
        self.mirror.graph().node_count()
    }

    /// Live edge count.
    pub fn edge_count(&self) -> usize {
        self.mirror.graph().edge_count()
    }

    /// The delta-fed mirror itself, whose snapshot is the CSR every
    /// checkpoint metric runs on.
    pub fn csr(&self) -> &DeltaMirror {
        &self.mirror
    }

    /// Maintained degree histogram.
    pub fn degrees(&self) -> &DegreeHistogram {
        &self.degrees
    }

    /// Maintained max degree increase vs `G'` (success metric 1). `None`
    /// while some live node arrived by an insertion the monitor was not
    /// given: `G'` would be a guess, so no reference metric is reported.
    pub fn degree_increase(&self) -> Option<f64> {
        (self.unrecorded == 0).then(|| self.degree_increase.max())
    }

    /// The insertion-only graph `G'` the baseline degrees come from.
    pub fn gprime(&self) -> &GPrime {
        &self.gprime
    }

    /// Records an insertion of the event tape: `node` joins `G'` with an
    /// edge to each of its `contacts`, and the tracker's baseline degrees
    /// follow. Call it once per `Event::Insert`, before or after the
    /// engine's deltas for that event: the monitor ends in the same state
    /// either way. [`MonitorHook`] calls it for every insertion of a run.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeExists`] when `G'` already holds `node`; the
    /// monitor is unchanged.
    pub fn record_insert(&mut self, node: NodeId, contacts: &[NodeId]) -> Result<(), GraphError> {
        self.gprime.record_insert(node, contacts)?;
        let (g, gp) = (self.mirror.graph(), self.gprime.graph());
        if let Some(d) = g.degree(node) {
            // The engine's deltas came first, so `node` arrived unrecorded.
            self.unrecorded -= 1;
            let base = gp.degree(node).expect("just recorded");
            self.degree_increase
                .transition(Some((d, 0)), Some((d, base)));
        }
        // Each `G'` neighbour of `node` gained one baseline edge.
        for u in gp.neighbors(node) {
            if let Some(d) = g.degree(u) {
                let base = gp.degree(u).expect("G' neighbour");
                self.degree_increase
                    .transition(Some((d, base - 1)), Some((d, base)));
            }
        }
        Ok(())
    }

    /// Alerts emitted so far (edge-triggered; see [`HealthPolicy`]).
    pub fn alerts(&self) -> &[HealthEvent] {
        &self.alerts
    }

    /// Takes the accumulated alerts, leaving the buffer empty.
    pub fn drain_alerts(&mut self) -> Vec<HealthEvent> {
        std::mem::take(&mut self.alerts)
    }

    // ------------------------------------------------------------------
    // Checkpoints
    // ------------------------------------------------------------------

    /// Runs the expensive metrics off the delta-fed mirror (components,
    /// warm-started spectral gap, sweep-cut expansion, stretch),
    /// evaluates the full policy, and returns the report.
    ///
    /// There is one spectral solve per checkpoint: the expansion is the
    /// Cheeger sweep ([`SpectralGapTracker::cheeger_sweep`]) over the λ₂
    /// vector the gap estimate just converged, so the reported cut is tied
    /// to the reported λ₂. A disconnected snapshot reports expansion
    /// exactly 0 (a component is a cut no edge crosses) without sweeping.
    /// The cold `sweep_cut_csr` runs only when the tracker produced no
    /// vector. The stretch runs over the mirror's and `G'`'s kept
    /// snapshots (see [`HealthReport::stretch`]).
    pub fn checkpoint(&mut self) -> HealthReport {
        let generation = self.generation;
        hook::begin(
            &self.tracer,
            Layer::Monitor,
            "mon.checkpoint",
            generation,
            self.node_count() as u64,
        );
        let alerts_before = self.alerts.len();
        let span = |name| hook::begin(&self.tracer, Layer::Monitor, name, generation, 0);
        let done = |name, arg| hook::end(&self.tracer, Layer::Monitor, name, generation, arg);
        span("mon.snapshot");
        let view = self.mirror.snapshot();
        done("mon.snapshot", view.edge_count() as u64);
        span("mon.components");
        let components = component_count(&view);
        done("mon.components", components as u64);
        span("mon.gap");
        let gap = self.spectral.estimate(&view);
        done("mon.gap", gap.restarts as u64);
        span("mon.sweep");
        let expansion = if components > 1 {
            // Any one component is a cut crossed by no edge.
            Some(0.0)
        } else {
            self.spectral
                .cheeger_sweep(&view)
                .or_else(|| sweep_cut_csr(&view))
                .map(|s| s.expansion)
        };
        done("mon.sweep", 0);
        let degree_increase = self.degree_increase();
        span("mon.stretch");
        let stretch = degree_increase.and_then(|_| {
            xheal_metrics::stretch(
                self.mirror.graph(),
                self.gprime.graph(),
                STRETCH_SOURCES,
                STRETCH_SOURCES,
            )
        });
        done("mon.stretch", 0);
        let snap = MetricsSnapshot {
            generation,
            degree_increase,
            spectral_gap: Some(gap.lambda),
            expansion,
            components: Some(components),
        };
        self.policy
            .evaluate(&snap, &mut self.breaches, &mut self.alerts);
        self.trace_health(alerts_before);
        hook::end(
            &self.tracer,
            Layer::Monitor,
            "mon.checkpoint",
            generation,
            components as u64,
        );
        HealthReport {
            generation,
            nodes: self.node_count(),
            edges: self.edge_count(),
            max_degree: self.degrees.max(),
            mean_degree: self.degrees.mean(),
            degree_increase,
            components,
            spectral_gap: gap,
            expansion,
            stretch,
        }
    }

    // ------------------------------------------------------------------
    // The delta feed
    // ------------------------------------------------------------------

    /// Applies one delta to the mirror and moves every node whose degree
    /// it changed, read off the mirror before and after, through the
    /// degree histogram and the degree-increase multiset.
    fn absorb(&mut self, delta: &TopologyDelta) {
        self.generation += 1;
        let Monitor {
            mirror,
            degrees,
            degree_increase,
            gprime,
            unrecorded,
            ..
        } = self;
        let gp = gprime.graph();
        let mut shift = |v: NodeId, old: Option<usize>, new: Option<usize>| {
            degrees.transition(old, new);
            let base = gp.degree(v).unwrap_or(0);
            degree_increase.transition(old.map(|d| (d, base)), new.map(|d| (d, base)));
        };
        match *delta {
            TopologyDelta::NodeAdded(v) => {
                mirror.on_delta(delta);
                // `G'` holds `v` already when its insertion was recorded first.
                *unrecorded += usize::from(!gp.contains_node(v));
                shift(v, None, Some(0));
            }
            TopologyDelta::NodeRemoved(v) => {
                let g = mirror.graph();
                // Each neighbour loses exactly its one edge to `v`.
                for u in g.neighbors(v) {
                    let d = g.degree(u).expect("neighbour lives");
                    shift(u, Some(d), Some(d - 1));
                }
                shift(v, g.degree(v), None);
                *unrecorded -= usize::from(!gp.contains_node(v));
                mirror.on_delta(delta);
            }
            TopologyDelta::EdgeAdded { a, b, .. } | TopologyDelta::EdgeRemoved { a, b, .. } => {
                let g = mirror.graph();
                let before = [g.degree(a), g.degree(b)];
                mirror.on_delta(delta);
                let g = mirror.graph();
                for (v, old) in [a, b].into_iter().zip(before) {
                    let new = g.degree(v);
                    if new != old {
                        shift(v, old, new);
                    }
                }
            }
        }
    }

    /// The cheap policy pass: evaluates the maintained metrics (currently
    /// the degree increase, when measured) against the budgets, emitting
    /// edge-triggered alerts.
    ///
    /// Call this at **event boundaries** — [`MonitorHook`] does it after
    /// every applied event — never per delta: a repair plan strips edges
    /// before installing replacements, so mid-plan topologies transiently
    /// dip below (or spike above) budgets and would fire spurious
    /// recovery/breach alert pairs for states that never exist between
    /// events. ([`Monitor::checkpoint`] runs the full evaluation,
    /// expensive metrics included.)
    pub fn evaluate_policy(&mut self) {
        let alerts_before = self.alerts.len();
        let snap = MetricsSnapshot {
            generation: self.generation,
            degree_increase: self.degree_increase(),
            spectral_gap: None,
            expansion: None,
            components: None,
        };
        self.policy
            .evaluate(&snap, &mut self.breaches, &mut self.alerts);
        self.trace_health(alerts_before);
    }
}

impl TopologySink for Monitor {
    fn on_delta(&mut self, delta: &TopologyDelta) {
        self.absorb(delta);
    }
}

/// A shared [`Monitor`] as a [`RunObserver`] (for
/// `xheal_workload::run_observed`): records each insertion of the tape into
/// the monitor's `G'`, checkpoints every `checkpoint_every` events (0
/// disables) and records drained alerts as per-event [`HealthNote`]s in the
/// run's summary. The engine must feed the same monitor its deltas: build it
/// with the handle as a sink, or subscribe [`MonitorHook::monitor`].
#[derive(Debug)]
pub struct MonitorHook {
    monitor: Rc<RefCell<Monitor>>,
    checkpoint_every: usize,
    notes: Vec<HealthNote>,
}

impl MonitorHook {
    /// Wraps a shared monitor handle (the same handle registered as the
    /// engine's sink).
    pub fn new(monitor: Rc<RefCell<Monitor>>, checkpoint_every: usize) -> Self {
        MonitorHook {
            monitor,
            checkpoint_every,
            notes: Vec::new(),
        }
    }

    /// A hook over a fresh monitor of `initial` with λ₃ tracked: the arena
    /// scorer. Build it over the engine's post-construction graph (for DEX
    /// that is its bootstrap projection), so `G'` starts where the run does.
    pub fn scorer(initial: &Graph, checkpoint_every: usize) -> Self {
        let config = MonitorConfig {
            track_lambda3: true,
            ..MonitorConfig::default()
        };
        let monitor = Rc::new(RefCell::new(Monitor::new(initial, config)));
        MonitorHook::new(monitor, checkpoint_every)
    }

    /// The shared monitor handle.
    pub fn monitor(&self) -> &Rc<RefCell<Monitor>> {
        &self.monitor
    }
}

impl RunObserver for MonitorHook {
    fn on_event(&mut self, step: usize, event: &Event, _outcome: &Outcome, graph: &Graph) {
        let mut monitor = self.monitor.borrow_mut();
        if let Event::Insert { node, neighbors } = event {
            monitor
                .record_insert(*node, neighbors)
                .expect("the tape inserts each node once");
        }
        debug_assert_eq!(
            (monitor.node_count(), monitor.edge_count()),
            (graph.node_count(), graph.edge_count()),
            "monitor drifted from the engine graph"
        );
        if self.checkpoint_every != 0 && (step + 1) % self.checkpoint_every == 0 {
            let report = monitor.checkpoint();
            // Surface the spectral pair in the run record when λ₃ is
            // tracked; λ₂-only runs keep their historical note stream.
            if let Some(l3) = report.spectral_gap.lambda3 {
                self.notes.push(HealthNote {
                    step,
                    severity: Severity::Info,
                    message: format!(
                        "checkpoint gen {}: lambda2={:.6}, lambda3={:.6}",
                        report.generation, report.spectral_gap.lambda, l3
                    ),
                });
            }
        } else {
            monitor.evaluate_policy();
        }
        for alert in monitor.drain_alerts() {
            self.notes.push(HealthNote {
                step,
                severity: alert.severity,
                message: alert.to_string(),
            });
        }
    }

    fn drain_notes(&mut self) -> Vec<HealthNote> {
        std::mem::take(&mut self.notes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use xheal_core::{HealingEngine, Xheal, XhealConfig};
    use xheal_graph::{generators, NodeId};
    use xheal_metrics::degree_increase;
    use xheal_spectral::normalized_algebraic_connectivity;
    use xheal_workload::{run_observed, Adversary, RandomChurn};

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// Recomputes the degree histogram from scratch and compares.
    fn assert_histograms_match(m: &Monitor, g: &Graph) {
        let mut fresh = DegreeHistogram::new();
        for v in g.nodes() {
            fresh.transition(None, Some(g.degree(v).unwrap()));
        }
        assert_eq!(m.degrees().buckets(), fresh.buckets(), "degree histogram");
        assert_eq!(m.degrees().max(), fresh.max());
    }

    /// Drives `events` events from `next_event` through `Xheal` with a
    /// subscribed monitor, handing each insertion to the monitor after the
    /// engine applied it, as [`MonitorHook`] does. After every event the
    /// maintained counts, histogram and degree increase must equal a
    /// recount; every `checkpoint_every` events the checkpoint must see one
    /// component and a warm λ₂ within 1e-6 of the cold
    /// `normalized_algebraic_connectivity`, converged below the 1e-9
    /// residual tolerance.
    fn assert_tracks_churn(
        g0: &Graph,
        config: XhealConfig,
        events: usize,
        checkpoint_every: usize,
        mut next_event: impl FnMut(&Graph, usize) -> Event,
    ) {
        let monitor = Rc::new(RefCell::new(Monitor::new(g0, MonitorConfig::default())));
        let mut net = Xheal::builder()
            .config(config)
            .sink(Box::new(Rc::clone(&monitor)))
            .build(g0);
        let mut gp = xheal_metrics::GPrime::new(g0);
        for step in 0..events {
            let event = next_event(net.graph(), step);
            net.apply(&event).unwrap();
            let mut m = monitor.borrow_mut();
            if let Event::Insert { node, neighbors } = &event {
                gp.record_insert(*node, neighbors).unwrap();
                m.record_insert(*node, neighbors).unwrap();
            }
            assert_eq!(m.node_count(), net.graph().node_count(), "step {step}");
            assert_eq!(m.edge_count(), net.graph().edge_count(), "step {step}");
            assert_histograms_match(&m, net.graph());
            let expect = degree_increase(net.graph(), gp.graph());
            let maintained = m.degree_increase().expect("every insertion recorded");
            assert!(
                (maintained - expect).abs() < 1e-12,
                "step {step}: maintained {maintained} vs recomputed {expect}"
            );
            if (step + 1) % checkpoint_every == 0 {
                let report = m.checkpoint();
                assert_eq!(report.components, 1, "step {step}");
                let exact = normalized_algebraic_connectivity(net.graph());
                assert!(
                    (report.spectral_gap.lambda - exact).abs() < 1e-6,
                    "step {step}: warm gap {} vs fresh {exact}",
                    report.spectral_gap.lambda
                );
                assert!(
                    report.spectral_gap.residual < 1e-9,
                    "step {step}: residual {}",
                    report.spectral_gap.residual
                );
                // Healed paths may even be *shorter* than G' (clouds add
                // shortcuts), but a connected graph never yields an
                // infinite stretch over comparable pairs.
                assert!(report.stretch.is_none_or(|s| s > 0.0 && s.is_finite()));
            }
        }
    }

    #[test]
    fn monitor_tracks_xheal_churn_exactly() {
        // A sparse G(n, p) graph: one insert per two deletions, one
        // checkpoint at the end.
        let mut rng = StdRng::seed_from_u64(5);
        let g0 = generators::connected_erdos_renyi(30, 0.12, &mut rng);
        let mut next = 500u64;
        assert_tracks_churn(&g0, XhealConfig::new(4).with_seed(9), 60, 60, |g, step| {
            let nodes = g.node_vec();
            if step % 3 == 0 {
                next += 1;
                Event::Insert {
                    node: n(next - 1),
                    neighbors: vec![nodes[step % nodes.len()]],
                }
            } else {
                Event::Delete {
                    node: nodes[(step * 7) % nodes.len()],
                }
            }
        });

        // A random 6-regular graph, n = 200: 240 events mixing inserts of
        // 1–3 edges (6 in 12), single deletions (5 in 12) and batches of
        // 2–3 victims (1 in 12), with a checkpoint every 80 events, so the
        // warm gap is compared after many restarts, not once.
        let g0 = generators::random_regular(200, 6, &mut StdRng::seed_from_u64(200 ^ 0xA11CE));
        let mut adv = StdRng::seed_from_u64(0x5EED_BEEF);
        let mut next = 201u64;
        assert_tracks_churn(&g0, XhealConfig::new(6).with_seed(17), 240, 80, |g, _| {
            let nodes = g.node_vec();
            let roll = adv.random_range(0..12u32);
            if roll < 6 {
                next += 1;
                let mut neighbors: Vec<NodeId> = (0..adv.random_range(1..=3usize))
                    .map(|_| nodes[adv.random_range(0..nodes.len())])
                    .collect();
                neighbors.dedup();
                Event::Insert {
                    node: n(next - 1),
                    neighbors,
                }
            } else if roll < 11 {
                Event::Delete {
                    node: nodes[adv.random_range(0..nodes.len())],
                }
            } else {
                let mut victims: Vec<NodeId> = Vec::new();
                for _ in 0..adv.random_range(2..=3usize) {
                    let v = nodes[adv.random_range(0..nodes.len())];
                    if !victims.contains(&v) {
                        victims.push(v);
                    }
                }
                Event::DeleteBatch { nodes: victims }
            }
        });
    }

    #[test]
    fn hook_records_alerts_into_run_summary() {
        let mut rng = StdRng::seed_from_u64(8);
        let g0 = generators::connected_erdos_renyi(24, 0.15, &mut rng);
        // An absurdly tight degree budget guarantees an alert under churn.
        let config = MonitorConfig {
            policy: HealthPolicy {
                max_degree_increase: Some(1.0),
                ..HealthPolicy::default()
            },
            ..MonitorConfig::default()
        };
        let monitor = Rc::new(RefCell::new(Monitor::new(&g0, config)));
        let mut net = Xheal::builder()
            .kappa(4)
            .seed(3)
            .sink(Box::new(Rc::clone(&monitor)))
            .build(&g0);
        let mut adv = RandomChurn::new(0.7, 2, 3, &g0);
        let mut hook = MonitorHook::new(Rc::clone(&monitor), 8);
        let summary = run_observed(&mut net, &mut adv, 40, 21, &mut hook);
        assert_eq!(summary.events.len(), 40);
        assert!(
            summary
                .health
                .iter()
                .any(|h| h.severity == Severity::Critical),
            "deg-increase budget of 1.0 must be breached; notes: {:?}",
            summary.health
        );
        assert_eq!(summary.worst_severity(), Some(Severity::Critical));
    }

    #[test]
    fn hook_notes_spectral_pair_at_checkpoints_when_lambda3_tracked() {
        let mut rng = StdRng::seed_from_u64(29);
        let g0 = generators::connected_erdos_renyi(20, 0.2, &mut rng);
        let config = MonitorConfig {
            track_lambda3: true,
            ..MonitorConfig::default()
        };
        let monitor = Rc::new(RefCell::new(Monitor::new(&g0, config)));
        let mut net = Xheal::builder()
            .kappa(4)
            .seed(7)
            .sink(Box::new(Rc::clone(&monitor)))
            .build(&g0);
        let mut adv = RandomChurn::new(0.4, 1, 2, &g0);
        let mut hook = MonitorHook::new(Rc::clone(&monitor), 5);
        let summary = run_observed(&mut net, &mut adv, 20, 77, &mut hook);
        let spectral_notes: Vec<_> = summary
            .health
            .iter()
            .filter(|h| h.severity == Severity::Info && h.message.contains("lambda3="))
            .collect();
        assert_eq!(
            spectral_notes.len(),
            4,
            "one Info note per checkpoint: {:?}",
            summary.health
        );
        assert!(spectral_notes[0].message.contains("lambda2="));
    }

    #[test]
    fn disconnected_checkpoints_report_zero_expansion() {
        // K5 plus an isolated node.
        let mut lone = generators::complete(5);
        lone.add_node(n(50)).unwrap();
        // Two disjoint 5-cliques.
        let mut pair = generators::complete(5);
        for i in 10..15 {
            pair.add_node(n(i)).unwrap();
            for j in 10..i {
                pair.add_black_edge(n(j), n(i)).unwrap();
            }
        }
        for (name, g) in [("K5 + isolated node", lone), ("two cliques", pair)] {
            let report = Monitor::new(&g, MonitorConfig::default()).checkpoint();
            assert_eq!(report.components, 2, "{name}");
            assert_eq!(report.expansion, Some(0.0), "{name}");
        }
        let report = Monitor::new(&generators::complete(5), MonitorConfig::default()).checkpoint();
        assert_eq!(report.components, 1);
        assert!(report.expansion.unwrap() > 0.0);
    }

    #[test]
    fn checkpoint_expansion_is_a_constructive_cut_under_mixed_churn() {
        use xheal_baselines::NoHeal;
        use xheal_graph::cuts;

        let (mut checkpoints, mut split) = (0, 0);
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(40 + seed);
            let g0 = generators::connected_erdos_renyi(12, 0.3, &mut rng);
            let engines: [Box<dyn HealingEngine>; 2] = [
                Box::new(Xheal::builder().kappa(4).seed(seed).build(&g0)),
                Box::new(NoHeal::new(&g0)),
            ];
            for mut net in engines {
                let monitor = Rc::new(RefCell::new(Monitor::new(&g0, MonitorConfig::default())));
                net.subscribe(Box::new(Rc::clone(&monitor)));
                let mut tracker = SpectralGapTracker::new();
                let mut next = 100u64;
                for step in 0..30 {
                    let nodes = net.graph().node_vec();
                    let len = nodes.len();
                    let grow = len < 6 || (len < cuts::MAX_EXACT_NODES && rng.random_bool(0.5));
                    let event = if grow {
                        let i = rng.random_range(0..len);
                        let mut neighbors = vec![nodes[i]];
                        if rng.random_bool(0.5) {
                            neighbors.push(nodes[(i + 1 + rng.random_range(0..len - 1)) % len]);
                        }
                        next += 1;
                        Event::Insert {
                            node: n(next),
                            neighbors,
                        }
                    } else {
                        Event::Delete {
                            node: nodes[rng.random_range(0..len)],
                        }
                    };
                    net.apply(&event).unwrap();

                    let mut m = monitor.borrow_mut();
                    let report = m.checkpoint();
                    let ctx = format!("seed {seed} {} step {step}", net.name());
                    let exact = cuts::edge_expansion_exact(net.graph()).unwrap().value;
                    let expansion = report.expansion.expect("at least two nodes");
                    assert!(
                        expansion >= exact - 1e-9,
                        "{ctx}: sweep {expansion} below exact {exact}"
                    );
                    assert_eq!(expansion == 0.0, report.components > 1, "{ctx}");
                    let lone = tracker.estimate(&m.csr().snapshot());
                    assert_eq!(
                        report.spectral_gap.lambda.to_bits(),
                        lone.lambda.to_bits(),
                        "{ctx}: checkpoint gap differs from a tracker-only run"
                    );
                    checkpoints += 1;
                    split += usize::from(report.components > 1);
                }
            }
        }
        assert!(
            split > 0 && split < checkpoints,
            "{split} of {checkpoints} split"
        );
    }

    #[test]
    fn recording_before_or_after_the_deltas_ends_in_one_state() {
        // Two monitors on one engine: `early` is handed each insertion
        // before the engine applies it, `late` after.
        let g0 = generators::random_regular(40, 4, &mut StdRng::seed_from_u64(3));
        let early = Rc::new(RefCell::new(Monitor::new(&g0, MonitorConfig::default())));
        let late = Rc::new(RefCell::new(Monitor::new(&g0, MonitorConfig::default())));
        let mut net = Xheal::builder()
            .kappa(4)
            .seed(5)
            .sink(Box::new(Rc::clone(&early)))
            .sink(Box::new(Rc::clone(&late)))
            .build(&g0);
        let mut adv = RandomChurn::new(0.5, 3, 8, &g0);
        let mut rng = StdRng::seed_from_u64(8);
        let mut inserts = 0;
        for step in 0..80 {
            let event = adv
                .next_event(net.graph(), &mut rng)
                .expect("churn never ends");
            let record = |m: &RefCell<Monitor>| {
                if let Event::Insert { node, neighbors } = &event {
                    m.borrow_mut().record_insert(*node, neighbors).unwrap();
                }
            };
            record(&early);
            net.apply(&event).unwrap();
            record(&late);
            inserts += usize::from(!event.is_delete());
            let (a, b) = (early.borrow(), late.borrow());
            assert_eq!(a.degree_increase, b.degree_increase, "step {step}");
            assert_eq!(a.unrecorded, 0, "step {step}");
            assert_eq!(b.unrecorded, 0, "step {step}");
            assert_eq!(a.gprime.graph(), b.gprime.graph(), "step {step}");
            assert_eq!(a.mirror.graph(), b.mirror.graph(), "step {step}");
            assert_eq!(a.degree_increase(), b.degree_increase(), "step {step}");
        }
        assert!(inserts > 20, "{inserts} insertions");
    }

    #[test]
    fn a_bare_sink_reports_no_reference_metrics_after_an_insertion() {
        let g0 = generators::ring_with_chords(24);
        let config = MonitorConfig {
            policy: HealthPolicy {
                max_degree_increase: Some(1.0),
                ..HealthPolicy::default()
            },
            ..MonitorConfig::default()
        };
        let monitor = Rc::new(RefCell::new(Monitor::new(&g0, config)));
        let mut net = Xheal::builder()
            .kappa(4)
            .seed(1)
            .sink(Box::new(Rc::clone(&monitor)))
            .build(&g0);
        // Deletions leave `G'` whole: both reference metrics are measured,
        // and the repairs breach the budget.
        for v in [3, 4] {
            net.apply(&Event::Delete { node: n(v) }).unwrap();
        }
        {
            let mut m = monitor.borrow_mut();
            let report = m.checkpoint();
            assert!(report.degree_increase.is_some_and(|d| d > 1.0));
            assert!(report.stretch.is_some());
            assert_eq!(m.degree_increase(), report.degree_increase);
            assert_eq!(m.breaches.band(MetricKind::DegreeIncrease), Band::Breach);
        }
        // An insertion nobody hands to the monitor: it reports no reference
        // metric, and the policy holds its degree band.
        net.apply(&Event::Insert {
            node: n(100),
            neighbors: vec![n(0), n(10)],
        })
        .unwrap();
        let mut m = monitor.borrow_mut();
        assert_eq!(m.degree_increase(), None);
        let alerts = m.alerts().len();
        m.evaluate_policy();
        let report = m.checkpoint();
        assert_eq!((report.degree_increase, report.stretch), (None, None));
        assert_eq!(
            m.alerts().len(),
            alerts,
            "no recovery from an unmeasured metric"
        );
        assert_eq!(m.breaches.band(MetricKind::DegreeIncrease), Band::Breach);
    }

    #[test]
    fn mid_run_subscription_tracks_from_there() {
        let g0 = generators::star(14);
        let mut net = Xheal::new(&g0, XhealConfig::new(4).with_seed(2));
        net.heal_delete(n(0)).unwrap();
        // Subscribe against the *current* graph, mid-run.
        let monitor = Rc::new(RefCell::new(Monitor::new(
            net.graph(),
            MonitorConfig::default(),
        )));
        net.subscribe(Box::new(Rc::clone(&monitor)));
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let nodes = net.graph().node_vec();
            net.heal_delete(nodes[rng.random_range(0..nodes.len())])
                .unwrap();
        }
        let m = monitor.borrow();
        assert_eq!(m.node_count(), net.graph().node_count());
        assert_eq!(m.edge_count(), net.graph().edge_count());
        assert_histograms_match(&m, net.graph());
    }
}
