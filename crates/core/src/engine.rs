//! The unified executor API: one event-driven engine interface with
//! structured outcomes and topology-delta subscriptions.
//!
//! The paper's model (Figure 1) is a single loop — the adversary inserts or
//! deletes, the healer repairs — and [`HealingEngine`] is that loop as a
//! trait: every executor (the centralized [`Xheal`], the distributed
//! `xheal-dist`, and every `xheal-baselines` strategy) consumes one
//! [`Event`] at a time through [`HealingEngine::apply`] and reports back a
//! structured [`Outcome`] carrying the repair's accounting — including, for
//! distributed executors, the measured protocol cost ([`DistCost`]).
//!
//! On top of the event loop sits the *subscription layer*: every structural
//! change an engine makes to its network graph is also emitted as a
//! [`TopologyDelta`] to registered [`TopologySink`]s. Downstream consumers
//! (invariant monitors, external routing tables) patch their own view
//! from the delta stream instead of re-scanning `graph()`; the built-in
//! [`DeltaMirror`] sink maintains a full shadow graph purely from deltas and
//! is the consistency proof that the stream is complete.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use xheal_graph::{CloudColor, CsrView, EdgeLabels, Graph, NodeId};
use xheal_trace::SharedTracer;

use crate::batch::BatchReport;
use crate::error::HealError;
use crate::event::Event;
use crate::heal::Xheal;
use crate::stats::{DeletionReport, HealCase};

// ---------------------------------------------------------------------------
// Topology deltas and sinks
// ---------------------------------------------------------------------------

/// One structural change to an engine's network graph, as emitted to
/// [`TopologySink`]s.
///
/// Deltas are *label-level* operations: replaying them in order against a
/// copy of the pre-run graph reproduces the engine's graph exactly,
/// including edge labels (see [`DeltaMirror`]). Edge deltas carry the label
/// concerned — `None` is the black (original) label, `Some` a cloud color.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyDelta {
    /// A node joined the network (adversarial insertion).
    NodeAdded(NodeId),
    /// A node left the network, taking every incident edge with it.
    NodeRemoved(NodeId),
    /// Label `color` was added to edge `(a, b)`, creating the edge if it
    /// did not exist.
    EdgeAdded {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// `None` for the black label, `Some` for a cloud color.
        color: Option<CloudColor>,
    },
    /// Label `color` was stripped from edge `(a, b)`, removing the edge
    /// when that was its last label.
    EdgeRemoved {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// `None` for the black label, `Some` for a cloud color.
        color: Option<CloudColor>,
    },
}

/// A subscriber to an engine's [`TopologyDelta`] stream.
///
/// Register sinks with [`HealingEngine::subscribe`] (or at construction via
/// the builders, e.g. [`Xheal::builder`]). Sinks observe every structural
/// change the engine applies, in application order. They must not assume a
/// delta is *effective*: a stripped label may belong to an edge that already
/// died with a deleted endpoint — replaying such a strip is a no-op.
///
/// To keep a handle on a sink after handing it to an engine, wrap it in
/// `Rc<RefCell<_>>`: the blanket impl below forwards deltas through the
/// shared cell.
pub trait TopologySink {
    /// Called for every structural change, in application order.
    fn on_delta(&mut self, delta: &TopologyDelta);

    /// Called with one whole plan flush of deltas, in application order.
    ///
    /// The grouped plan-application path delivers each flush through this
    /// method; the default forwards delta-by-delta to
    /// [`TopologySink::on_delta`], so sinks observe the identical stream
    /// either way. A sink overrides it only when taking the flush whole is
    /// cheaper than taking it delta by delta, e.g. one that buffers the
    /// slice for later.
    fn on_deltas(&mut self, deltas: &[TopologyDelta]) {
        for delta in deltas {
            self.on_delta(delta);
        }
    }
}

impl<S: TopologySink> TopologySink for Rc<RefCell<S>> {
    fn on_delta(&mut self, delta: &TopologyDelta) {
        self.borrow_mut().on_delta(delta);
    }

    fn on_deltas(&mut self, deltas: &[TopologyDelta]) {
        self.borrow_mut().on_deltas(deltas);
    }
}

/// The set of [`TopologySink`]s registered with an engine.
///
/// Executors own one registry and feed it from the single plan-application
/// code path, so every engine emits the identical stream for the identical
/// schedule. An empty registry costs nothing on the healing hot path
/// (emission is skipped entirely).
#[derive(Default)]
pub struct SinkRegistry {
    sinks: Vec<Box<dyn TopologySink>>,
}

impl SinkRegistry {
    /// Registers a subscriber.
    pub fn register(&mut self, sink: Box<dyn TopologySink>) {
        self.sinks.push(sink);
    }

    /// Number of registered subscribers.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True when no sink is registered (the zero-overhead fast path).
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Broadcasts one delta to every registered sink.
    pub fn emit(&mut self, delta: TopologyDelta) {
        for sink in &mut self.sinks {
            sink.on_delta(&delta);
        }
    }

    /// Broadcasts one whole flush of deltas to every registered sink via
    /// [`TopologySink::on_deltas`]. Callers on the grouped plan path check
    /// [`SinkRegistry::is_empty`] once per flush and skip materializing the
    /// delta slice entirely when no sink is registered.
    pub fn emit_batch(&mut self, deltas: &[TopologyDelta]) {
        for sink in &mut self.sinks {
            sink.on_deltas(deltas);
        }
    }
}

impl fmt::Debug for SinkRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkRegistry")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// Cloning an engine does **not** clone its subscribers: sinks are stateful
/// observers of one concrete run, so a clone starts with a fresh, empty
/// registry (healing behavior is unaffected — sinks never influence
/// decisions).
impl Clone for SinkRegistry {
    fn clone(&self) -> Self {
        SinkRegistry::default()
    }
}

/// A [`TopologySink`] maintaining a full shadow [`Graph`] purely from the
/// delta stream — the built-in consistency proof that [`TopologyDelta`]
/// emission is complete.
///
/// Seed it with the engine's initial graph; after every applied event the
/// mirror's graph equals the engine's graph bit-for-bit (asserted under
/// arbitrary mixed churn by the `delta_mirror` property suite). A delta
/// that cannot apply (a node added twice, an edge to an absent endpoint)
/// means the stream and the mirror diverged, and panics; replayed strips
/// and re-added labels change nothing, as on the engine's graph.
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use xheal_core::{DeltaMirror, Event, HealingEngine, Xheal};
/// use xheal_graph::{generators, NodeId};
///
/// let g0 = generators::star(8);
/// let mirror = Rc::new(RefCell::new(DeltaMirror::new(&g0)));
/// let mut net = Xheal::builder()
///     .kappa(4)
///     .sink(Box::new(Rc::clone(&mirror)))
///     .build(&g0);
/// net.apply(&Event::Delete { node: NodeId::new(0) })?;
/// assert_eq!(net.graph(), mirror.borrow().graph());
/// # Ok::<(), xheal_core::HealError>(())
/// ```
#[derive(Clone, Debug)]
pub struct DeltaMirror {
    graph: Graph,
    /// Reused buffer for a removed node's incident edges.
    removed: Vec<(NodeId, EdgeLabels)>,
}

impl DeltaMirror {
    /// Starts mirroring from a copy of `initial` (the engine's pre-run
    /// graph).
    pub fn new(initial: &Graph) -> Self {
        DeltaMirror {
            graph: initial.clone(),
            removed: Vec::new(),
        }
    }

    /// The reconstructed graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The mirror's CSR snapshot, `Graph::csr_view()` of the reconstructed
    /// graph: equal to the engine's own view whenever the mirror equals the
    /// engine's graph.
    pub fn snapshot(&self) -> CsrView {
        self.graph.csr_view()
    }
}

impl TopologySink for DeltaMirror {
    fn on_delta(&mut self, delta: &TopologyDelta) {
        match *delta {
            TopologyDelta::NodeAdded(v) => {
                self.graph.add_node(v).expect("mirror: duplicate node");
            }
            TopologyDelta::NodeRemoved(v) => {
                self.removed.clear();
                self.graph
                    .remove_node_into(v, &mut self.removed)
                    .expect("mirror: absent node");
            }
            TopologyDelta::EdgeAdded { a, b, color } => {
                match color {
                    None => self.graph.add_black_edge(a, b),
                    Some(c) => self.graph.add_colored_edge(a, b, c),
                }
                .expect("mirror: edge endpoints are live");
            }
            TopologyDelta::EdgeRemoved { a, b, color } => {
                // Strips of edges that died with a deleted endpoint are
                // no-ops here, exactly as on the engine's graph.
                match color {
                    None => self.graph.strip_black(a, b),
                    Some(c) => self.graph.strip_color(a, b, c),
                };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Run observers
// ---------------------------------------------------------------------------

/// Severity of a [`HealthNote`] recorded during a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational (checkpoints, recoveries).
    Info,
    /// A monitored invariant is degrading toward its threshold.
    Warning,
    /// A monitored invariant is violated.
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Critical => write!(f, "critical"),
        }
    }
}

/// One health observation a [`RunObserver`] records during a run (e.g. an
/// alert of the `xheal-monitor` invariant monitor).
#[derive(Clone, Debug)]
pub struct HealthNote {
    /// Index of the event (0-based, in application order) the note follows.
    pub step: usize,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description of the observation.
    pub message: String,
}

/// Per-event hook of a run driver (`xheal_workload::run_observed`): called
/// after every applied event with the structured outcome and the engine's
/// post-repair graph.
///
/// Where a [`TopologySink`] sees each structural change, an observer sees
/// each whole event. `xheal-monitor`'s run hook implements it to evaluate
/// live invariant metrics per event; the notes it drains at the end of the
/// run land in the run's summary.
pub trait RunObserver {
    /// Called after `event` was applied (and healed) by the engine.
    fn on_event(&mut self, step: usize, event: &Event, outcome: &Outcome, graph: &Graph);

    /// Health observations accumulated so far, drained into the summary
    /// when the run ends.
    fn drain_notes(&mut self) -> Vec<HealthNote> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Distributed protocol cost (owned by core so outcomes are executor-neutral)
// ---------------------------------------------------------------------------

/// Protocol cost of one repair (the paper's success metrics 4 and 5:
/// recovery time and communication complexity). Produced by the distributed
/// executor (`xheal-dist`), which re-exports this type.
#[derive(Clone, Debug)]
pub struct RepairCost {
    /// Sequence number of the repair (matches the tags on its messages).
    pub repair: u64,
    /// Rounds from kickoff until the last protocol message landed.
    pub rounds: u64,
    /// Messages delivered for this repair.
    pub messages: u64,
    /// Black degree of the deleted node — for batch stages, the dead
    /// component's live black boundary size (Lemma 5's lower-bound unit).
    pub black_degree: usize,
    /// Total degree of the deleted node at deletion time — for batch
    /// stages, the number of victims in the dead component.
    pub degree: usize,
    /// Which healing case applied ([`HealCase::Batch`] for batch stages).
    pub case: HealCase,
    /// Whether the expensive combine operation ran (single deletions only;
    /// batch stages report `false` — see the batch report instead).
    pub combined: bool,
}

/// Measured distributed-execution cost of one applied event: engine-level
/// totals plus the per-repair [`RepairCost`] breakdown (one entry per
/// repair protocol the event launched — a single deletion launches one,
/// a batch one per dead component doing structural work).
///
/// Centralized executors report `None` in their [`Outcome`]s; there is no
/// message protocol to measure.
#[derive(Clone, Debug, Default)]
pub struct DistCost {
    /// Wall-clock engine rounds spent healing this event (concurrent
    /// repairs overlap, so this can be far below the per-repair sum).
    pub rounds: u64,
    /// Messages delivered while healing this event.
    pub messages: u64,
    /// Per-repair cost records, ascending by repair sequence.
    pub repairs: Vec<RepairCost>,
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

/// The structured result of applying one [`Event`] to a [`HealingEngine`]:
/// what kind of repair ran, its accounting, and — for distributed
/// executors — its measured protocol cost.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// An insertion was applied; the model heals nothing (Algorithm 3.1
    /// lines 1–2). Engines whose insertions do structural work (DEX
    /// virtual-node splits and spare takeovers) report its measured cost;
    /// Xheal-family engines report `None` — insertion really is free there.
    Inserted {
        /// Reconfiguration cost of the insertion — `Some` for engines
        /// whose insertions rewire (DEX), `None` otherwise.
        cost: Option<DistCost>,
    },
    /// A single deletion was healed.
    Healed {
        /// Per-deletion accounting, including the healing case taken.
        report: DeletionReport,
        /// Protocol cost — `Some` for distributed executors only.
        cost: Option<DistCost>,
    },
    /// A simultaneous multi-node deletion was healed as one batch repair.
    Batch {
        /// Batch-level accounting.
        report: BatchReport,
        /// Protocol cost — `Some` for distributed executors only.
        cost: Option<DistCost>,
    },
}

impl Outcome {
    /// Colored edges the repair added (0 for insertions).
    pub fn edges_added(&self) -> usize {
        match self {
            Outcome::Inserted { .. } => 0,
            Outcome::Healed { report, .. } => report.edges_added,
            Outcome::Batch { report, .. } => report.edges_added,
        }
    }

    /// Colored-edge labels the repair stripped (0 for insertions).
    pub fn edges_removed(&self) -> usize {
        match self {
            Outcome::Inserted { .. } => 0,
            Outcome::Healed { report, .. } => report.edges_removed,
            Outcome::Batch { report, .. } => report.edges_removed,
        }
    }

    /// Number of nodes the event deleted (0 for insertions).
    pub fn victims(&self) -> usize {
        match self {
            Outcome::Inserted { .. } => 0,
            Outcome::Healed { .. } => 1,
            Outcome::Batch { report, .. } => report.victims,
        }
    }

    /// The measured reconfiguration cost, when the executor reported one
    /// (distributed repairs; DEX insertions).
    pub fn cost(&self) -> Option<&DistCost> {
        match self {
            Outcome::Inserted { cost }
            | Outcome::Healed { cost, .. }
            | Outcome::Batch { cost, .. } => cost.as_ref(),
        }
    }
}

// ---------------------------------------------------------------------------
// The engine trait
// ---------------------------------------------------------------------------

/// A self-healing executor driven one adversarial [`Event`] at a time.
///
/// This is the single public surface the workload runner, the experiment
/// benches, and the cross-validation suite are written against: the
/// centralized [`Xheal`], the distributed `xheal_dist::DistXheal` (over any
/// network engine), and every `xheal-baselines` strategy implement it, so
/// all of them are interchangeable behind `Box<dyn HealingEngine>`.
/// `apply` returns the full structured [`Outcome`], and
/// [`HealingEngine::subscribe`] exposes the topology-delta stream.
///
/// # Examples
///
/// ```
/// use xheal_core::{Event, HealingEngine, Outcome, Xheal, XhealConfig};
/// use xheal_graph::{components, generators, NodeId};
///
/// let mut net = Xheal::new(&generators::star(10), XhealConfig::new(4));
/// let outcome = net.apply(&Event::Delete { node: NodeId::new(0) })?;
/// assert!(matches!(outcome, Outcome::Healed { .. }));
/// assert!(outcome.edges_added() > 0);
/// assert!(components::is_connected(net.graph()));
/// # Ok::<(), xheal_core::HealError>(())
/// ```
pub trait HealingEngine {
    /// Human-readable strategy name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// The current healed network graph `G_t`.
    fn graph(&self) -> &Graph;

    /// Applies one adversarial event and heals the damage, returning the
    /// structured outcome of the repair.
    ///
    /// # Errors
    ///
    /// Implementations reject invalid events before mutating anything:
    /// duplicate or unknown nodes on insertion, absent or duplicated
    /// victims on deletion.
    fn apply(&mut self, event: &Event) -> Result<Outcome, HealError>;

    /// Registers a [`TopologySink`] observing every structural change this
    /// engine applies from now on.
    fn subscribe(&mut self, sink: Box<dyn TopologySink>);

    /// Attaches (or, with `None`, detaches) a structured tracer observing
    /// this engine's repairs: planner phases, action application, protocol
    /// rounds. The default does nothing — baselines without interesting
    /// internal structure stay untraced. With no tracer attached every
    /// instrumentation point in an engine is a single branch on a `None`
    /// handle (see [`xheal_trace::hook`]).
    fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        let _ = tracer;
    }
}

impl HealingEngine for Xheal {
    fn name(&self) -> &'static str {
        "xheal"
    }

    fn graph(&self) -> &Graph {
        Xheal::graph(self)
    }

    fn apply(&mut self, event: &Event) -> Result<Outcome, HealError> {
        match event {
            Event::Insert { node, neighbors } => {
                self.heal_insert(*node, neighbors)?;
                Ok(Outcome::Inserted { cost: None })
            }
            Event::Delete { node } => Ok(Outcome::Healed {
                report: self.heal_delete(*node)?,
                cost: None,
            }),
            Event::DeleteBatch { nodes } => Ok(Outcome::Batch {
                report: self.heal_delete_batch(nodes)?,
                cost: None,
            }),
        }
    }

    fn subscribe(&mut self, sink: Box<dyn TopologySink>) {
        Xheal::subscribe(self, sink);
    }

    fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        Xheal::set_tracer(self, tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XhealConfig;
    use xheal_graph::{components, generators};

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn apply_routes_all_event_kinds() {
        let mut net = Xheal::new(&generators::star(8), XhealConfig::new(4).with_seed(1));
        let ins = net
            .apply(&Event::Insert {
                node: n(100),
                neighbors: vec![n(1)],
            })
            .unwrap();
        assert!(matches!(ins, Outcome::Inserted { cost: None }));
        assert_eq!((ins.victims(), ins.edges_added()), (0, 0));
        assert!(ins.cost().is_none());

        let healed = net.apply(&Event::Delete { node: n(0) }).unwrap();
        let Outcome::Healed { report, cost: None } = &healed else {
            panic!("expected centralized Healed outcome, got {healed:?}");
        };
        assert_eq!(report.case, HealCase::AllBlack);
        assert_eq!(healed.victims(), 1);
        assert_eq!(healed.edges_added(), report.edges_added);

        let batch = net
            .apply(&Event::DeleteBatch {
                nodes: vec![n(2), n(3)],
            })
            .unwrap();
        assert!(matches!(batch, Outcome::Batch { .. }));
        assert_eq!(batch.victims(), 2);
        assert!(components::is_connected(net.graph()));
    }

    #[test]
    fn apply_rejects_bad_events() {
        let mut net = Xheal::new(&generators::cycle(5), XhealConfig::default());
        assert!(net
            .apply(&Event::Insert {
                node: n(0),
                neighbors: vec![],
            })
            .is_err());
        assert!(net.apply(&Event::Delete { node: n(77) }).is_err());
        assert!(net
            .apply(&Event::DeleteBatch {
                nodes: vec![n(1), n(1)],
            })
            .is_err());
        assert_eq!(net.graph().node_count(), 5, "nothing was mutated");
    }

    #[test]
    fn mirror_tracks_engine_through_trait() {
        let g0 = generators::star(10);
        let mirror = Rc::new(RefCell::new(DeltaMirror::new(&g0)));
        let mut net: Box<dyn HealingEngine> = Box::new(
            Xheal::builder()
                .kappa(4)
                .seed(3)
                .sink(Box::new(Rc::clone(&mirror)))
                .build(&g0),
        );
        assert_eq!(net.name(), "xheal");
        let events = [
            Event::Delete { node: n(0) },
            Event::Insert {
                node: n(50),
                neighbors: vec![n(1), n(2)],
            },
            Event::DeleteBatch {
                nodes: vec![n(1), n(4)],
            },
        ];
        for event in &events {
            net.apply(event).unwrap();
            assert_eq!(
                net.graph(),
                mirror.borrow().graph(),
                "diverged on {event:?}"
            );
        }
    }

    #[test]
    fn cloning_an_engine_drops_subscribers() {
        let g0 = generators::star(6);
        let mirror = Rc::new(RefCell::new(DeltaMirror::new(&g0)));
        let mut a = Xheal::builder()
            .kappa(4)
            .sink(Box::new(Rc::clone(&mirror)))
            .build(&g0);
        let mut b = a.clone();
        a.heal_delete(n(0)).unwrap();
        b.heal_delete(n(1)).unwrap();
        // Only `a`'s deletion reached the mirror.
        assert_eq!(a.graph(), mirror.borrow().graph());
    }

    /// Asserts the mirror equals `g`, labels included, and snapshots to
    /// exactly `g.csr_view()`.
    fn assert_mirrors(mirror: &DeltaMirror, g: &Graph) {
        mirror.graph().validate().unwrap();
        assert_eq!(mirror.graph(), g, "mirror differs");
        let (snap, fresh) = (mirror.snapshot(), g.csr_view());
        assert_eq!(snap.nodes(), fresh.nodes(), "node spine differs");
        assert_eq!(snap.offsets(), fresh.offsets(), "offsets differ");
        assert_eq!(
            snap.neighbors_flat(),
            fresh.neighbors_flat(),
            "adjacency differs"
        );
    }

    #[test]
    fn snapshot_equals_fresh_csr_under_mixed_churn() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = generators::connected_erdos_renyi(24, 0.2, &mut rng);
        let mut mirror = DeltaMirror::new(&g);
        let mut next = 1000u64;
        for step in 0..300 {
            let nodes = g.node_vec();
            let a = nodes[rng.random_range(0..nodes.len())];
            let b = nodes[rng.random_range(0..nodes.len())];
            let c = CloudColor::new(rng.random_range(0..6));
            match rng.random_range(0..4u32) {
                0 => {
                    let v = n(next);
                    next += 1;
                    g.add_node(v).unwrap();
                    mirror.on_delta(&TopologyDelta::NodeAdded(v));
                    g.add_black_edge(v, a).unwrap();
                    mirror.on_delta(&TopologyDelta::EdgeAdded {
                        a: v,
                        b: a,
                        color: None,
                    });
                }
                1 if nodes.len() > 4 => {
                    g.remove_node(a).unwrap();
                    mirror.on_delta(&TopologyDelta::NodeRemoved(a));
                }
                _ if a == b => {}
                2 => {
                    g.add_colored_edge(a, b, c).unwrap();
                    mirror.on_delta(&TopologyDelta::EdgeAdded {
                        a,
                        b,
                        color: Some(c),
                    });
                }
                _ => {
                    g.strip_color(a, b, c);
                    mirror.on_delta(&TopologyDelta::EdgeRemoved {
                        a,
                        b,
                        color: Some(c),
                    });
                }
            }
            if step % 10 == 0 {
                assert_mirrors(&mirror, &g);
            }
        }
        assert_mirrors(&mirror, &g);
    }

    #[test]
    fn replayed_strips_are_noops() {
        let g = generators::cycle(5);
        let mut mirror = DeltaMirror::new(&g);
        let (c, other) = (CloudColor::new(1), CloudColor::new(9));
        mirror.on_delta(&TopologyDelta::EdgeAdded {
            a: n(0),
            b: n(1),
            color: Some(c),
        });
        let before = mirror.graph().clone();
        for delta in [
            // A strip of an edge whose endpoint is gone: the plan-replay case.
            TopologyDelta::EdgeRemoved {
                a: n(77),
                b: n(0),
                color: Some(c),
            },
            // A strip of a colour the edge does not carry.
            TopologyDelta::EdgeRemoved {
                a: n(0),
                b: n(1),
                color: Some(other),
            },
            // Re-adds of labels the edge already carries.
            TopologyDelta::EdgeAdded {
                a: n(0),
                b: n(1),
                color: Some(c),
            },
            TopologyDelta::EdgeAdded {
                a: n(1),
                b: n(0),
                color: None,
            },
        ] {
            mirror.on_delta(&delta);
            assert_eq!(mirror.graph(), &before, "{delta:?} changed the mirror");
        }
        assert_mirrors(&mirror, &before);
    }

    #[test]
    fn sink_registry_reports_size() {
        let mut reg = SinkRegistry::default();
        assert!(reg.is_empty());
        reg.register(Box::new(DeltaMirror::new(&generators::cycle(3))));
        assert_eq!(reg.len(), 1);
        assert!(format!("{reg:?}").contains("sinks"));
        assert!(reg.clone().is_empty(), "clones start unsubscribed");
    }
}
