//! Explicit repair plans: the decisions of one healing operation as data.
//!
//! [`crate::RepairPlanner`] turns a deletion into a [`RepairPlan`] — an
//! ordered list of [`PlanAction`]s describing exactly which expander clouds
//! are built, patched, extended, or dissolved, with the edge delta each step
//! must apply to the network graph. Executors interpret the plan:
//!
//! - [`crate::Xheal`] applies the deltas directly to its [`xheal_graph::Graph`]
//!   (the centralized model);
//! - `xheal-dist` replays every action as a probe/grant/link message exchange
//!   over the LOCAL-model engine before applying the same deltas, so both
//!   executors produce bit-identical topologies from one plan.

use std::collections::BTreeSet;

use xheal_expander::EdgeDelta;
use xheal_graph::{CloudColor, CloudKind, EdgeMutation, Graph, NodeId};

use crate::engine::{SinkRegistry, TopologyDelta};
use crate::stats::{DeletionReport, HealCase};

/// Reusable working memory for grouped plan application
/// ([`RepairPlan::apply_streamed_with`] and the batch flush): the flattened
/// mutation list and the materialized delta slice for sink emission.
/// Executors own one and thread it through their hot loops so steady-state
/// plan application allocates nothing.
#[derive(Debug, Default)]
pub struct ApplyScratch {
    ops: Vec<EdgeMutation>,
    deltas: Vec<TopologyDelta>,
}

/// Accumulation cap (in mutations) before an intermediate flush. Mature
/// small-network plans can rewire most of the graph in one plan; unbounded
/// accumulation would stream megabytes of ops through three passes (copy,
/// validate, apply) and cost ~17 % on such schedules. Capped at ~96 KiB of
/// ops the buffer stays L2-resident, while typical plans (well under the
/// cap) still flush exactly once. Chunked flushing is sequence-preserving,
/// so the graph and the emitted delta stream are bit-identical either way.
const FLUSH_CAP: usize = 4096;

impl ApplyScratch {
    /// Applies `actions` in order as grouped mutation batches: one flush
    /// for typical plans, sequence-ordered chunks of about [`FLUSH_CAP`]
    /// mutations (split between actions) for larger ones.
    pub(crate) fn apply_actions<'a>(
        &mut self,
        actions: impl IntoIterator<Item = &'a PlanAction>,
        graph: &mut Graph,
        sinks: &mut SinkRegistry,
    ) {
        self.ops.clear();
        for action in actions {
            if self.ops.len() >= FLUSH_CAP {
                self.flush(graph, sinks);
            }
            self.push_action(action);
        }
        self.flush(graph, sinks);
    }

    /// Flushes the accumulated mutation batch in `self.ops` through
    /// [`Graph::apply_delta`], then emits the corresponding
    /// [`TopologyDelta`] stream (in original op order) as one batch.
    ///
    /// With no sinks registered the delta slice is never materialized —
    /// one branch per flush instead of one check per mutation.
    fn flush(&mut self, graph: &mut Graph, sinks: &mut SinkRegistry) {
        if self.ops.is_empty() {
            return;
        }
        graph
            .apply_delta(&self.ops)
            .expect("cloud members are live nodes");
        if !sinks.is_empty() {
            self.deltas.clear();
            self.deltas.reserve(self.ops.len());
            self.deltas.extend(self.ops.iter().map(|op| {
                if op.add {
                    TopologyDelta::EdgeAdded {
                        a: op.a,
                        b: op.b,
                        color: op.color,
                    }
                } else {
                    TopologyDelta::EdgeRemoved {
                        a: op.a,
                        b: op.b,
                        color: op.color,
                    }
                }
            }));
            sinks.emit_batch(&self.deltas);
        }
        self.ops.clear();
    }

    /// Appends one action's edge rewiring (strips first, then adds — the
    /// exact order the sequential path applies and emits).
    fn push_action(&mut self, action: &PlanAction) {
        let color = Some(action.color());
        let delta = action.delta();
        self.ops.reserve(delta.removed.len() + delta.added.len());
        for &(u, w) in &delta.removed {
            self.ops.push(EdgeMutation {
                a: u,
                b: w,
                color,
                add: false,
            });
        }
        for &(u, w) in &delta.added {
            self.ops.push(EdgeMutation {
                a: u,
                b: w,
                color,
                add: true,
            });
        }
    }
}

impl Clone for ApplyScratch {
    /// Cloning yields a fresh, empty scratch: contents are transient
    /// per-flush working state, not data.
    fn clone(&self) -> Self {
        ApplyScratch::default()
    }
}

/// One structural step of a repair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanAction {
    /// Install a fresh expander cloud over `members`.
    BuildCloud {
        /// Color of the new cloud.
        color: CloudColor,
        /// Primary or secondary.
        kind: CloudKind,
        /// The member set, ascending.
        members: Vec<NodeId>,
        /// Edges to install (colored `color`).
        delta: EdgeDelta,
    },
    /// Re-splice a cloud after members departed.
    PatchCloud {
        /// Color of the patched cloud.
        color: CloudColor,
        /// The members that left (often the deleted node).
        removed: Vec<NodeId>,
        /// Edge rewiring to apply.
        delta: EdgeDelta,
    },
    /// Add one node to an existing cloud (free-node sharing or bridge
    /// replacement).
    ExtendCloud {
        /// Color of the extended cloud.
        color: CloudColor,
        /// The joining node.
        node: NodeId,
        /// True when the node was borrowed from a sibling cloud (sharing).
        shared: bool,
        /// Edge rewiring to apply.
        delta: EdgeDelta,
    },
    /// Remove a cloud entirely (combine inputs, vacuous secondaries).
    DissolveCloud {
        /// Color of the dissolved cloud.
        color: CloudColor,
        /// Its edges, all to be stripped (`delta.added` is empty).
        delta: EdgeDelta,
    },
}

impl PlanAction {
    /// The edge rewiring this action applies to the graph.
    pub fn delta(&self) -> &EdgeDelta {
        match self {
            PlanAction::BuildCloud { delta, .. }
            | PlanAction::PatchCloud { delta, .. }
            | PlanAction::ExtendCloud { delta, .. }
            | PlanAction::DissolveCloud { delta, .. } => delta,
        }
    }

    /// The cloud this action concerns.
    pub fn color(&self) -> CloudColor {
        match self {
            PlanAction::BuildCloud { color, .. }
            | PlanAction::PatchCloud { color, .. }
            | PlanAction::ExtendCloud { color, .. }
            | PlanAction::DissolveCloud { color, .. } => *color,
        }
    }

    /// Every node named by this step: cloud members plus all endpoints of
    /// its edge delta. Endpoints of *removed* edges may already be deleted
    /// from the network (the repair's victim); executors must filter
    /// against live membership before addressing them.
    pub fn participants(&self) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        match self {
            PlanAction::BuildCloud { members, .. } => out.extend(members.iter().copied()),
            PlanAction::ExtendCloud { node, .. } => {
                out.insert(*node);
            }
            PlanAction::PatchCloud { .. } | PlanAction::DissolveCloud { .. } => {}
        }
        let delta = self.delta();
        for &(u, w) in delta.added.iter().chain(delta.removed.iter()) {
            out.insert(u);
            out.insert(w);
        }
        out
    }

    /// Applies this action's edge rewiring to `graph`: strip the removed
    /// edges' color, then install the added edges. Both executors go
    /// through here — that single code path is what makes the centralized
    /// and distributed topologies bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if an added edge references a node absent from `graph`
    /// (cloud members are always live).
    pub fn apply_to(&self, graph: &mut Graph) {
        self.apply_streamed(graph, &mut SinkRegistry::default());
    }

    /// Like [`PlanAction::apply_to`], additionally emitting one
    /// [`TopologyDelta`] per label change to `sinks`.
    ///
    /// This is the *sequential reference path*: one strip/add (two binary
    /// searches and a list edit) per edge, in plan order. Whole-plan
    /// application goes through the grouped bulk path
    /// ([`RepairPlan::apply_streamed_with`]), which is bit-identical to
    /// replaying this method action by action — the `grouped_apply`
    /// integration suite pins that equivalence.
    ///
    /// # Panics
    ///
    /// Panics if an added edge references a node absent from `graph`.
    pub fn apply_streamed(&self, graph: &mut Graph, sinks: &mut SinkRegistry) {
        let color = self.color();
        let delta = self.delta();
        if sinks.is_empty() {
            for &(u, w) in &delta.removed {
                // Endpoints may already be gone from the graph (the deleted
                // node's cloud edges); stripping is then a no-op.
                graph.strip_color(u, w, color);
            }
            for &(u, w) in &delta.added {
                graph
                    .add_colored_edge(u, w, color)
                    .expect("cloud members are live nodes");
            }
            return;
        }
        for &(u, w) in &delta.removed {
            graph.strip_color(u, w, color);
            // Emitted even when the edge already died with a deleted
            // endpoint: replaying the strip is a no-op there too, so
            // mirrors stay exact.
            sinks.emit(TopologyDelta::EdgeRemoved {
                a: u,
                b: w,
                color: Some(color),
            });
        }
        for &(u, w) in &delta.added {
            graph
                .add_colored_edge(u, w, color)
                .expect("cloud members are live nodes");
            sinks.emit(TopologyDelta::EdgeAdded {
                a: u,
                b: w,
                color: Some(color),
            });
        }
    }
}

/// The full decision record of one deletion repair.
#[derive(Clone, Debug)]
pub struct RepairPlan {
    /// The structural steps, in execution order.
    pub actions: Vec<PlanAction>,
    /// Per-deletion accounting, including the healing case taken (also
    /// folded into the planner's stats).
    pub report: DeletionReport,
}

impl RepairPlan {
    /// Which healing case of Algorithm 3.1 applied.
    pub fn case(&self) -> HealCase {
        self.report.case
    }

    /// All nodes that participate in any action of the plan (see
    /// [`PlanAction::participants`] for the liveness caveat).
    pub fn participants(&self) -> BTreeSet<NodeId> {
        self.actions.iter().flat_map(|a| a.participants()).collect()
    }

    /// Applies every action to `graph`, in order.
    pub fn apply_to(&self, graph: &mut Graph) {
        self.apply_streamed(graph, &mut SinkRegistry::default());
    }

    /// Applies every action to `graph`, in order, emitting the
    /// [`TopologyDelta`] stream to `sinks`.
    ///
    /// Convenience wrapper over [`RepairPlan::apply_streamed_with`] with a
    /// throwaway scratch; executor hot loops thread a persistent
    /// [`ApplyScratch`] instead.
    pub fn apply_streamed(&self, graph: &mut Graph, sinks: &mut SinkRegistry) {
        self.apply_streamed_with(graph, sinks, &mut ApplyScratch::default());
    }

    /// Applies the whole plan as grouped mutation batches through
    /// [`Graph::apply_delta`] (one batch for typical plans; plans past the
    /// accumulation cap flush in sequence-ordered chunks so the op buffer
    /// stays cache-resident). The emitted [`TopologyDelta`] stream is
    /// bit-identical — same deltas, same order — to replaying
    /// [`PlanAction::apply_streamed`] action by action, as is the
    /// resulting graph.
    ///
    /// # Panics
    ///
    /// Panics if an added edge references a node absent from `graph`
    /// (cloud members are always live).
    pub fn apply_streamed_with(
        &self,
        graph: &mut Graph,
        sinks: &mut SinkRegistry,
        scratch: &mut ApplyScratch,
    ) {
        scratch.apply_actions(&self.actions, graph, sinks);
    }
}
