//! # xheal-dist
//!
//! The distributed Xheal of the paper's Section 5: the same healing
//! decisions as the centralized implementation — literally the same
//! [`RepairPlanner`] — executed as a message-passing protocol by per-node
//! actor state machines over any [`xheal_sim::NetworkEngine`]. The design
//! follows the fully-distributed direction of *DEX: Self-healing Expanders*
//! (Pandurangan, Robinson & Trehan): healing logic is fixed, only the
//! execution substrate changes.
//!
//! Each repair runs as message-driven phase transitions of the actors
//! (see the `actor` module-level docs in the source):
//!
//! 1. **Probe** — the coordinator (the least-id live participant of the
//!    repair plan) contacts every participant;
//! 2. **Grant** — participants answer the probe;
//! 3. **Link** — the coordinator disseminates edge install/strip
//!    instructions to both endpoints of every planned edge;
//! 4. **Splice** — cloud construction finishes with ⌈log₂ m⌉ acknowledged
//!    gossip waves per cloud of m members being built (the distributed
//!    Hamilton-cycle splice).
//!
//! Every message carries its repair's sequence number, so *concurrent*
//! repairs interleave freely in flight: [`DistXheal::delete_many`] keeps
//! several deletions' protocols in the air at once, and
//! [`DistXheal::delete_batch`] heals simultaneous deletions with one
//! concurrent protocol per dead component — mirroring
//! [`xheal_core::Xheal::heal_delete_batch`]'s grouping exactly.
//!
//! Rounds are O(log n) per repair and messages O(κ·deg(v)) amortized —
//! Theorem 5's budgets, measured for real by [`DistXheal::costs`] and
//! checked by experiments E5/E7. The substrate is
//! [`xheal_sim::AsyncNetwork`]: [`DistXheal::new`] runs it at
//! [`AsyncConfig::zero_latency`] (synchronous LOCAL-model rounds), and
//! [`DistXheal::with_engine`] takes any other latency, jitter or fault
//! model.
//!
//! Because the planner consumes the healer's seeded randomness identically
//! in every executor, [`DistXheal`] under *any* delivery model and
//! [`xheal_core::Xheal`] produce bit-identical topologies on identical
//! schedules — the cross-validation suite asserts exactly that, at zero
//! latency and under seeded latency.
//!
//! # Examples
//!
//! ```
//! use xheal_core::XhealConfig;
//! use xheal_dist::DistXheal;
//! use xheal_graph::{components, generators, NodeId};
//!
//! let mut net = DistXheal::new(&generators::star(10), XhealConfig::new(4));
//! net.delete(NodeId::new(0))?; // adversary kills the hub
//! assert!(components::is_connected(net.graph()));
//! let cost = &net.costs()[0];
//! assert!(cost.rounds > 0 && cost.messages > 0);
//! # Ok::<(), xheal_core::HealError>(())
//! ```
//!
//! The same protocol under message latency:
//!
//! ```
//! use xheal_core::XhealConfig;
//! use xheal_dist::DistXheal;
//! use xheal_graph::{components, generators, NodeId};
//! use xheal_sim::{AsyncConfig, AsyncNetwork};
//!
//! let g0 = generators::star(10);
//! let engine = AsyncNetwork::new(AsyncConfig::uniform(1, 3, 99));
//! let mut net = DistXheal::with_engine(&g0, XhealConfig::new(4), engine);
//! net.delete(NodeId::new(0))?;
//! assert!(components::is_connected(net.graph()));
//! # Ok::<(), xheal_core::HealError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod messages;

use std::collections::BTreeSet;

use xheal_core::{
    ApplyScratch, BatchReport, BatchVictim, DeletionReport, DistCost, Event, HealCase, HealError,
    HealingEngine, Outcome, RepairPlanner, SinkRegistry, TopologyDelta, TopologySink, XhealConfig,
};
use xheal_graph::{EdgeLabels, Graph, NodeId};
use xheal_sim::{AsyncConfig, AsyncNetwork, Counters, NetworkEngine};
use xheal_trace::{hook, Layer, SharedTracer};

use actor::{ActorRuntime, CostMeta};

pub use messages::Msg;
pub use xheal_core::RepairCost;

/// The distributed Xheal network: the live graph, the shared repair
/// planner, and the actor runtime executing every plan as messages over
/// the engine `N`.
#[derive(Clone, Debug)]
pub struct DistXheal<N: NetworkEngine<Msg> = AsyncNetwork<Msg>> {
    graph: Graph,
    planner: RepairPlanner,
    runtime: ActorRuntime<N>,
    costs: Vec<RepairCost>,
    /// Sequence number tagging each repair's messages.
    repair_seq: u64,
    /// Topology-delta subscribers (cloning the executor drops them).
    sinks: SinkRegistry,
    /// Reusable incident-edge buffer for the deletion hot loop.
    scratch_incident: Vec<(NodeId, EdgeLabels)>,
    /// Reusable grouped-application buffers for plan flushes.
    scratch_apply: ApplyScratch,
    /// Optional span recorder shared with the planner; `None` keeps every
    /// instrumentation site a single branch.
    tracer: Option<SharedTracer>,
}

impl DistXheal<AsyncNetwork<Msg>> {
    /// Wraps an initial network over the synchronous LOCAL model
    /// ([`AsyncConfig::zero_latency`]): every node becomes a processor; all
    /// existing edges are black, per the model.
    pub fn new(initial: &Graph, config: XhealConfig) -> Self {
        DistXheal::with_engine(
            initial,
            config,
            AsyncNetwork::new(AsyncConfig::zero_latency()),
        )
    }

    /// Starts a builder composing configuration, seeding, topology sinks,
    /// and the message engine before wrapping a network.
    ///
    /// # Examples
    ///
    /// ```
    /// use xheal_dist::DistXheal;
    /// use xheal_graph::generators;
    ///
    /// let net = DistXheal::builder()
    ///     .kappa(4)
    ///     .seed(7)
    ///     .build(&generators::star(8));
    /// assert_eq!(net.planner().kappa(), 4);
    /// ```
    pub fn builder() -> DistXhealBuilder<AsyncNetwork<Msg>> {
        DistXhealBuilder {
            config: XhealConfig::default(),
            engine: AsyncNetwork::new(AsyncConfig::zero_latency()),
            sinks: SinkRegistry::default(),
        }
    }
}

impl<N: NetworkEngine<Msg>> DistXheal<N> {
    /// Wraps an initial network over a caller-supplied engine (e.g. an
    /// [`xheal_sim::AsyncNetwork`] with latency and faults). Existing
    /// registrations in the engine are kept; every graph node is
    /// (idempotently) registered as a processor.
    pub fn with_engine(initial: &Graph, config: XhealConfig, mut engine: N) -> Self {
        engine.set_classifier(Msg::KIND_LABELS, |m| m.kind_index());
        let mut runtime = ActorRuntime::new(engine);
        for v in initial.nodes() {
            runtime.add_node(v);
        }
        DistXheal {
            graph: initial.clone(),
            planner: RepairPlanner::new(initial.nodes(), config),
            runtime,
            costs: Vec::new(),
            repair_seq: 0,
            sinks: SinkRegistry::default(),
            scratch_incident: Vec::new(),
            scratch_apply: ApplyScratch::default(),
            tracer: None,
        }
    }

    /// Attaches (or detaches, with `None`) a tracer recording protocol and
    /// planner spans. Protocol instants (`proto.round`, `proto.done`) land
    /// next to the planner's decision spans in the same ledger. Note that
    /// this executor's repair sequence advances per *protocol* (one per
    /// batch stage), so after batch deletions it runs ahead of the
    /// planner's per-plan sequence.
    pub fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        self.planner.set_tracer(tracer.clone());
        self.runtime.engine_mut().set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Registers a [`TopologySink`] observing every structural change this
    /// executor applies from now on (see
    /// [`HealingEngine::subscribe`]).
    pub fn subscribe(&mut self, sink: Box<dyn TopologySink>) {
        self.sinks.register(sink);
    }

    /// Checks that the processors registered in the engine are exactly the
    /// graph's nodes (the actor runtime mirrors the network membership).
    pub fn mirrors_graph(&self) -> bool {
        let graph_nodes: BTreeSet<NodeId> = self.graph.nodes().collect();
        graph_nodes.len() == self.engine().len()
            && graph_nodes.iter().all(|&v| self.engine().contains(v))
    }

    /// The current (healed) network graph `G_t`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared decision engine — identical state to a centralized
    /// [`xheal_core::Xheal`] replaying the same schedule with the same seed.
    pub fn planner(&self) -> &RepairPlanner {
        &self.planner
    }

    /// The message engine underneath the actors.
    pub fn engine(&self) -> &N {
        self.runtime.engine()
    }

    /// Per-repair protocol costs, ascending by repair sequence (deletion
    /// order; batch deletions contribute one entry per stage).
    pub fn costs(&self) -> &[RepairCost] {
        &self.costs
    }

    /// Engine-level totals (rounds, messages, drops) across the whole run.
    pub fn counters(&self) -> Counters {
        self.runtime.counters()
    }

    /// Sent messages broken down by protocol phase, as parallel
    /// `(labels, counts)` slices over [`Msg::KIND_LABELS`] — the
    /// observability hook orchestration layers read to see *where* the
    /// communication budget goes (probe/grant fan-out vs. splice gossip).
    pub fn message_breakdown(&self) -> (&'static [&'static str], &[u64]) {
        self.engine().kind_counts()
    }

    /// Adversarial insertion of `v` with black edges to `neighbors`.
    /// No healing action and no messages (Algorithm 3.1 lines 1–2) — the
    /// new processor is just registered.
    ///
    /// # Errors
    ///
    /// [`HealError::NodeExists`] if `v` is present;
    /// [`HealError::NeighborMissing`] if any neighbor is absent.
    pub fn insert(&mut self, v: NodeId, neighbors: &[NodeId]) -> Result<(), HealError> {
        if self.graph.contains_node(v) {
            return Err(HealError::NodeExists(v));
        }
        for &u in neighbors {
            if !self.graph.contains_node(u) {
                return Err(HealError::NeighborMissing(u));
            }
        }
        self.graph.add_node(v).expect("checked fresh");
        if !self.sinks.is_empty() {
            self.sinks.emit(TopologyDelta::NodeAdded(v));
        }
        for &u in neighbors {
            if u != v {
                let created = self.graph.add_black_edge(v, u).unwrap_or(false);
                if created && !self.sinks.is_empty() {
                    self.sinks.emit(TopologyDelta::EdgeAdded {
                        a: v,
                        b: u,
                        color: None,
                    });
                }
            }
        }
        self.planner.note_insert(v);
        self.runtime.add_node(v);
        Ok(())
    }

    /// Adversarial deletion of `v`, healed by running the repair plan as a
    /// probe/grant/link/splice actor protocol over the engine.
    ///
    /// # Errors
    ///
    /// [`HealError::NodeMissing`] if `v` is not in the network.
    pub fn delete(&mut self, v: NodeId) -> Result<DeletionReport, HealError> {
        let report = self.start_deletion(v)?;
        self.run_protocol();
        self.collect_costs();
        Ok(report)
    }

    /// Deletes every victim (in order), then runs all their repair
    /// protocols **concurrently**: the deletions are planned with
    /// sequential semantics — so the healed topology is bit-identical to
    /// deleting them one at a time — but their probe/grant/link/splice
    /// exchanges interleave in flight, which is what overlapping failures
    /// look like on a real network. Per-repair costs are tagged by
    /// sequence number and never bleed into each other.
    ///
    /// # Errors
    ///
    /// [`HealError::NodeMissing`] if any victim is absent, and
    /// [`HealError::DuplicateVictim`] if one is listed twice (both checked
    /// before any mutation).
    pub fn delete_many(&mut self, victims: &[NodeId]) -> Result<Vec<DeletionReport>, HealError> {
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for &v in victims {
            if !self.graph.contains_node(v) {
                return Err(HealError::NodeMissing(v));
            }
            if !seen.insert(v) {
                return Err(HealError::DuplicateVictim(v));
            }
        }
        let mut reports = Vec::with_capacity(victims.len());
        for &v in victims {
            reports.push(self.start_deletion(v).expect("validated above"));
        }
        self.run_protocol();
        self.collect_costs();
        Ok(reports)
    }

    /// Deletes all `victims` **simultaneously** and heals each dead
    /// component with its own concurrent repair protocol — the distributed
    /// mirror of [`xheal_core::Xheal::heal_delete_batch`], consuming the
    /// identical [`xheal_core::BatchRepairPlan`], hence producing the
    /// identical topology.
    ///
    /// Costs are recorded per stage (the shared detach prologue when it
    /// does structural work, then one entry per dead component), labelled
    /// [`HealCase::Batch`].
    ///
    /// # Errors
    ///
    /// As in [`xheal_core::BatchVictim::validate`]: [`HealError::NodeMissing`]
    /// for an absent victim, [`HealError::DuplicateVictim`] for one listed
    /// twice (checked before any mutation).
    pub fn delete_batch(&mut self, victims: &[NodeId]) -> Result<BatchReport, HealError> {
        let ctx = BatchVictim::capture(&self.graph, victims)?;
        for bv in &ctx {
            let _ = self.graph.remove_node(bv.node);
            self.runtime.remove_node(bv.node);
            if !self.sinks.is_empty() {
                self.sinks.emit(TopologyDelta::NodeRemoved(bv.node));
            }
        }
        let plan = self.planner.plan_batch_deletion(&ctx);
        plan.apply_streamed_with(&mut self.graph, &mut self.sinks, &mut self.scratch_apply);
        let dead: Vec<NodeId> = ctx.iter().map(|bv| bv.node).collect();
        for stage in &plan.stages {
            if stage.component.is_empty() && stage.actions.is_empty() {
                continue; // structurally empty detach prologue
            }
            self.repair_seq += 1;
            hook::instant(
                &self.tracer,
                Layer::Protocol,
                "proto.launch",
                self.repair_seq,
                stage.actions.len() as u64,
            );
            let black_degree = stage
                .component
                .iter()
                .map(|v| {
                    let i = ctx.binary_search_by_key(v, |bv| bv.node).expect("victim");
                    ctx[i].black_boundary.len()
                })
                .sum();
            self.runtime.begin_repair(
                self.repair_seq,
                &stage.actions,
                &dead,
                CostMeta {
                    case: HealCase::Batch,
                    black_degree,
                    degree: stage.component.len(),
                    combined: false,
                },
            );
        }
        self.run_protocol();
        self.collect_costs();
        Ok(plan.report)
    }

    /// Like [`DistXheal::delete`], but the adversary additionally kills
    /// `casualty` *mid-protocol* (right after the probe wave), so every
    /// later message addressed to it is dropped by the engine — visible in
    /// [`DistXheal::counters`]'s `dropped` — and the casualty itself is
    /// healed immediately afterwards. If the casualty was the repair's
    /// coordinator, the state machine fails over to the next live
    /// participant. Fault-injection surface for testing protocol
    /// robustness.
    ///
    /// # Errors
    ///
    /// [`HealError::NodeMissing`] if either node is absent (`casualty` must
    /// also differ from `v`).
    pub fn delete_with_mid_protocol_failure(
        &mut self,
        v: NodeId,
        casualty: NodeId,
    ) -> Result<(DeletionReport, DeletionReport), HealError> {
        if casualty == v || !self.graph.contains_node(casualty) {
            return Err(HealError::NodeMissing(casualty));
        }
        let first = self.start_deletion(v)?;
        if self.runtime.has_pending() {
            self.runtime.step_once(); // deliver the probe wave…
        }
        self.runtime.remove_node(casualty); // …then the adversary strikes
        self.run_protocol();
        self.collect_costs();
        let second = self.delete(casualty)?;
        Ok((first, second))
    }

    /// Removes `v` from graph and engine, plans its repair, applies the
    /// plan to the graph, and kicks off the protocol — without running it.
    fn start_deletion(&mut self, v: NodeId) -> Result<DeletionReport, HealError> {
        if !self.graph.contains_node(v) {
            return Err(HealError::NodeMissing(v));
        }
        let degree = self.graph.degree(v).expect("checked present");
        let mut incident = std::mem::take(&mut self.scratch_incident);
        incident.clear();
        self.graph
            .remove_node_into(v, &mut incident)
            .expect("checked present");
        self.runtime.remove_node(v);
        if !self.sinks.is_empty() {
            self.sinks.emit(TopologyDelta::NodeRemoved(v));
        }
        let plan = self.planner.plan_deletion(v, &incident, degree);
        plan.apply_streamed_with(&mut self.graph, &mut self.sinks, &mut self.scratch_apply);
        self.repair_seq += 1;
        hook::instant(
            &self.tracer,
            Layer::Protocol,
            "proto.launch",
            self.repair_seq,
            plan.actions.len() as u64,
        );
        self.runtime.begin_repair(
            self.repair_seq,
            &plan.actions,
            &[v],
            CostMeta {
                case: plan.case(),
                black_degree: plan.report.black_degree,
                degree,
                combined: plan.report.combined,
            },
        );
        incident.clear();
        self.scratch_incident = incident;
        Ok(plan.report)
    }

    /// Runs every active repair protocol to completion, recording one
    /// `proto.round` instant per engine round when a tracer is attached.
    fn run_protocol(&mut self) {
        if self.tracer.is_none() {
            self.runtime.run_active();
            return;
        }
        hook::begin(&self.tracer, Layer::Protocol, "proto.run", 0, 0);
        let mut rounds = 0u64;
        while self.runtime.has_pending() {
            let before = self.runtime.counters();
            self.runtime.step_once();
            let moved = self.runtime.counters().since(before).messages;
            rounds += 1;
            hook::instant(&self.tracer, Layer::Protocol, "proto.round", 0, moved);
        }
        // Close out repairs whose live participants all died (mirrors the
        // stuck-repair handling inside `run_active`).
        self.runtime.run_active();
        hook::end(&self.tracer, Layer::Protocol, "proto.run", 0, rounds);
    }

    fn collect_costs(&mut self) {
        let completed = self.runtime.take_completed();
        for c in &completed {
            hook::instant(
                &self.tracer,
                Layer::Protocol,
                "proto.done",
                c.repair,
                c.messages,
            );
        }
        self.costs.extend(completed);
    }
}

impl<N: NetworkEngine<Msg>> DistXheal<N> {
    /// Snapshot of the cost state, taken before an event is applied so the
    /// event's [`DistCost`] can be carved out afterwards.
    fn cost_mark(&self) -> (usize, Counters) {
        (self.costs.len(), self.counters())
    }

    /// The [`DistCost`] accrued since `mark`: wall-clock engine totals plus
    /// the per-repair records the event appended.
    fn cost_since(&self, mark: (usize, Counters)) -> DistCost {
        let (costs_len, counters) = mark;
        let spent = self.counters().since(counters);
        DistCost {
            rounds: spent.rounds,
            messages: spent.messages,
            repairs: self.costs[costs_len..].to_vec(),
        }
    }
}

impl<N: NetworkEngine<Msg>> HealingEngine for DistXheal<N> {
    fn name(&self) -> &'static str {
        "xheal-dist"
    }

    fn graph(&self) -> &Graph {
        DistXheal::graph(self)
    }

    fn apply(&mut self, event: &Event) -> Result<Outcome, HealError> {
        match event {
            Event::Insert { node, neighbors } => {
                self.insert(*node, neighbors)?;
                Ok(Outcome::Inserted { cost: None })
            }
            Event::Delete { node } => {
                let mark = self.cost_mark();
                let report = self.delete(*node)?;
                Ok(Outcome::Healed {
                    report,
                    cost: Some(self.cost_since(mark)),
                })
            }
            Event::DeleteBatch { nodes } => {
                let mark = self.cost_mark();
                let report = self.delete_batch(nodes)?;
                Ok(Outcome::Batch {
                    report,
                    cost: Some(self.cost_since(mark)),
                })
            }
        }
    }

    fn subscribe(&mut self, sink: Box<dyn TopologySink>) {
        DistXheal::subscribe(self, sink);
    }

    fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        DistXheal::set_tracer(self, tracer);
    }
}

/// Builder for [`DistXheal`]: composes configuration, seeding, topology
/// sinks, and the message engine. Start from [`DistXheal::builder`] (the
/// zero-latency engine) and swap delivery models with
/// [`DistXhealBuilder::engine`].
///
/// # Examples
///
/// ```
/// use xheal_dist::{DistXheal, Msg};
/// use xheal_graph::generators;
/// use xheal_sim::{AsyncConfig, AsyncNetwork};
///
/// let net = DistXheal::builder()
///     .kappa(4)
///     .seed(7)
///     .engine(AsyncNetwork::<Msg>::new(AsyncConfig::uniform(1, 3, 9)))
///     .build(&generators::star(8));
/// assert_eq!(net.planner().kappa(), 4);
/// ```
#[derive(Debug)]
pub struct DistXhealBuilder<N: NetworkEngine<Msg>> {
    config: XhealConfig,
    engine: N,
    sinks: SinkRegistry,
}

impl<N: NetworkEngine<Msg>> DistXhealBuilder<N> {
    /// Sets the cloud expander degree κ.
    ///
    /// # Panics
    ///
    /// Panics if `kappa` is odd or less than 2 (see [`XhealConfig::new`]).
    #[must_use]
    pub fn kappa(mut self, kappa: usize) -> Self {
        self.config = self.config.with_kappa(kappa);
        self
    }

    /// Sets the healer randomness seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replaces the whole configuration (keeping engine and sinks).
    #[must_use]
    pub fn config(mut self, config: XhealConfig) -> Self {
        self.config = config;
        self
    }

    /// Swaps the message-delivery substrate (e.g. an
    /// [`xheal_sim::AsyncNetwork`] with latency and faults).
    #[must_use]
    pub fn engine<M: NetworkEngine<Msg>>(self, engine: M) -> DistXhealBuilder<M> {
        DistXhealBuilder {
            config: self.config,
            engine,
            sinks: self.sinks,
        }
    }

    /// Registers a [`TopologySink`] the executor starts with.
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn TopologySink>) -> Self {
        self.sinks.register(sink);
        self
    }

    /// Wraps `initial`, consuming the builder.
    pub fn build(self, initial: &Graph) -> DistXheal<N> {
        let mut net = DistXheal::with_engine(initial, self.config, self.engine);
        net.sinks = self.sinks;
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use xheal_core::Xheal;
    use xheal_graph::{components, generators};

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn star_deletion_matches_centralized() {
        let g0 = generators::star(12);
        let cfg = XhealConfig::new(4).with_seed(5);
        let mut central = Xheal::new(&g0, cfg.clone());
        let mut dist = DistXheal::new(&g0, cfg);
        central.heal_delete(n(0)).unwrap();
        dist.delete(n(0)).unwrap();
        assert_eq!(central.graph(), dist.graph());
        assert_eq!(central.stats(), dist.planner().stats());
    }

    #[test]
    fn costs_record_case_and_degree() {
        let mut dist = DistXheal::new(&generators::star(9), XhealConfig::new(4).with_seed(1));
        dist.delete(n(0)).unwrap();
        let c = &dist.costs()[0];
        assert_eq!(c.repair, 1);
        assert_eq!(c.case, HealCase::AllBlack);
        assert_eq!(c.black_degree, 8);
        assert_eq!(c.degree, 8);
        assert!(c.rounds >= 3, "probe, grant, link at minimum");
        assert!(c.messages as usize >= 2 * 8, "probe+grant to 8 leaves");
    }

    #[test]
    fn dropped_deletion_costs_nothing() {
        let mut dist = DistXheal::new(&generators::path(4), XhealConfig::default());
        dist.delete(n(0)).unwrap();
        let c = &dist.costs()[0];
        assert_eq!(c.case, HealCase::Dropped);
        assert_eq!((c.rounds, c.messages), (0, 0));
    }

    #[test]
    fn churn_keeps_network_and_engine_in_step() {
        let mut rng = StdRng::seed_from_u64(3);
        let g0 = generators::connected_erdos_renyi(24, 0.15, &mut rng);
        let mut dist = DistXheal::new(&g0, XhealConfig::new(4).with_seed(9));
        let mut next = 1000u64;
        for step in 0..40 {
            let nodes = dist.graph().node_vec();
            if step % 3 == 0 {
                let u = nodes[rng.random_range(0..nodes.len())];
                dist.insert(n(next), &[u]).unwrap();
                next += 1;
            } else {
                let victim = nodes[rng.random_range(0..nodes.len())];
                dist.delete(victim).unwrap();
            }
            assert!(components::is_connected(dist.graph()), "step {step}");
            assert!(dist.mirrors_graph(), "step {step}");
        }
    }

    #[test]
    fn mid_protocol_failure_drops_messages_but_converges() {
        let mut rng = StdRng::seed_from_u64(11);
        let g0 = generators::connected_erdos_renyi(30, 0.12, &mut rng);
        let mut dist = DistXheal::new(&g0, XhealConfig::new(4).with_seed(2));
        // Warm up so clouds exist and plans touch many nodes.
        for _ in 0..6 {
            let nodes = dist.graph().node_vec();
            dist.delete(nodes[rng.random_range(0..nodes.len())])
                .unwrap();
        }
        assert_eq!(
            dist.counters().dropped,
            0,
            "clean protocol runs never drop messages"
        );
        // Kill a neighbor of the victim mid-protocol: it participates in
        // the repair, so link/splice messages addressed to it get dropped.
        let v = dist
            .graph()
            .node_vec()
            .into_iter()
            .max_by_key(|&u| dist.graph().degree(u))
            .unwrap();
        let casualty = dist.graph().neighbors(v).next().unwrap();
        dist.delete_with_mid_protocol_failure(v, casualty).unwrap();
        assert!(
            dist.counters().dropped > 0,
            "in-flight messages were dropped"
        );
        assert!(!dist.graph().contains_node(v));
        assert!(!dist.graph().contains_node(casualty));
        assert!(components::is_connected(dist.graph()));
        assert_eq!(dist.costs().len(), 8, "both deletions accounted");
    }

    #[test]
    fn coordinator_death_mid_protocol_fails_over() {
        // The casualty is chosen as the plan's coordinator (the least-id
        // participant): a successor must finish the repair.
        let g0 = generators::star(10);
        let mut dist = DistXheal::new(&g0, XhealConfig::new(4).with_seed(7));
        // Deleting the hub makes every leaf a participant; the least-id
        // leaf (node 1) coordinates. Kill it mid-protocol.
        dist.delete_with_mid_protocol_failure(n(0), n(1)).unwrap();
        assert!(components::is_connected(dist.graph()));
        assert_eq!(dist.graph().node_count(), 8);
    }

    #[test]
    fn insert_and_delete_validation_errors() {
        let mut dist = DistXheal::new(&generators::cycle(5), XhealConfig::default());
        assert_eq!(dist.insert(n(0), &[]), Err(HealError::NodeExists(n(0))));
        assert_eq!(
            dist.insert(n(9), &[n(44)]),
            Err(HealError::NeighborMissing(n(44)))
        );
        assert_eq!(
            dist.delete(n(77)).map(|_| ()).unwrap_err(),
            HealError::NodeMissing(n(77))
        );
        assert_eq!(
            dist.delete_with_mid_protocol_failure(n(0), n(0))
                .map(|_| ())
                .unwrap_err(),
            HealError::NodeMissing(n(0))
        );
        assert_eq!(
            dist.delete_many(&[n(1), n(1)]).unwrap_err(),
            HealError::DuplicateVictim(n(1))
        );
        assert_eq!(
            dist.delete_batch(&[n(404)]).unwrap_err(),
            HealError::NodeMissing(n(404))
        );
    }

    #[test]
    fn delete_many_matches_sequential_deletes_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        let g0 = generators::connected_erdos_renyi(32, 0.12, &mut rng);
        let cfg = XhealConfig::new(4).with_seed(77);
        let mut sequential = DistXheal::new(&g0, cfg.clone());
        let mut concurrent = DistXheal::new(&g0, cfg);
        let victims: Vec<NodeId> = g0.node_vec().into_iter().take(6).collect();
        for &v in &victims {
            sequential.delete(v).unwrap();
        }
        let reports = concurrent.delete_many(&victims).unwrap();
        assert_eq!(reports.len(), 6);
        assert_eq!(sequential.graph(), concurrent.graph());
        assert_eq!(sequential.planner().stats(), concurrent.planner().stats());
        assert!(components::is_connected(concurrent.graph()));
        // Six repairs, each with its own tagged cost.
        assert_eq!(concurrent.costs().len(), 6);
        let repairs: Vec<u64> = concurrent.costs().iter().map(|c| c.repair).collect();
        assert_eq!(repairs, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn concurrent_repairs_interleave_in_flight() {
        // With several protocols in the air at once, the wall-clock rounds
        // of the whole burst are far below the sum of per-repair rounds.
        let mut rng = StdRng::seed_from_u64(33);
        let g0 = generators::random_regular(64, 6, &mut rng);
        let mut dist = DistXheal::new(&g0, XhealConfig::new(4).with_seed(3));
        let victims: Vec<NodeId> = g0.node_vec().into_iter().step_by(9).take(6).collect();
        let before = dist.counters();
        dist.delete_many(&victims).unwrap();
        let spent = dist.counters().since(before);
        let per_repair_sum: u64 = dist.costs().iter().map(|c| c.rounds).sum();
        assert!(
            spent.rounds < per_repair_sum,
            "burst took {} rounds but repairs sum to {per_repair_sum} — no overlap happened",
            spent.rounds
        );
        assert!(components::is_connected(dist.graph()));
    }

    #[test]
    fn delete_batch_matches_centralized_batch() {
        let mut rng = StdRng::seed_from_u64(41);
        let g0 = generators::connected_erdos_renyi(40, 0.1, &mut rng);
        let cfg = XhealConfig::new(4).with_seed(13);
        let mut central = Xheal::new(&g0, cfg.clone());
        let mut dist = DistXheal::new(&g0, cfg);
        let victims: Vec<NodeId> = g0.node_vec().into_iter().take(5).collect();
        let cr = central.heal_delete_batch(&victims).unwrap();
        let dr = dist.delete_batch(&victims).unwrap();
        assert_eq!(central.graph(), dist.graph(), "batch topologies diverged");
        assert_eq!(central.stats(), dist.planner().stats());
        assert_eq!(cr.components, dr.components);
        assert!(components::is_connected(dist.graph()));
        let batch_costs: Vec<&RepairCost> = dist
            .costs()
            .iter()
            .filter(|c| c.case == HealCase::Batch)
            .collect();
        assert!(!batch_costs.is_empty());
        assert!(batch_costs.iter().any(|c| c.messages > 0));
    }

    #[test]
    fn async_engine_with_latency_still_heals_identically() {
        let mut rng = StdRng::seed_from_u64(60);
        let g0 = generators::connected_erdos_renyi(28, 0.14, &mut rng);
        let cfg = XhealConfig::new(4).with_seed(23);
        let mut central = Xheal::new(&g0, cfg.clone());
        let engine: AsyncNetwork<Msg> =
            AsyncNetwork::new(AsyncConfig::uniform(1, 4, 7).with_jitter(2));
        let mut dist = DistXheal::with_engine(&g0, cfg, engine);
        for i in 0..8 {
            let nodes = central.graph().node_vec();
            let victim = nodes[(i * 3) % nodes.len()];
            central.heal_delete(victim).unwrap();
            dist.delete(victim).unwrap();
        }
        // Latency delays messages but decisions are the planner's: the
        // healed topology is unchanged, only the measured rounds grow.
        assert_eq!(central.graph(), dist.graph());
        assert!(dist.costs().iter().any(|c| c.rounds > 0));
        assert!(components::is_connected(dist.graph()));
    }

    #[test]
    fn drop_faults_do_not_stall_repairs() {
        let mut rng = StdRng::seed_from_u64(71);
        let g0 = generators::connected_erdos_renyi(26, 0.15, &mut rng);
        let engine: AsyncNetwork<Msg> =
            AsyncNetwork::new(AsyncConfig::uniform(1, 3, 5).with_drop_prob(0.08));
        let mut dist = DistXheal::with_engine(&g0, XhealConfig::new(4).with_seed(31), engine);
        for _ in 0..10 {
            let nodes = dist.graph().node_vec();
            let victim = nodes[rng.random_range(0..nodes.len())];
            dist.delete(victim).unwrap();
            assert!(components::is_connected(dist.graph()));
        }
        assert!(
            dist.counters().dropped > 0,
            "an 8% fault rate must actually lose messages"
        );
        assert_eq!(dist.costs().len(), 10, "every repair completed");
    }
}
