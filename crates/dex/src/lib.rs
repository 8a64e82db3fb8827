//! # xheal-dex
//!
//! A deterministic implementation of **DEX: Self-healing Expanders**
//! (Pandurangan, Robinson & Trehan; see PAPERS.md) as the workspace's tenth
//! [`HealingEngine`] — the natural rival to Xheal. Where Xheal guarantees a
//! constant-*factor* degree increase by patching deletions with expander
//! clouds, DEX maintains a constant-*degree* expander outright by running the
//! network on a virtual-node overlay:
//!
//! - every real node hosts between 1 and `max_load` **virtual nodes**;
//! - the virtual nodes form a `d`-regular multigraph of port pairings
//!   (the private `overlay` module);
//! - an **insertion** either takes over a spare virtual node from the most
//!   loaded host or *splits* an existing virtual node in two;
//! - a **deletion** re-homes the victim's virtual nodes onto neighboring
//!   hosts and *merges* virtual nodes wherever a host exceeds `max_load`,
//!   splicing excess port pairs so no other node's degree moves.
//!
//! The real network [`Dex::graph`] is the projection of the overlay: real
//! nodes `x != y` are connected iff some virtual node hosted by `x` has a
//! port paired with one hosted by `y`. Since a real node hosts at most
//! `max_load` virtual nodes of degree `d`, its real degree is **hard-bounded
//! by `max_load * d`** ([`Dex::degree_bound`]) no matter what the adversary
//! does — the property the arena harness asserts in-process.
//!
//! Projection edges are emitted as *colored* [`TopologyDelta`]s under the
//! reserved [`DEX_CLOUD`] color: DEX rebuilds topology instead of preserving
//! adversarial edges. No edge colour decides `G'` anywhere in the
//! workspace: the monitor and `xheal_workload::RunSummary::gprime` both
//! build it from the event tape, starting from the graph the run starts
//! with, which for DEX is its bootstrap projection.
//!
//! Determinism: all placement and sampling decisions come from one seeded
//! [`StdRng`] plus ordered (`BTreeMap`) iteration, so identical event
//! sequences against identical seeds reproduce identical graphs — pinned by
//! proptest in the integration suite.
//!
//! # Examples
//!
//! ```
//! use xheal_core::{Event, HealingEngine};
//! use xheal_dex::{Dex, DexConfig};
//! use xheal_graph::{components, generators, NodeId};
//!
//! let mut dex = Dex::new(&generators::cycle(16), DexConfig::default());
//! dex.apply(&Event::Delete { node: NodeId::new(3) })?;
//! assert!(components::is_connected(dex.graph()));
//! let bound = dex.degree_bound();
//! assert!(dex.graph().node_vec().iter().all(|&v| dex.graph().degree(v).unwrap() <= bound));
//! # Ok::<(), xheal_core::HealError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod overlay;

use std::collections::{BTreeMap, BTreeSet};

use overlay::{Overlay, Vid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xheal_core::{
    BatchReport, BatchVictim, DeletionReport, DistCost, Event, HealCase, HealError, HealingEngine,
    Outcome, SinkRegistry, TopologyDelta, TopologySink,
};
use xheal_graph::{CloudColor, Graph, NodeId};
use xheal_trace::{hook, Layer, SharedTracer};

/// The cloud color all DEX overlay edges carry: DEX owns its whole topology,
/// so one reserved color marks every projected edge as healer-installed
/// (never part of the black reference graph `G'`).
pub const DEX_CLOUD: CloudColor = CloudColor::new(0xDECAF);

/// Tuning knobs for [`Dex`].
#[derive(Clone, Copy, Debug)]
pub struct DexConfig {
    /// Port count of every virtual node — must be even and at least 2.
    /// Higher `d` buys expansion at the price of degree.
    pub degree: usize,
    /// Most virtual nodes one real node may host (at least 1). The hard
    /// real-degree bound is `max_load * degree`.
    pub max_load: usize,
    /// Seed for all placement/sampling decisions.
    pub seed: u64,
}

impl Default for DexConfig {
    fn default() -> Self {
        DexConfig {
            degree: 8,
            max_load: 3,
            seed: 0xDE_C5,
        }
    }
}

/// The DEX engine: a constant-degree self-healing expander.
///
/// See the crate docs for the model; construct with [`Dex::new`], drive with
/// [`HealingEngine::apply`]. Note that DEX is *reconfigurable*: it owns the
/// network topology outright, so the initial graph contributes **membership
/// only** — `Dex::new` immediately rewires those nodes into the overlay
/// projection. Mirrors and monitors should therefore be seeded from
/// [`Dex::graph`] *after* construction rather than from the pre-DEX graph.
#[derive(Clone, Debug)]
pub struct Dex {
    cfg: DexConfig,
    overlay: Overlay,
    /// Virtual node → hosting real node.
    host_of: BTreeMap<Vid, u64>,
    /// Real node → sorted virtual nodes it hosts (always 1..=max_load).
    hosted: BTreeMap<u64, Vec<Vid>>,
    /// The projected real network (all edges colored [`DEX_CLOUD`]).
    graph: Graph,
    /// Current projected edge set, kept to diff against after overlay ops.
    pairs: BTreeSet<(u64, u64)>,
    sinks: SinkRegistry,
    rng: StdRng,
    /// Colored edges added/removed by the event being applied.
    ev_added: usize,
    ev_removed: usize,
    /// Optional executor-span recorder; `None` keeps `apply` branch-only.
    tracer: Option<SharedTracer>,
    /// Repairs executed so far — the span/forensics key for each deletion.
    repair_seq: u64,
}

impl Dex {
    /// Builds a DEX network over the *nodes* of `initial` (its edges are
    /// discarded — DEX rewires membership into its own constant-degree
    /// expander; see the type docs).
    ///
    /// # Panics
    ///
    /// If `cfg.degree` is odd or less than 2, or `cfg.max_load` is 0.
    pub fn new(initial: &Graph, cfg: DexConfig) -> Self {
        assert!(
            cfg.degree >= 2 && cfg.degree % 2 == 0,
            "DexConfig::degree must be even and >= 2"
        );
        assert!(cfg.max_load >= 1, "DexConfig::max_load must be >= 1");
        let mut nodes: Vec<u64> = initial.node_vec().iter().map(|v| v.as_u64()).collect();
        nodes.sort_unstable();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let overlay = Overlay::bootstrap(cfg.degree, nodes.len(), &mut rng);
        let mut graph = Graph::new();
        let mut host_of = BTreeMap::new();
        let mut hosted = BTreeMap::new();
        for (vid, &node) in nodes.iter().enumerate() {
            graph.add_node(NodeId::new(node)).expect("fresh node");
            host_of.insert(vid as Vid, node);
            hosted.insert(node, vec![vid as Vid]);
        }
        let mut dex = Dex {
            cfg,
            overlay,
            host_of,
            hosted,
            graph,
            pairs: BTreeSet::new(),
            sinks: SinkRegistry::default(),
            rng,
            ev_added: 0,
            ev_removed: 0,
            tracer: None,
            repair_seq: 0,
        };
        dex.reconcile();
        dex
    }

    /// The engine name used in arena tables and experiment sweeps.
    pub fn name(&self) -> &'static str {
        "dex"
    }

    /// The current projected real network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Attaches (or detaches, with `None`) a tracer recording executor spans
    /// (`exec.insert` / `exec.repair` / `exec.batch`) keyed by DEX's own
    /// repair sequence.
    pub fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        self.tracer = tracer;
    }

    /// The hard upper bound on any real node's degree: `max_load * degree`.
    /// Holds unconditionally — a real node hosts at most `max_load` virtual
    /// nodes with `degree` ports each, and every projected edge consumes at
    /// least one port.
    pub fn degree_bound(&self) -> usize {
        self.cfg.max_load * self.cfg.degree
    }

    /// Virtual nodes currently alive in the overlay.
    pub fn vnode_count(&self) -> usize {
        self.overlay.vnode_count()
    }

    /// Panics unless every internal invariant holds: overlay `d`-regularity,
    /// host loads within `1..=max_load`, host tables consistent, and the
    /// real graph exactly equal to the overlay projection. Test/debug aid.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        self.overlay.assert_invariants();
        assert_eq!(self.host_of.len(), self.overlay.vnode_count());
        let mut by_host: BTreeMap<u64, Vec<Vid>> = BTreeMap::new();
        for (&vid, &host) in &self.host_of {
            by_host.entry(host).or_default().push(vid);
        }
        assert_eq!(by_host, self.hosted, "host tables diverged");
        for (host, vids) in &self.hosted {
            assert!(
                (1..=self.cfg.max_load).contains(&vids.len()),
                "host {host} load {} outside 1..={}",
                vids.len(),
                self.cfg.max_load
            );
            assert!(
                self.graph.contains_node(NodeId::new(*host)),
                "host {host} not in graph"
            );
        }
        assert_eq!(self.graph.node_count(), self.hosted.len());
        assert_eq!(self.projected_pairs(), self.pairs, "stale pair cache");
        assert_eq!(self.graph.edge_count(), self.pairs.len());
        for &(a, b) in &self.pairs {
            assert!(self.graph.has_edge(NodeId::new(a), NodeId::new(b)));
        }
        let bound = self.degree_bound();
        for v in self.graph.node_vec() {
            let deg = self.graph.degree(v).unwrap();
            assert!(deg <= bound, "{v} degree {deg} > bound {bound}");
            assert!(
                self.graph.black_neighbors(v).is_empty(),
                "{v} has black edges"
            );
        }
    }

    // -- event plumbing ----------------------------------------------------

    fn insert(&mut self, v: NodeId, neighbors: &[NodeId]) -> Result<(), HealError> {
        if self.graph.contains_node(v) {
            return Err(HealError::NodeExists(v));
        }
        for &u in neighbors {
            if !self.graph.contains_node(u) {
                return Err(HealError::NeighborMissing(u));
            }
        }
        self.graph.add_node(v).expect("fresh");
        if !self.sinks.is_empty() {
            self.sinks.emit(TopologyDelta::NodeAdded(v));
        }
        let raw = v.as_u64();
        // Placement, in priority order: take over a spare virtual node from
        // the most loaded host; else split one (preferring a virtual node
        // hosted by a requested contact point); else the network was empty.
        if let Some(donor) = self.most_loaded_spare_host() {
            let vid = self
                .hosted
                .get_mut(&donor)
                .expect("donor host")
                .pop()
                .expect("spare vnode");
            self.host_of.insert(vid, raw);
            self.hosted.insert(raw, vec![vid]);
        } else if self.overlay.vnode_count() == 0 {
            let vid = self.overlay.fresh_isolated();
            self.host_of.insert(vid, raw);
            self.hosted.insert(raw, vec![vid]);
        } else {
            let mut candidates: Vec<Vid> = neighbors
                .iter()
                .filter_map(|u| self.hosted.get(&u.as_u64()))
                .flat_map(|vids| vids.iter().copied())
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            let w = if candidates.is_empty() {
                self.overlay.random_vid(&mut self.rng).expect("non-empty")
            } else {
                candidates[self.rng.random_range(0..candidates.len())]
            };
            let w2 = self.overlay.split(w);
            self.host_of.insert(w2, raw);
            self.hosted.insert(raw, vec![w2]);
        }
        self.reconcile();
        Ok(())
    }

    /// Deletes `v`, re-homes its virtual nodes, and enforces the load cap by
    /// merging. Returns `(victim degree, merges run, vnodes re-homed)`.
    fn delete_one(&mut self, v: NodeId) -> Result<(usize, usize, usize), HealError> {
        if !self.graph.contains_node(v) {
            return Err(HealError::NodeMissing(v));
        }
        let raw = v.as_u64();
        let degree = self.graph.degree(v).expect("checked");
        let orphans = self.hosted.remove(&raw).expect("every node hosts");
        self.graph.remove_node(v).expect("checked");
        if !self.sinks.is_empty() {
            self.sinks.emit(TopologyDelta::NodeRemoved(v));
        }
        // NodeRemoved implies incident-edge removal downstream; drop those
        // pairs from the cache without emitting edge deltas.
        self.pairs.retain(|&(a, b)| a != raw && b != raw);
        for &w in &orphans {
            self.host_of.remove(&w);
        }
        if self.hosted.is_empty() {
            // The network emptied out; the overlay dies with it.
            self.overlay.clear();
            self.reconcile();
            return Ok((degree, 0, 0));
        }
        // Re-home every orphan, preferring the least-loaded host among the
        // orphan's overlay peers (locality), falling back to the global
        // least-loaded host when all its peers are orphans too.
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        for &w in &orphans {
            let mut peer_hosts: Vec<u64> = self
                .overlay
                .peer_vids(w)
                .into_iter()
                .filter_map(|p| self.host_of.get(&p).copied())
                .collect();
            peer_hosts.sort_unstable();
            peer_hosts.dedup();
            let new_host = peer_hosts
                .into_iter()
                .min_by_key(|h| (self.hosted[h].len(), *h))
                .unwrap_or_else(|| {
                    *self
                        .hosted
                        .iter()
                        .min_by_key(|(h, vids)| (vids.len(), **h))
                        .expect("non-empty")
                        .0
                });
            self.host_of.insert(w, new_host);
            let list = self.hosted.get_mut(&new_host).expect("host");
            let pos = list.partition_point(|&x| x < w);
            list.insert(pos, w);
            touched.insert(new_host);
        }
        // Merge virtual nodes wherever a host went over the load cap.
        let mut merges = 0;
        for host in touched {
            while self.hosted[&host].len() > self.cfg.max_load {
                let list = &self.hosted[&host];
                // Prefer merging an adjacent pair (cheapest splice: their
                // shared edges become droppable self-loops).
                let mut pick = (list[0], list[1]);
                'outer: for i in 0..list.len() {
                    for j in i + 1..list.len() {
                        if self.overlay.adjacent(list[i], list[j]) {
                            pick = (list[i], list[j]);
                            break 'outer;
                        }
                    }
                }
                let (keep, absorb) = pick;
                self.overlay.merge(keep, absorb);
                self.host_of.remove(&absorb);
                let list = self.hosted.get_mut(&host).expect("host");
                list.retain(|&x| x != absorb);
                merges += 1;
            }
        }
        // Merging splices port pairs; in rare shapes that can strand a
        // component — repair with degree-preserving 2-swaps.
        self.overlay.ensure_connected();
        self.reconcile();
        Ok((degree, merges, orphans.len()))
    }

    fn most_loaded_spare_host(&self) -> Option<u64> {
        self.hosted
            .iter()
            .filter(|(_, vids)| vids.len() >= 2)
            .max_by_key(|(h, vids)| (vids.len(), std::cmp::Reverse(**h)))
            .map(|(h, _)| *h)
    }

    /// The real edge set the overlay currently projects to.
    fn projected_pairs(&self) -> BTreeSet<(u64, u64)> {
        self.overlay
            .edge_endpoints()
            .filter_map(|(a, b)| {
                let ha = self.host_of[&a];
                let hb = self.host_of[&b];
                if ha == hb {
                    None
                } else {
                    Some((ha.min(hb), ha.max(hb)))
                }
            })
            .collect()
    }

    /// Diffs the overlay projection against the real graph and applies the
    /// difference, streaming colored-edge deltas. A full rebuild is O(n·d)
    /// per event — deliberate: the diff is bulletproof against every overlay
    /// op combination, and arena-scale networks keep it cheap (incremental
    /// projection is a follow-on if DEX ever joins the 1M-node benches).
    fn reconcile(&mut self) {
        let fresh = self.projected_pairs();
        let gone: Vec<(u64, u64)> = self.pairs.difference(&fresh).copied().collect();
        let born: Vec<(u64, u64)> = fresh.difference(&self.pairs).copied().collect();
        for (a, b) in gone {
            let (na, nb) = (NodeId::new(a), NodeId::new(b));
            let removed = self.graph.strip_color(na, nb, DEX_CLOUD);
            debug_assert!(removed, "projection edge {na}-{nb} missing from graph");
            self.ev_removed += 1;
            if !self.sinks.is_empty() {
                self.sinks.emit(TopologyDelta::EdgeRemoved {
                    a: na,
                    b: nb,
                    color: Some(DEX_CLOUD),
                });
            }
        }
        for (a, b) in born {
            let (na, nb) = (NodeId::new(a), NodeId::new(b));
            let created = self
                .graph
                .add_colored_edge(na, nb, DEX_CLOUD)
                .expect("live");
            debug_assert!(created, "projection already had {na}-{nb}");
            self.ev_added += 1;
            if !self.sinks.is_empty() {
                self.sinks.emit(TopologyDelta::EdgeAdded {
                    a: na,
                    b: nb,
                    color: Some(DEX_CLOUD),
                });
            }
        }
        self.pairs = fresh;
    }

    fn begin_event(&mut self) -> u64 {
        self.ev_added = 0;
        self.ev_removed = 0;
        self.overlay.port_ops()
    }

    /// DEX's cost model: every port rewiring is one message (ports live on
    /// hosts; pairing or splicing them is an exchange between the two hosts),
    /// re-homing a virtual node announces the new host to its `d` port
    /// peers, and repairs complete in a constant number of rounds plus one
    /// round per cascaded merge.
    fn cost(&self, ops_before: u64, merges: usize, rehomed: usize) -> DistCost {
        DistCost {
            rounds: 2 + merges as u64,
            messages: self.overlay.port_ops() - ops_before + (rehomed * self.cfg.degree) as u64,
            repairs: Vec::new(),
        }
    }
}

impl HealingEngine for Dex {
    fn name(&self) -> &'static str {
        "dex"
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn apply(&mut self, event: &Event) -> Result<Outcome, HealError> {
        match event {
            Event::Insert { node, neighbors } => {
                let ops = self.begin_event();
                self.insert(*node, neighbors)?;
                let cost = self.cost(ops, 0, 1);
                hook::instant(
                    &self.tracer,
                    Layer::Executor,
                    "exec.insert",
                    0,
                    cost.messages,
                );
                Ok(Outcome::Inserted { cost: Some(cost) })
            }
            Event::Delete { node } => {
                self.repair_seq += 1;
                let seq = self.repair_seq;
                hook::begin(
                    &self.tracer,
                    Layer::Executor,
                    "exec.repair",
                    seq,
                    node.as_u64(),
                );
                let ops = self.begin_event();
                let (degree, merges, rehomed) = self.delete_one(*node)?;
                hook::end(
                    &self.tracer,
                    Layer::Executor,
                    "exec.repair",
                    seq,
                    (self.ev_added + self.ev_removed) as u64,
                );
                Ok(Outcome::Healed {
                    report: DeletionReport {
                        // DEX edges are all colored primaries of one cloud.
                        case: if degree <= 1 {
                            HealCase::Dropped
                        } else {
                            HealCase::PrimaryOnly
                        },
                        edges_added: self.ev_added,
                        edges_removed: self.ev_removed,
                        combined: merges > 0,
                        shares: 0,
                        black_degree: 0,
                        degree,
                    },
                    cost: Some(self.cost(ops, merges, rehomed)),
                })
            }
            Event::DeleteBatch { nodes } => {
                BatchVictim::validate(&self.graph, nodes)?;
                self.repair_seq += 1;
                let seq = self.repair_seq;
                hook::begin(
                    &self.tracer,
                    Layer::Executor,
                    "exec.batch",
                    seq,
                    nodes.len() as u64,
                );
                let ops = self.begin_event();
                let mut merges = 0;
                let mut rehomed = 0;
                let mut added = 0;
                let mut removed = 0;
                for &v in nodes {
                    self.ev_added = 0;
                    self.ev_removed = 0;
                    let (_, m, r) = self.delete_one(v)?;
                    merges += m;
                    rehomed += r;
                    added += self.ev_added;
                    removed += self.ev_removed;
                }
                hook::end(
                    &self.tracer,
                    Layer::Executor,
                    "exec.batch",
                    seq,
                    (added + removed) as u64,
                );
                Ok(Outcome::Batch {
                    report: BatchReport {
                        victims: nodes.len(),
                        components: nodes.len(),
                        secondaries_built: 0,
                        combines: merges,
                        edges_added: added,
                        edges_removed: removed,
                    },
                    cost: Some(self.cost(ops, merges, rehomed)),
                })
            }
        }
    }

    fn subscribe(&mut self, sink: Box<dyn TopologySink>) {
        self.sinks.register(sink);
    }

    fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        Dex::set_tracer(self, tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use xheal_core::DeltaMirror;
    use xheal_graph::{components, generators};

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn bootstrap_is_connected_and_bounded() {
        for size in [1usize, 2, 3, 8, 40] {
            let dex = Dex::new(&generators::path(size), DexConfig::default());
            dex.assert_invariants();
            assert!(components::is_connected(dex.graph()), "size {size}");
            assert_eq!(dex.graph().node_count(), size);
        }
    }

    #[test]
    fn insert_and_delete_keep_invariants() {
        let mut dex = Dex::new(&generators::cycle(12), DexConfig::default());
        for i in 0..30u64 {
            dex.apply(&Event::Insert {
                node: n(100 + i),
                neighbors: vec![n(100 + i / 2), n((i % 12).min(11))]
                    .into_iter()
                    .filter(|&u| dex.graph().contains_node(u))
                    .collect(),
            })
            .unwrap();
            dex.assert_invariants();
            assert!(components::is_connected(dex.graph()), "insert {i}");
        }
        for i in 0..30u64 {
            dex.apply(&Event::Delete { node: n(100 + i) }).unwrap();
            dex.assert_invariants();
            assert!(components::is_connected(dex.graph()), "delete {i}");
        }
        assert_eq!(dex.graph().node_count(), 12);
    }

    #[test]
    fn batch_deletion_heals_and_reports() {
        let mut dex = Dex::new(&generators::complete(20), DexConfig::default());
        let out = dex
            .apply(&Event::DeleteBatch {
                nodes: (0..8).map(n).collect(),
            })
            .unwrap();
        let Outcome::Batch { report, cost } = out else {
            panic!("expected batch outcome");
        };
        assert_eq!(report.victims, 8);
        assert!(cost.is_some_and(|c| c.messages > 0));
        dex.assert_invariants();
        assert!(components::is_connected(dex.graph()));
        assert_eq!(dex.graph().node_count(), 12);
    }

    #[test]
    fn degree_bound_is_hard_under_adversarial_star_load() {
        // Hammer one surviving region: delete most of a large network so its
        // virtual nodes pile onto few hosts, then verify the projection never
        // exceeds max_load * degree.
        let cfg = DexConfig {
            degree: 6,
            max_load: 2,
            seed: 11,
        };
        let mut dex = Dex::new(&generators::complete(40), cfg);
        let bound = dex.degree_bound();
        for v in 0..36u64 {
            dex.apply(&Event::Delete { node: n(v) }).unwrap();
            dex.assert_invariants();
            let max = dex
                .graph()
                .node_vec()
                .iter()
                .map(|&u| dex.graph().degree(u).unwrap())
                .max()
                .unwrap();
            assert!(max <= bound, "after deleting {v}: {max} > {bound}");
        }
    }

    #[test]
    fn deterministic_across_reruns() {
        let g0 = generators::ring_with_chords(24);
        let events: Vec<Event> = (0..10u64)
            .map(|i| {
                if i % 3 == 0 {
                    Event::Insert {
                        node: n(200 + i),
                        // Odd survivors: the deletes below hit even ids only.
                        neighbors: vec![n(1), n(2 * i + 3)],
                    }
                } else {
                    Event::Delete { node: n(2 * i) }
                }
            })
            .collect();
        let run = |seed: u64| {
            let mut dex = Dex::new(
                &g0,
                DexConfig {
                    seed,
                    ..DexConfig::default()
                },
            );
            for e in &events {
                dex.apply(e).unwrap();
            }
            dex.graph().edge_fingerprint()
        };
        assert_eq!(run(42), run(42), "same seed must reproduce");
        assert_ne!(run(42), run(43), "different seeds should diverge");
    }

    #[test]
    fn deltas_reproduce_the_graph() {
        let mut dex = Dex::new(&generators::grid(5, 5), DexConfig::default());
        // Mirror is seeded from the *post-bootstrap* graph: DEX rewired the
        // initial topology during construction (see type docs).
        let mirror = Rc::new(RefCell::new(DeltaMirror::new(dex.graph())));
        dex.subscribe(Box::new(Rc::clone(&mirror)));
        let events = [
            Event::Insert {
                node: n(500),
                neighbors: vec![n(0), n(12)],
            },
            Event::Delete { node: n(12) },
            Event::DeleteBatch {
                nodes: vec![n(0), n(1), n(5)],
            },
            Event::Insert {
                node: n(501),
                neighbors: vec![n(500)],
            },
        ];
        for e in &events {
            dex.apply(e).unwrap();
            assert_eq!(dex.graph(), mirror.borrow().graph(), "diverged on {e:?}");
        }
    }

    #[test]
    fn rejects_invalid_events_without_mutation() {
        let mut dex = Dex::new(&generators::cycle(6), DexConfig::default());
        let fp = dex.graph().edge_fingerprint();
        assert!(dex
            .apply(&Event::Insert {
                node: n(0),
                neighbors: vec![],
            })
            .is_err());
        assert!(dex
            .apply(&Event::Insert {
                node: n(99),
                neighbors: vec![n(77)],
            })
            .is_err());
        assert!(dex.apply(&Event::Delete { node: n(99) }).is_err());
        assert_eq!(
            dex.apply(&Event::DeleteBatch {
                nodes: vec![n(1), n(1)],
            })
            .unwrap_err(),
            HealError::DuplicateVictim(n(1))
        );
        assert_eq!(dex.graph().edge_fingerprint(), fp);
        dex.assert_invariants();
    }

    #[test]
    fn empty_network_round_trip() {
        let mut dex = Dex::new(&generators::path(1), DexConfig::default());
        dex.apply(&Event::Delete { node: n(0) }).unwrap();
        assert_eq!(dex.graph().node_count(), 0);
        assert_eq!(dex.vnode_count(), 0);
        dex.apply(&Event::Insert {
            node: n(7),
            neighbors: vec![],
        })
        .unwrap();
        dex.apply(&Event::Insert {
            node: n(8),
            neighbors: vec![n(7)],
        })
        .unwrap();
        dex.assert_invariants();
        assert!(components::is_connected(dex.graph()));
    }
}
