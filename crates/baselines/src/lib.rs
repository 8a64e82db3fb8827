//! # xheal-baselines
//!
//! Baseline self-healing strategies the paper's Related Work section compares
//! Xheal against, all implementing [`xheal_core::HealingEngine`], so every
//! workload, bench, and cross-validation driver accepts them
//! interchangeably with Xheal:
//!
//! - [`NoHeal`]: deletion removes the node and nothing else (the network may
//!   disconnect — this is the "do nothing" control);
//! - [`CycleHeal`]: connect the deleted node's ex-neighbors in a cycle
//!   (constant degree increase, linear worst-case stretch and `O(1/n)`
//!   expansion on the star attack);
//! - [`StarHeal`]: attach all ex-neighbors to one survivor (best stretch,
//!   unbounded degree increase — the paper's star-topology cautionary tale in
//!   reverse);
//! - [`BinaryTreeHeal`]: replace the deleted node with a balanced binary tree
//!   of its ex-neighbors — the real-node simplification of *Forgiving Tree*
//!   [PODC 2008];
//! - [`ForgivingLike`]: the same tree patch but ordered by current degree
//!   (low-degree nodes near the root), approximating *Forgiving Graph*
//!   [PODC 2009]'s degree-balancing. These simplifications preserve the
//!   comparison the paper makes: tree-shaped patches produce poor cuts
//!   regardless of virtual-node bookkeeping.
//!
//! # Examples
//!
//! ```
//! use xheal_baselines::CycleHeal;
//! use xheal_core::{Event, HealingEngine};
//! use xheal_graph::{components, generators, NodeId};
//!
//! let mut h = CycleHeal::new(&generators::star(10));
//! h.apply(&Event::Delete { node: NodeId::new(0) })?; // hub dies
//! assert!(components::is_connected(h.graph()));
//! # Ok::<(), xheal_core::HealError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use xheal_core::{
    BatchReport, BatchVictim, DeletionReport, Event, HealCase, HealError, HealingEngine, Outcome,
    SinkRegistry, TopologyDelta, TopologySink,
};
use xheal_graph::{Graph, NodeId};

/// Shared adversary-event plumbing for the baselines.
#[derive(Clone, Debug)]
struct BaseState {
    graph: Graph,
    /// Topology-delta subscribers (cloning a baseline drops them).
    sinks: SinkRegistry,
    /// Patch edges added by the repair currently executing.
    op_edges_added: usize,
}

impl BaseState {
    fn new(initial: &Graph) -> Self {
        BaseState {
            graph: initial.clone(),
            sinks: SinkRegistry::default(),
            op_edges_added: 0,
        }
    }

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
        Ok(())
    }

    /// Removes `v`, returning its ex-neighbors sorted ascending, and resets
    /// the per-repair patch-edge counter.
    fn delete(&mut self, v: NodeId) -> Result<Vec<NodeId>, HealError> {
        if !self.graph.contains_node(v) {
            return Err(HealError::NodeMissing(v));
        }
        let incident = self.graph.remove_node(v).expect("checked");
        if !self.sinks.is_empty() {
            self.sinks.emit(TopologyDelta::NodeRemoved(v));
        }
        self.op_edges_added = 0;
        Ok(incident.into_iter().map(|(u, _)| u).collect())
    }

    /// Adds one black repair edge, counting and streaming it. Duplicate
    /// edges are tolerated (and neither counted nor emitted).
    fn patch_edge(&mut self, u: NodeId, v: NodeId) {
        if u == v {
            return;
        }
        let created = self.graph.add_black_edge(u, v).unwrap_or(false);
        if created {
            self.op_edges_added += 1;
            if !self.sinks.is_empty() {
                self.sinks.emit(TopologyDelta::EdgeAdded {
                    a: u,
                    b: v,
                    color: None,
                });
            }
        }
    }

    /// The [`DeletionReport`] of the repair that just ran. Baseline edges
    /// are all black, so a deletion is the model's all-black Case 1
    /// (degree ≤ 1 victims are simply dropped, as in Xheal).
    fn deletion_report(&self, degree: usize) -> DeletionReport {
        DeletionReport {
            case: if degree <= 1 {
                HealCase::Dropped
            } else {
                HealCase::AllBlack
            },
            edges_added: self.op_edges_added,
            edges_removed: 0,
            combined: false,
            shares: 0,
            black_degree: degree,
            degree,
        }
    }
}

macro_rules! baseline_common {
    ($ty:ident, $name:literal) => {
        impl $ty {
            /// Wraps an initial network.
            pub fn new(initial: &Graph) -> Self {
                $ty {
                    base: BaseState::new(initial),
                }
            }

            /// Human-readable strategy name (used in experiment tables).
            pub fn name(&self) -> &'static str {
                $name
            }

            /// The current healed network graph `G_t`.
            pub fn graph(&self) -> &Graph {
                &self.base.graph
            }

            /// Deletes `v` and runs this strategy's patch, reporting the
            /// repair like any other engine.
            fn heal_one(&mut self, v: NodeId) -> Result<DeletionReport, HealError> {
                let nbrs = self.base.delete(v)?;
                self.patch(&nbrs);
                Ok(self.base.deletion_report(nbrs.len()))
            }
        }

        impl HealingEngine for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn graph(&self) -> &Graph {
                &self.base.graph
            }

            fn apply(&mut self, event: &Event) -> Result<Outcome, HealError> {
                match event {
                    Event::Insert { node, neighbors } => {
                        self.base.insert(*node, neighbors)?;
                        Ok(Outcome::Inserted { cost: None })
                    }
                    Event::Delete { node } => Ok(Outcome::Healed {
                        report: self.heal_one(*node)?,
                        cost: None,
                    }),
                    // Baselines have no simultaneous-deletion repair: the
                    // batch is healed victim-by-victim (a sequential
                    // approximation), with each victim its own "component".
                    Event::DeleteBatch { nodes } => {
                        BatchVictim::validate(&self.base.graph, nodes)?;
                        let mut edges_added = 0;
                        for &v in nodes.iter() {
                            edges_added += self.heal_one(v)?.edges_added;
                        }
                        Ok(Outcome::Batch {
                            report: BatchReport {
                                victims: nodes.len(),
                                components: nodes.len(),
                                secondaries_built: 0,
                                combines: 0,
                                edges_added,
                                edges_removed: 0,
                            },
                            cost: None,
                        })
                    }
                }
            }

            fn subscribe(&mut self, sink: Box<dyn TopologySink>) {
                self.base.sinks.register(sink);
            }
        }
    };
}

/// The "do nothing" control: deletions are not repaired at all.
#[derive(Clone, Debug)]
pub struct NoHeal {
    base: BaseState,
}

impl NoHeal {
    fn patch(&mut self, _nbrs: &[NodeId]) {}
}

baseline_common!(NoHeal, "no-heal");

/// Repairs by connecting the ex-neighbors in a cycle (+2 degree max).
#[derive(Clone, Debug)]
pub struct CycleHeal {
    base: BaseState,
}

impl CycleHeal {
    fn patch(&mut self, nbrs: &[NodeId]) {
        if nbrs.len() < 2 {
            return;
        }
        if nbrs.len() == 2 {
            self.base.patch_edge(nbrs[0], nbrs[1]);
            return;
        }
        for i in 0..nbrs.len() {
            let a = nbrs[i];
            let b = nbrs[(i + 1) % nbrs.len()];
            self.base.patch_edge(a, b);
        }
    }
}

baseline_common!(CycleHeal, "cycle-heal");

/// Repairs by attaching every ex-neighbor to the smallest-id survivor.
#[derive(Clone, Debug)]
pub struct StarHeal {
    base: BaseState,
}

impl StarHeal {
    fn patch(&mut self, nbrs: &[NodeId]) {
        if nbrs.len() < 2 {
            return;
        }
        let hub = nbrs[0];
        for &u in &nbrs[1..] {
            self.base.patch_edge(hub, u);
        }
    }
}

baseline_common!(StarHeal, "star-heal");

fn tree_patch(base: &mut BaseState, ordered: &[NodeId]) {
    // Heap-indexed balanced binary tree: node i links to children 2i+1, 2i+2.
    for i in 0..ordered.len() {
        for c in [2 * i + 1, 2 * i + 2] {
            if c < ordered.len() {
                base.patch_edge(ordered[i], ordered[c]);
            }
        }
    }
}

/// Repairs with a balanced binary tree over the ex-neighbors in id order —
/// the real-node simplification of Forgiving Tree [PODC 2008].
#[derive(Clone, Debug)]
pub struct BinaryTreeHeal {
    base: BaseState,
}

impl BinaryTreeHeal {
    fn patch(&mut self, nbrs: &[NodeId]) {
        if nbrs.len() < 2 {
            return;
        }
        tree_patch(&mut self.base, nbrs);
    }
}

baseline_common!(BinaryTreeHeal, "binary-tree-heal");

/// Repairs with a balanced binary tree ordered by current degree (lowest
/// degree closest to the root), approximating Forgiving Graph [PODC 2009]'s
/// degree balancing.
#[derive(Clone, Debug)]
pub struct ForgivingLike {
    base: BaseState,
}

impl ForgivingLike {
    fn patch(&mut self, nbrs: &[NodeId]) {
        if nbrs.len() < 2 {
            return;
        }
        let mut ordered: Vec<NodeId> = nbrs.to_vec();
        ordered.sort_by_key(|&v| (self.base.graph.degree(v).unwrap_or(0), v));
        tree_patch(&mut self.base, &ordered);
    }
}

baseline_common!(ForgivingLike, "forgiving-like");

#[cfg(test)]
mod tests {
    use super::*;
    use xheal_graph::{components, generators, traversal};

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// All five baselines boxed behind the [`HealingEngine`] trait.
    fn all_engines(initial: &Graph) -> Vec<Box<dyn HealingEngine>> {
        vec![
            Box::new(NoHeal::new(initial)),
            Box::new(CycleHeal::new(initial)),
            Box::new(StarHeal::new(initial)),
            Box::new(BinaryTreeHeal::new(initial)),
            Box::new(ForgivingLike::new(initial)),
        ]
    }

    #[test]
    fn noheal_disconnects_on_star_center() {
        let mut h = NoHeal::new(&generators::star(6));
        h.apply(&Event::Delete { node: n(0) }).unwrap();
        assert!(!components::is_connected(h.graph()));
        assert_eq!(h.graph().edge_count(), 0);
    }

    #[test]
    fn cycle_heal_reconnects_star() {
        let mut h = CycleHeal::new(&generators::star(6));
        h.apply(&Event::Delete { node: n(0) }).unwrap();
        assert!(components::is_connected(h.graph()));
        // Every ex-leaf has degree exactly 2.
        for i in 1..6 {
            assert_eq!(h.graph().degree(n(i)), Some(2));
        }
    }

    #[test]
    fn cycle_heal_two_neighbors_single_edge() {
        let mut h = CycleHeal::new(&generators::path(3));
        h.apply(&Event::Delete { node: n(1) }).unwrap();
        assert!(h.graph().has_edge(n(0), n(2)));
        assert_eq!(h.graph().edge_count(), 1);
    }

    #[test]
    fn star_heal_concentrates_degree() {
        let mut h = StarHeal::new(&generators::star(8));
        h.apply(&Event::Delete { node: n(0) }).unwrap();
        assert!(components::is_connected(h.graph()));
        assert_eq!(h.graph().degree(n(1)), Some(6), "hub absorbs everyone");
        assert_eq!(traversal::diameter(h.graph()), Some(2));
    }

    #[test]
    fn binary_tree_heal_logarithmic_diameter() {
        let mut h = BinaryTreeHeal::new(&generators::star(64));
        h.apply(&Event::Delete { node: n(0) }).unwrap();
        assert!(components::is_connected(h.graph()));
        let diam = traversal::diameter(h.graph()).unwrap();
        assert!(diam <= 12, "diameter {diam} not logarithmic");
        // Max degree 3 (parent + two children).
        let max_deg = h
            .graph()
            .node_vec()
            .iter()
            .map(|&v| h.graph().degree(v).unwrap())
            .max();
        assert_eq!(max_deg, Some(3));
    }

    #[test]
    fn forgiving_like_puts_low_degree_at_root() {
        let mut g = generators::star(6);
        // Give node 5 extra degree so it sinks to the leaves.
        g.add_node(n(50)).unwrap();
        g.add_node(n(51)).unwrap();
        g.add_black_edge(n(5), n(50)).unwrap();
        g.add_black_edge(n(5), n(51)).unwrap();
        let mut h = ForgivingLike::new(&g);
        h.apply(&Event::Delete { node: n(0) }).unwrap();
        assert!(components::is_connected(h.graph()));
        // Node 5 (pre-patch degree 3) must be a leaf of the patch: at most
        // one patch edge added to it.
        assert!(h.graph().degree(n(5)).unwrap() <= 3 + 1);
    }

    #[test]
    fn insert_semantics_shared() {
        let insert = |node, neighbors: &[NodeId]| Event::Insert {
            node,
            neighbors: neighbors.to_vec(),
        };
        for mut h in all_engines(&generators::cycle(4)) {
            h.apply(&insert(n(100), &[n(0), n(2)])).unwrap();
            assert_eq!(h.graph().degree(n(100)), Some(2), "{}", h.name());
            assert!(h.apply(&insert(n(100), &[])).is_err());
            assert!(h.apply(&Event::Delete { node: n(999) }).is_err());
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = all_engines(&generators::cycle(4))
            .iter()
            .map(|h| h.name())
            .collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), 5);
        assert_eq!(dedup.len(), 5);
    }

    #[test]
    fn engines_apply_and_report_outcomes() {
        for mut h in all_engines(&generators::star(8)) {
            let name = h.name();
            let out = h
                .apply(&Event::Delete {
                    node: NodeId::new(0),
                })
                .unwrap();
            let xheal_core::Outcome::Healed { report, cost: None } = &out else {
                panic!("{name}: expected Healed outcome, got {out:?}");
            };
            assert_eq!(report.degree, 7, "{name}");
            assert_eq!(report.black_degree, 7, "{name}");
            assert_eq!(out.edges_added(), report.edges_added, "{name}");
            if name != "no-heal" {
                assert!(report.edges_added > 0, "{name} patched nothing");
                assert!(components::is_connected(h.graph()), "{name}");
            }
            // Batch = sequential approximation, one component per victim.
            let out = h
                .apply(&Event::DeleteBatch {
                    nodes: vec![NodeId::new(1), NodeId::new(2)],
                })
                .unwrap();
            let xheal_core::Outcome::Batch { report, .. } = &out else {
                panic!("{name}: expected Batch outcome");
            };
            assert_eq!((report.victims, report.components), (2, 2), "{name}");
            // Invalid events are rejected without mutation.
            let nodes_before = h.graph().node_count();
            assert!(h
                .apply(&Event::DeleteBatch {
                    nodes: vec![NodeId::new(3), NodeId::new(3)],
                })
                .is_err());
            assert!(h
                .apply(&Event::Delete {
                    node: NodeId::new(999),
                })
                .is_err());
            assert_eq!(h.graph().node_count(), nodes_before, "{name}");
        }
    }

    #[test]
    fn baseline_deltas_feed_a_mirror() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use xheal_core::DeltaMirror;

        let g0 = generators::star(10);
        for mut h in all_engines(&g0) {
            let mirror = Rc::new(RefCell::new(DeltaMirror::new(&g0)));
            h.subscribe(Box::new(Rc::clone(&mirror)));
            let events = [
                Event::Delete {
                    node: NodeId::new(0),
                },
                Event::Insert {
                    node: NodeId::new(77),
                    neighbors: vec![NodeId::new(1), NodeId::new(2)],
                },
                Event::DeleteBatch {
                    nodes: vec![NodeId::new(2), NodeId::new(5)],
                },
            ];
            for e in &events {
                h.apply(e).unwrap();
                assert_eq!(
                    h.graph(),
                    mirror.borrow().graph(),
                    "{} diverged from its mirror on {e:?}",
                    HealingEngine::name(h.as_ref())
                );
            }
        }
    }
}
