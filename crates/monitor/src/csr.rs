//! The monitor's delta-fed copy of the topology.
//!
//! [`IncrementalCsr`] is an [`xheal_graph::Graph`] maintained purely from
//! the [`TopologyDelta`] stream — never rebuilt from the engine's graph —
//! fed the way `xheal_core::DeltaMirror` feeds its shadow graph. Every
//! applied delta bumps a **generation stamp**, so downstream consumers can
//! tag derived metrics with the exact topology version they were computed
//! from. [`IncrementalCsr::apply`] reads the mirror just before each edit
//! and reports what the delta structurally did ([`DeltaEffect`]): the O(1)
//! feed for the monitor's metric trackers.
//!
//! [`IncrementalCsr::snapshot`] is `Graph::csr_view()` of the mirror, so it
//! is bit-identical to the engine's own view whenever the mirror equals the
//! engine's graph, which the property suite pins after every event.

use xheal_core::TopologyDelta;
use xheal_graph::{CloudColor, CsrView, EdgeLabels, Graph, GraphError, NodeId};

/// What one applied [`TopologyDelta`] structurally did — the O(1) feed for
/// the monitor's incremental metric trackers.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaEffect {
    /// Nothing changed (replayed strip of an already-dead edge, duplicate
    /// label, …).
    Noop,
    /// A node joined with degree 0.
    NodeAdded(NodeId),
    /// A node left; every incident edge died with it. For each former
    /// neighbor: `(neighbor, its degree before, edge was black)`.
    NodeRemoved {
        /// The departed node.
        node: NodeId,
        /// Its degree at departure.
        degree: usize,
        /// Its black degree at departure.
        black_degree: usize,
        /// Former neighbors with their pre-removal degree and whether the
        /// shared edge carried the black label.
        neighbors: Vec<(NodeId, usize, bool)>,
    },
    /// A brand-new edge appeared.
    EdgeCreated {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Whether the creating label was black.
        black: bool,
    },
    /// An existing edge gained a label; `became_black` when the black flag
    /// turned on.
    EdgeRelabeled {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The black flag switched from off to on.
        became_black: bool,
    },
    /// An edge lost its last label and disappeared.
    EdgeDropped {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The edge carried the black label just before dropping.
        was_black: bool,
    },
    /// An edge lost a label but survives; `lost_black` when the black flag
    /// turned off.
    EdgeStripped {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The black flag switched from on to off.
        lost_black: bool,
    },
}

/// A generation-stamped [`Graph`] patched from [`TopologyDelta`]s.
///
/// # Examples
///
/// ```
/// use xheal_core::TopologyDelta;
/// use xheal_monitor::IncrementalCsr;
/// use xheal_graph::{generators, NodeId};
///
/// let mut g = generators::cycle(6);
/// let mut csr = IncrementalCsr::new(&g);
/// // The engine deletes node 0; replay its deltas into the mirror.
/// g.remove_node(NodeId::new(0)).unwrap();
/// csr.apply(&TopologyDelta::NodeRemoved(NodeId::new(0)));
/// assert_eq!(csr.generation(), 1);
/// assert_eq!(csr.graph(), &g);
/// assert_eq!(csr.snapshot().nodes(), g.csr_view().nodes());
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalCsr {
    graph: Graph,
    generation: u64,
    /// Reused buffer for a removed node's incident edges.
    removed: Vec<(NodeId, EdgeLabels)>,
}

impl IncrementalCsr {
    /// Seeds the mirror with a copy of the engine's current graph (the one
    /// O(n+m) build; every later change arrives as a delta).
    pub fn new(initial: &Graph) -> Self {
        IncrementalCsr {
            graph: initial.clone(),
            generation: 0,
            removed: Vec::new(),
        }
    }

    /// Number of deltas applied so far — the version stamp to tag derived
    /// metrics with.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The mirrored graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Live node count.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Live undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Degree of `v`, if present.
    pub fn degree(&self, v: NodeId) -> Option<usize> {
        self.graph.degree(v)
    }

    /// Black degree of `v`, if present (maintained counter, O(1)).
    pub fn black_degree(&self, v: NodeId) -> Option<usize> {
        self.graph.black_degree(v)
    }

    /// Linearizes the mirror into a [`CsrView`]: `Graph::csr_view()` of the
    /// same topology, nodes ascending, neighbors as dense indices.
    pub fn snapshot(&self) -> CsrView {
        self.graph.csr_view()
    }

    /// Applies one delta, bumps the generation, and reports what changed
    /// structurally. Tolerates the stream's replay semantics: strips of
    /// edges that died with a deleted endpoint are no-ops, duplicate labels
    /// are no-ops.
    pub fn apply(&mut self, delta: &TopologyDelta) -> DeltaEffect {
        self.generation += 1;
        match *delta {
            TopologyDelta::NodeAdded(v) => match self.graph.add_node(v) {
                Ok(()) => DeltaEffect::NodeAdded(v),
                Err(e) => diverged(e),
            },
            TopologyDelta::NodeRemoved(v) => self.remove_node(v),
            TopologyDelta::EdgeAdded { a, b, color } => self.add_label(a, b, color),
            TopologyDelta::EdgeRemoved { a, b, color } => self.strip_label(a, b, color),
        }
    }

    fn remove_node(&mut self, v: NodeId) -> DeltaEffect {
        let mut removed = std::mem::take(&mut self.removed);
        removed.clear();
        let effect = match self.graph.remove_node_into(v, &mut removed) {
            Ok(()) => DeltaEffect::NodeRemoved {
                node: v,
                degree: removed.len(),
                black_degree: removed.iter().filter(|(_, l)| l.is_black()).count(),
                // Each former neighbor lost exactly its one edge to `v`.
                neighbors: removed
                    .iter()
                    .map(|(u, l)| {
                        let after = self.graph.degree(*u).expect("neighbor lives");
                        (*u, after + 1, l.is_black())
                    })
                    .collect(),
            },
            Err(e) => diverged(e),
        };
        self.removed = removed;
        effect
    }

    fn add_label(&mut self, a: NodeId, b: NodeId, color: Option<CloudColor>) -> DeltaEffect {
        if self
            .graph
            .edge_labels(a, b)
            .is_some_and(|l| carries(l, color))
        {
            return DeltaEffect::Noop; // duplicate label
        }
        let black = color.is_none();
        let added = match color {
            None => self.graph.add_black_edge(a, b),
            Some(c) => self.graph.add_colored_edge(a, b, c),
        };
        match added {
            Ok(true) => DeltaEffect::EdgeCreated { a, b, black },
            Ok(false) => DeltaEffect::EdgeRelabeled {
                a,
                b,
                became_black: black,
            },
            Err(e) => diverged(e),
        }
    }

    fn strip_label(&mut self, a: NodeId, b: NodeId, color: Option<CloudColor>) -> DeltaEffect {
        // Strips of edges that died with a deleted endpoint, and of labels
        // the edge does not carry, are no-ops, exactly as on the engine's
        // graph.
        let Some(was_black) = self
            .graph
            .edge_labels(a, b)
            .filter(|l| carries(l, color))
            .map(EdgeLabels::is_black)
        else {
            return DeltaEffect::Noop;
        };
        let dropped = match color {
            None => self.graph.strip_black(a, b),
            Some(c) => self.graph.strip_color(a, b, c),
        };
        if dropped {
            DeltaEffect::EdgeDropped { a, b, was_black }
        } else {
            DeltaEffect::EdgeStripped {
                a,
                b,
                lost_black: color.is_none(),
            }
        }
    }
}

/// Does `labels` carry the label a delta names (`None` is black)?
fn carries(labels: &EdgeLabels, color: Option<CloudColor>) -> bool {
    color.map_or(labels.is_black(), |c| labels.has_color(c))
}

/// A delta the mirror cannot apply (a node added twice, an edge to an
/// absent endpoint) means the stream and the mirror have diverged: loud in
/// debug builds, a no-op in release.
fn diverged(e: GraphError) -> DeltaEffect {
    debug_assert!(false, "delta does not apply to the mirror: {e}");
    DeltaEffect::Noop
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use xheal_core::{DeltaMirror, TopologySink};
    use xheal_graph::generators;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// Asserts the mirror equals `g`, labels included, and snapshots to
    /// exactly `g.csr_view()`.
    fn assert_matches(csr: &IncrementalCsr, g: &Graph) {
        csr.graph().validate().unwrap();
        assert_eq!(csr.graph(), g, "mirror differs");
        let inc = csr.snapshot();
        let fresh = g.csr_view();
        assert_eq!(inc.nodes(), fresh.nodes(), "node spine differs");
        assert_eq!(inc.offsets(), fresh.offsets(), "offsets differ");
        assert_eq!(
            inc.neighbors_flat(),
            fresh.neighbors_flat(),
            "adjacency differs"
        );
        for v in g.nodes() {
            assert_eq!(csr.degree(v), g.degree(v), "degree of {v}");
            assert_eq!(
                csr.black_degree(v),
                g.black_degree(v),
                "black degree of {v}"
            );
        }
    }

    #[test]
    fn seeds_from_initial_graph() {
        let g = generators::random_regular(40, 4, &mut StdRng::seed_from_u64(1));
        let csr = IncrementalCsr::new(&g);
        assert_eq!(csr.generation(), 0);
        assert_matches(&csr, &g);
    }

    #[test]
    fn node_and_edge_deltas_patch_in_place() {
        let mut g = generators::cycle(8);
        let mut csr = IncrementalCsr::new(&g);
        let c = CloudColor::new(3);

        // Node insert with two black edges.
        g.add_node(n(100)).unwrap();
        csr.apply(&TopologyDelta::NodeAdded(n(100)));
        for u in [n(0), n(4)] {
            g.add_black_edge(n(100), u).unwrap();
            let eff = csr.apply(&TopologyDelta::EdgeAdded {
                a: n(100),
                b: u,
                color: None,
            });
            assert!(matches!(eff, DeltaEffect::EdgeCreated { black: true, .. }));
        }
        assert_matches(&csr, &g);

        // Recolor an existing edge, then strip black off it.
        g.add_colored_edge(n(0), n(1), c).unwrap();
        let eff = csr.apply(&TopologyDelta::EdgeAdded {
            a: n(0),
            b: n(1),
            color: Some(c),
        });
        assert!(matches!(
            eff,
            DeltaEffect::EdgeRelabeled {
                became_black: false,
                ..
            }
        ));
        g.strip_black(n(0), n(1));
        let eff = csr.apply(&TopologyDelta::EdgeRemoved {
            a: n(0),
            b: n(1),
            color: None,
        });
        assert!(matches!(
            eff,
            DeltaEffect::EdgeStripped {
                lost_black: true,
                ..
            }
        ));
        assert_matches(&csr, &g);

        // Strip the color too: the edge dies.
        g.strip_color(n(0), n(1), c);
        let eff = csr.apply(&TopologyDelta::EdgeRemoved {
            a: n(0),
            b: n(1),
            color: Some(c),
        });
        assert!(matches!(
            eff,
            DeltaEffect::EdgeDropped {
                was_black: false,
                ..
            }
        ));
        assert_matches(&csr, &g);

        // Node removal takes every incident edge.
        g.remove_node(n(4)).unwrap();
        let eff = csr.apply(&TopologyDelta::NodeRemoved(n(4)));
        let DeltaEffect::NodeRemoved {
            node,
            degree,
            neighbors,
            ..
        } = eff
        else {
            panic!("expected NodeRemoved, got {eff:?}");
        };
        assert_eq!(node, n(4));
        assert_eq!(degree, 3);
        assert_eq!(neighbors.len(), 3);
        assert_matches(&csr, &g);
        assert_eq!(csr.generation(), 7);
    }

    #[test]
    fn replayed_strips_are_noops() {
        let g = generators::cycle(5);
        let mut csr = IncrementalCsr::new(&g);
        // Strip an edge of a node that is gone — the plan-replay situation.
        let eff = csr.apply(&TopologyDelta::EdgeRemoved {
            a: n(77),
            b: n(0),
            color: Some(CloudColor::new(1)),
        });
        assert_eq!(eff, DeltaEffect::Noop);
        // Strip a color the edge does not carry.
        let eff = csr.apply(&TopologyDelta::EdgeRemoved {
            a: n(0),
            b: n(1),
            color: Some(CloudColor::new(9)),
        });
        assert_eq!(eff, DeltaEffect::Noop);
        assert_eq!(csr.generation(), 2, "no-ops still stamp the generation");
    }

    #[test]
    fn snapshot_equals_fresh_csr_under_mixed_churn() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = generators::connected_erdos_renyi(24, 0.2, &mut rng);
        let mut csr = IncrementalCsr::new(&g);
        let mut next = 1000u64;
        for step in 0..300 {
            let nodes = g.node_vec();
            match rng.random_range(0..4u32) {
                0 => {
                    let v = n(next);
                    next += 1;
                    g.add_node(v).unwrap();
                    csr.apply(&TopologyDelta::NodeAdded(v));
                    let u = nodes[rng.random_range(0..nodes.len())];
                    g.add_black_edge(v, u).unwrap();
                    csr.apply(&TopologyDelta::EdgeAdded {
                        a: v,
                        b: u,
                        color: None,
                    });
                }
                1 if nodes.len() > 4 => {
                    let v = nodes[rng.random_range(0..nodes.len())];
                    g.remove_node(v).unwrap();
                    csr.apply(&TopologyDelta::NodeRemoved(v));
                }
                2 => {
                    let a = nodes[rng.random_range(0..nodes.len())];
                    let b = nodes[rng.random_range(0..nodes.len())];
                    if a != b {
                        let c = CloudColor::new(rng.random_range(0..6));
                        g.add_colored_edge(a, b, c).unwrap();
                        csr.apply(&TopologyDelta::EdgeAdded {
                            a,
                            b,
                            color: Some(c),
                        });
                    }
                }
                _ => {
                    let a = nodes[rng.random_range(0..nodes.len())];
                    let b = nodes[rng.random_range(0..nodes.len())];
                    if a != b {
                        let c = CloudColor::new(rng.random_range(0..6));
                        g.strip_color(a, b, c);
                        csr.apply(&TopologyDelta::EdgeRemoved {
                            a,
                            b,
                            color: Some(c),
                        });
                    }
                }
            }
            if step % 10 == 0 {
                assert_matches(&csr, &g);
            }
        }
        assert_matches(&csr, &g);
    }

    /// What `delta` did, read off a reference graph before and after it.
    fn expected_effect(before: &Graph, after: &Graph, delta: &TopologyDelta) -> DeltaEffect {
        let (a, b, added) = match *delta {
            TopologyDelta::NodeAdded(v) => return DeltaEffect::NodeAdded(v),
            TopologyDelta::NodeRemoved(v) => {
                return DeltaEffect::NodeRemoved {
                    node: v,
                    degree: before.degree(v).unwrap(),
                    black_degree: before.black_degree(v).unwrap(),
                    neighbors: before
                        .neighbors_labeled(v)
                        .map(|(u, l)| (u, before.degree(u).unwrap(), l.is_black()))
                        .collect(),
                }
            }
            TopologyDelta::EdgeAdded { a, b, .. } => (a, b, true),
            TopologyDelta::EdgeRemoved { a, b, .. } => (a, b, false),
        };
        match (before.edge_labels(a, b), after.edge_labels(a, b)) {
            (None, None) => DeltaEffect::Noop,
            (None, Some(y)) => DeltaEffect::EdgeCreated {
                a,
                b,
                black: y.is_black(),
            },
            (Some(x), None) => DeltaEffect::EdgeDropped {
                a,
                b,
                was_black: x.is_black(),
            },
            (Some(x), Some(y)) if x == y => DeltaEffect::Noop,
            (Some(x), Some(y)) if added => DeltaEffect::EdgeRelabeled {
                a,
                b,
                became_black: !x.is_black() && y.is_black(),
            },
            (Some(x), Some(y)) => DeltaEffect::EdgeStripped {
                a,
                b,
                lost_black: x.is_black() && !y.is_black(),
            },
        }
    }

    #[test]
    fn effects_match_the_reference_diff_under_mixed_churn() {
        let mut rng = StdRng::seed_from_u64(19);
        let g0 = generators::connected_erdos_renyi(20, 0.2, &mut rng);
        let mut reference = DeltaMirror::new(&g0);
        let mut csr = IncrementalCsr::new(&g0);
        let mut kinds = std::collections::HashSet::new();
        let mut next = 1000u64;
        for _ in 0..400 {
            let nodes = reference.graph().node_vec();
            let a = nodes[rng.random_range(0..nodes.len())];
            let b = nodes[rng.random_range(0..nodes.len())];
            // Black and colored labels alike, so relabels can turn an edge
            // black and strips can take the black flag off a survivor.
            let color = rng
                .random_bool(0.6)
                .then(|| CloudColor::new(rng.random_range(0..4)));
            let deltas = match rng.random_range(0..5u32) {
                0 => {
                    let v = n(next);
                    next += 1;
                    vec![
                        TopologyDelta::NodeAdded(v),
                        TopologyDelta::EdgeAdded { a: v, b, color },
                    ]
                }
                1 if nodes.len() > 6 => vec![TopologyDelta::NodeRemoved(a)],
                _ if a == b => vec![],
                2 | 3 => vec![TopologyDelta::EdgeAdded { a, b, color }],
                _ => vec![TopologyDelta::EdgeRemoved { a, b, color }],
            };
            for delta in deltas {
                let before = reference.graph().clone();
                reference.on_delta(&delta);
                let effect = csr.apply(&delta);
                assert_eq!(
                    effect,
                    expected_effect(&before, reference.graph(), &delta),
                    "{delta:?}"
                );
                kinds.insert(std::mem::discriminant(&effect));
            }
        }
        assert_matches(&csr, reference.graph());
        assert_eq!(kinds.len(), 7, "every effect kind exercised");
    }
}
