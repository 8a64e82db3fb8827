//! The seed (pre-arena) graph representation, kept as a test model.
//!
//! This is the original `BTreeMap<NodeId, BTreeMap<NodeId, EdgeLabels>>`
//! adjacency the reproduction shipped with, behind the subset of
//! [`crate::Graph`]'s inherent API that existed before the arena rewrite.
//! The model-based property tests below replay random operation sequences
//! against both representations and assert identical observable behavior
//! (results, errors, node order, edge order, labels, fingerprints), which
//! is what licenses the arena's hot-path layout.

use std::collections::BTreeMap;

use crate::{CloudColor, EdgeLabels, GraphError, NodeId};

/// The seed representation: deterministic, tree-backed, pointer-chasing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BaselineGraph {
    adj: BTreeMap<NodeId, BTreeMap<NodeId, EdgeLabels>>,
    edge_count: usize,
}

impl BaselineGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        BaselineGraph::default()
    }

    /// Number of nodes currently present.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of (undirected) edges currently present.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Is the edge present (with any label)?
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj.get(&u).is_some_and(|n| n.contains_key(&v))
    }

    /// Sorted vector of all node ids.
    pub fn node_vec(&self) -> Vec<NodeId> {
        self.adj.keys().copied().collect()
    }

    /// Order-sensitive hash over the full [`BaselineGraph::edges`]
    /// enumeration — same fold, same order as
    /// [`crate::Graph::edge_fingerprint`], so equal fingerprints across
    /// representations mean bit-identical topologies.
    pub fn edge_fingerprint(&self) -> u64 {
        crate::graph::fingerprint_edges(self.edges())
    }

    /// Iterator over all undirected edges as `(u, v, labels)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, &EdgeLabels)> + '_ {
        self.adj.iter().flat_map(|(&u, nbrs)| {
            nbrs.iter()
                .filter(move |(&v, _)| u < v)
                .map(move |(&v, l)| (u, v, l))
        })
    }

    /// Degree of `v` (number of incident edges of any label), if present.
    pub fn degree(&self, v: NodeId) -> Option<usize> {
        self.adj.get(&v).map(|n| n.len())
    }

    /// Iterator over neighbors of `v` (empty if `v` absent), ascending.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.get(&v).into_iter().flat_map(|n| n.keys().copied())
    }

    /// Adds an isolated node.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeExists`] if `v` is already present.
    pub fn add_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        if self.adj.contains_key(&v) {
            return Err(GraphError::NodeExists(v));
        }
        self.adj.insert(v, BTreeMap::new());
        Ok(())
    }

    /// Removes `v` and all incident edges, returning `(neighbor, labels)` for
    /// each incident edge (ascending by neighbor).
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeMissing`] if `v` is not present.
    pub fn remove_node(&mut self, v: NodeId) -> Result<Vec<(NodeId, EdgeLabels)>, GraphError> {
        let nbrs = self.adj.remove(&v).ok_or(GraphError::NodeMissing(v))?;
        let mut out = Vec::with_capacity(nbrs.len());
        for (u, labels) in nbrs {
            if let Some(n) = self.adj.get_mut(&u) {
                n.remove(&v);
            }
            self.edge_count -= 1;
            out.push((u, labels));
        }
        Ok(out)
    }

    fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !self.adj.contains_key(&u) {
            return Err(GraphError::NodeMissing(u));
        }
        if !self.adj.contains_key(&v) {
            return Err(GraphError::NodeMissing(v));
        }
        Ok(())
    }

    /// Adds the black label to edge `(u, v)`, creating the edge if needed.
    /// Returns `true` if a brand-new edge was created.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] / [`GraphError::NodeMissing`] on bad endpoints.
    pub fn add_black_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        self.check_endpoints(u, v)?;
        let created = !self.has_edge(u, v);
        if created {
            self.edge_count += 1;
            self.adj
                .get_mut(&u)
                .expect("checked")
                .insert(v, EdgeLabels::black());
            self.adj
                .get_mut(&v)
                .expect("checked")
                .insert(u, EdgeLabels::black());
        } else {
            self.adj
                .get_mut(&u)
                .expect("checked")
                .get_mut(&v)
                .expect("checked")
                .set_black();
            self.adj
                .get_mut(&v)
                .expect("checked")
                .get_mut(&u)
                .expect("checked")
                .set_black();
        }
        Ok(created)
    }

    /// Adds cloud color `color` to edge `(u, v)`, creating the edge if needed.
    /// Returns `true` if a brand-new edge was created.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] / [`GraphError::NodeMissing`] on bad endpoints.
    pub fn add_colored_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        color: CloudColor,
    ) -> Result<bool, GraphError> {
        self.check_endpoints(u, v)?;
        let created = !self.has_edge(u, v);
        if created {
            self.edge_count += 1;
            self.adj
                .get_mut(&u)
                .expect("checked")
                .insert(v, EdgeLabels::colored(color));
            self.adj
                .get_mut(&v)
                .expect("checked")
                .insert(u, EdgeLabels::colored(color));
        } else {
            self.adj
                .get_mut(&u)
                .expect("checked")
                .get_mut(&v)
                .expect("checked")
                .add_color(color);
            self.adj
                .get_mut(&v)
                .expect("checked")
                .get_mut(&u)
                .expect("checked")
                .add_color(color);
        }
        Ok(created)
    }

    /// Removes `color` from edge `(u, v)`; deletes the edge entirely if no
    /// label remains. Returns `true` if the edge was fully removed.
    pub fn strip_color(&mut self, u: NodeId, v: NodeId, color: CloudColor) -> bool {
        let Some(nu) = self.adj.get_mut(&u) else {
            return false;
        };
        let Some(labels) = nu.get_mut(&v) else {
            return false;
        };
        labels.remove_color(color);
        let empty = labels.is_empty();
        if empty {
            nu.remove(&v);
            self.adj.get_mut(&v).expect("mirror").remove(&u);
            self.edge_count -= 1;
        } else {
            self.adj
                .get_mut(&v)
                .expect("mirror")
                .get_mut(&u)
                .expect("mirror")
                .remove_color(color);
        }
        empty
    }

    /// Removes the black label from edge `(u, v)`; deletes the edge entirely
    /// if no label remains. Returns `true` if the edge was fully removed.
    pub fn strip_black(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(nu) = self.adj.get_mut(&u) else {
            return false;
        };
        let Some(labels) = nu.get_mut(&v) else {
            return false;
        };
        labels.clear_black();
        let empty = labels.is_empty();
        if empty {
            nu.remove(&v);
            self.adj.get_mut(&v).expect("mirror").remove(&u);
            self.edge_count -= 1;
        } else {
            self.adj
                .get_mut(&v)
                .expect("mirror")
                .get_mut(&u)
                .expect("mirror")
                .clear_black();
        }
        empty
    }

    /// Removes the edge regardless of labels.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeMissing`] if the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeLabels, GraphError> {
        let labels = self
            .adj
            .get_mut(&u)
            .and_then(|n| n.remove(&v))
            .ok_or(GraphError::EdgeMissing(u, v))?;
        self.adj.get_mut(&v).expect("mirror").remove(&u);
        self.edge_count -= 1;
        Ok(labels)
    }

    /// Number of edges crossing the cut `(S, V - S)`.
    pub fn cut_size(&self, s: &[NodeId]) -> usize {
        use std::collections::BTreeSet;
        let set: BTreeSet<NodeId> = s.iter().copied().collect();
        set.iter()
            .filter_map(|&v| self.adj.get(&v))
            .map(|nbrs| nbrs.keys().filter(|u| !set.contains(u)).count())
            .sum()
    }

    /// Consistency check: adjacency symmetric, labels mirror, no self-loops,
    /// edge count matches.
    pub fn validate(&self) -> Result<(), String> {
        let mut count = 0usize;
        for (&u, nbrs) in &self.adj {
            for (&v, l) in nbrs {
                if u == v {
                    return Err(format!("self-loop at {u}"));
                }
                if l.is_empty() {
                    return Err(format!("empty labels on ({u},{v})"));
                }
                let mirror = self
                    .adj
                    .get(&v)
                    .and_then(|n| n.get(&u))
                    .ok_or_else(|| format!("asymmetric edge ({u},{v})"))?;
                if mirror != l {
                    return Err(format!("label mismatch on ({u},{v})"));
                }
                if u < v {
                    count += 1;
                }
            }
        }
        if count != self.edge_count {
            return Err(format!(
                "edge count {} does not match stored {}",
                count, self.edge_count
            ));
        }
        Ok(())
    }
}

mod tests {
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    use super::*;
    use crate::{EdgeMutation, Graph};

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// One randomized operation over the node id universe `0..universe`.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        AddNode(u64),
        RemoveNode(u64),
        AddBlack(u64, u64),
        AddColored(u64, u64, u64),
        StripColor(u64, u64, u64),
        StripBlack(u64, u64),
        RemoveEdge(u64, u64),
        /// A `Graph::apply_delta` batch, derived from the inner seed —
        /// replayed on the model as the sequential per-edge loop.
        BulkDelta(u64),
    }

    fn random_ops(seed: u64, steps: usize) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(seed);
        let universe = 16u64;
        (0..steps)
            .map(|_| {
                let a = rng.random_range(0..universe);
                let b = rng.random_range(0..universe);
                let c = rng.random_range(0..4u64);
                match rng.random_range(0..11u32) {
                    0..=1 => Op::AddNode(a),
                    2 => Op::RemoveNode(a),
                    3..=5 => Op::AddBlack(a, b),
                    6 => Op::AddColored(a, b, c),
                    7 => Op::StripColor(a, b, c),
                    8 => Op::StripBlack(a, b),
                    9 => Op::RemoveEdge(a, b),
                    _ => Op::BulkDelta(rng.random()),
                }
            })
            .collect()
    }

    /// Expands a [`Op::BulkDelta`] seed into a mutation batch legal for the
    /// current graph: adds are restricted to live, distinct endpoints (batch
    /// application validates them up front), strips are unrestricted — their
    /// missing-endpoint/label tolerance is part of what is under test.
    fn random_batch(seed: u64, g: &Graph) -> Vec<EdgeMutation> {
        let mut rng = StdRng::seed_from_u64(seed);
        let universe = 16u64;
        let len = rng.random_range(0..24usize);
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            let a = n(rng.random_range(0..universe));
            let b = n(rng.random_range(0..universe));
            let color = if rng.random::<bool>() {
                Some(CloudColor::new(rng.random_range(0..4u64)))
            } else {
                None
            };
            let add = rng.random::<bool>();
            if add && (a == b || !g.contains_node(a) || !g.contains_node(b)) {
                continue;
            }
            out.push(EdgeMutation { a, b, color, add });
        }
        out
    }

    /// Full observable dump used for cross-representation comparison.
    type Dump = (Vec<NodeId>, Vec<(NodeId, NodeId, EdgeLabels)>);

    fn dump(g: &Graph) -> Dump {
        (
            g.node_vec(),
            g.edges().map(|(u, v, l)| (u, v, l.clone())).collect(),
        )
    }

    fn dump_model(m: &BaselineGraph) -> Dump {
        (
            m.node_vec(),
            m.edges().map(|(u, v, l)| (u, v, l.clone())).collect(),
        )
    }

    fn apply_both(g: &mut Graph, m: &mut BaselineGraph, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::AddNode(a) => prop_assert_eq!(g.add_node(n(a)), m.add_node(n(a))),
            Op::RemoveNode(a) => prop_assert_eq!(g.remove_node(n(a)), m.remove_node(n(a))),
            Op::AddBlack(a, b) => {
                prop_assert_eq!(g.add_black_edge(n(a), n(b)), m.add_black_edge(n(a), n(b)));
            }
            Op::AddColored(a, b, c) => prop_assert_eq!(
                g.add_colored_edge(n(a), n(b), CloudColor::new(c)),
                m.add_colored_edge(n(a), n(b), CloudColor::new(c))
            ),
            Op::StripColor(a, b, c) => prop_assert_eq!(
                g.strip_color(n(a), n(b), CloudColor::new(c)),
                m.strip_color(n(a), n(b), CloudColor::new(c))
            ),
            Op::StripBlack(a, b) => {
                prop_assert_eq!(g.strip_black(n(a), n(b)), m.strip_black(n(a), n(b)));
            }
            Op::RemoveEdge(a, b) => {
                prop_assert_eq!(g.remove_edge(n(a), n(b)), m.remove_edge(n(a), n(b)));
            }
            Op::BulkDelta(seed) => {
                let batch = random_batch(seed, g);
                prop_assert!(g.apply_delta(&batch).is_ok());
                for op in &batch {
                    match (op.add, op.color) {
                        (true, Some(c)) => {
                            m.add_colored_edge(op.a, op.b, c).unwrap();
                        }
                        (true, None) => {
                            m.add_black_edge(op.a, op.b).unwrap();
                        }
                        (false, Some(c)) => {
                            m.strip_color(op.a, op.b, c);
                        }
                        (false, None) => {
                            m.strip_black(op.a, op.b);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        /// Every op returns identical results and leaves identical observable
        /// state in both representations.
        #[test]
        fn arena_matches_btreemap_model(seed in any::<u64>(), steps in 10usize..160) {
            let mut g = Graph::new();
            let mut m = BaselineGraph::new();
            for op in random_ops(seed, steps) {
                apply_both(&mut g, &mut m, op)?;
            }
            prop_assert!(g.validate().is_ok(), "arena invariants: {:?}", g.validate());
            prop_assert!(m.validate().is_ok());
            prop_assert_eq!(dump(&g), dump_model(&m));
            prop_assert_eq!(g.edge_fingerprint(), m.edge_fingerprint());
            prop_assert_eq!(g.node_count(), m.node_count());
            prop_assert_eq!(g.edge_count(), m.edge_count());
            for v in g.node_vec() {
                prop_assert_eq!(g.degree(v), m.degree(v));
                let gn: Vec<NodeId> = g.neighbors(v).collect();
                let mn: Vec<NodeId> = m.neighbors(v).collect();
                prop_assert_eq!(gn, mn);
            }
            // cut_size over a pseudo-random side must agree with the
            // set-based seed implementation.
            let side: Vec<NodeId> = g.node_vec().into_iter().step_by(2).collect();
            prop_assert_eq!(g.cut_size(&side), m.cut_size(&side));
        }

        /// The dense CSR snapshot enumerates exactly the adjacency, in order.
        #[test]
        fn csr_view_agrees_with_model(seed in any::<u64>(), steps in 10usize..120) {
            let mut g = Graph::new();
            let mut m = BaselineGraph::new();
            for op in random_ops(seed, steps) {
                apply_both(&mut g, &mut m, op)?;
            }
            let csr = g.csr_view();
            prop_assert_eq!(csr.nodes().to_vec(), m.node_vec());
            for i in 0..csr.len() {
                let expect: Vec<NodeId> = m.neighbors(csr.node(i)).collect();
                let got: Vec<NodeId> = csr
                    .neighbors_of(i)
                    .iter()
                    .map(|&j| csr.node(j as usize))
                    .collect();
                prop_assert_eq!(got, expect);
                prop_assert_eq!(csr.degree_of(i), m.degree(csr.node(i)).unwrap());
            }
        }
    }

    /// Determinism pin: after heavy churn (including slot recycling),
    /// `nodes()` and `edges()` enumerate in exactly the ascending order the
    /// seed representation produced — the order every seeded experiment
    /// replays.
    #[test]
    fn iteration_order_is_identical_to_seed_representation() {
        let mut rng = StdRng::seed_from_u64(0xD15EA5E);
        let mut g = Graph::new();
        let mut m = BaselineGraph::new();
        // Interleave inserts/deletes/colorings so slots are heavily recycled
        // and arena order diverges maximally from id order.
        let mut live: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for step in 0..4000 {
            if live.len() < 3 || rng.random::<f64>() < 0.55 {
                g.add_node(n(next)).unwrap();
                m.add_node(n(next)).unwrap();
                if !live.is_empty() {
                    for _ in 0..rng.random_range(0..3usize) {
                        let u = live[rng.random_range(0..live.len())];
                        let _ = g.add_black_edge(n(next), n(u));
                        let _ = m.add_black_edge(n(next), n(u));
                    }
                }
                live.push(next);
                next += 1;
            } else {
                let i = rng.random_range(0..live.len());
                let v = live.swap_remove(i);
                assert_eq!(g.remove_node(n(v)), m.remove_node(n(v)), "step {step}");
            }
            if step % 7 == 0 && live.len() >= 2 {
                let a = live[rng.random_range(0..live.len())];
                let b = live[rng.random_range(0..live.len())];
                if a != b {
                    let c = CloudColor::new(step as u64 % 5);
                    assert_eq!(
                        g.add_colored_edge(n(a), n(b), c),
                        m.add_colored_edge(n(a), n(b), c)
                    );
                }
            }
        }
        g.validate().unwrap();

        let nodes: Vec<NodeId> = g.nodes().collect();
        assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "nodes() must ascend strictly"
        );
        assert_eq!(nodes, m.node_vec());
        assert_eq!(
            dump(&g),
            dump_model(&m),
            "edges() enumeration order must match the seed representation"
        );
        assert_eq!(g.edge_fingerprint(), m.edge_fingerprint());
    }

    #[test]
    fn baseline_matches_expected_triangle_behavior() {
        let mut g = BaselineGraph::new();
        for i in 0..3 {
            g.add_node(n(i)).unwrap();
        }
        g.add_black_edge(n(0), n(1)).unwrap();
        g.add_black_edge(n(1), n(2)).unwrap();
        g.add_black_edge(n(2), n(0)).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(n(0)), Some(2));
        assert_eq!(g.cut_size(&[n(0)]), 2);
        let incident = g.remove_node(n(0)).unwrap();
        assert_eq!(incident.len(), 2);
        g.validate().unwrap();
    }
}
