//! Maintained expanders: the clique/H-graph hybrid each Xheal cloud uses.
//!
//! `MakeCloud` in the paper (Algorithm 3.2) builds a clique when the member
//! set is at most `κ + 1` nodes and a κ-regular expander otherwise; Section 5
//! adds the amortization rule "reconstruct the H-graph after any cloud has
//! lost half of its nodes". [`MaintainedExpander`] packages those rules and
//! reports every mutation as an [`EdgeDelta`] so the caller can mirror the
//! cloud's edges (with its color) into the network graph.

use std::collections::BTreeSet;

use rand::Rng;

use xheal_graph::NodeId;

use crate::HGraph;

/// Undirected edge pair with the canonical `u < v` orientation.
pub type EdgePair = (NodeId, NodeId);

/// The edges added/removed by one maintenance operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Edges that must be added (colored with the cloud's color).
    pub added: Vec<EdgePair>,
    /// Edges whose cloud color must be stripped.
    pub removed: Vec<EdgePair>,
}

impl EdgeDelta {
    /// Diff of two **sorted, duplicate-free** edge lists: `added` is
    /// `new − old`, `removed` is `old − new`, both ascending. One merge
    /// walk — no set structures, no per-element searches.
    pub fn between(old: &[EdgePair], new: &[EdgePair]) -> Self {
        debug_assert!(old.windows(2).all(|w| w[0] < w[1]), "old edges unsorted");
        debug_assert!(new.windows(2).all(|w| w[0] < w[1]), "new edges unsorted");
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < old.len() && j < new.len() {
            match old[i].cmp(&new[j]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    removed.push(old[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    added.push(new[j]);
                    j += 1;
                }
            }
        }
        removed.extend_from_slice(&old[i..]);
        added.extend_from_slice(&new[j..]);
        EdgeDelta { added, removed }
    }

    /// True when the operation changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

#[derive(Clone, Debug)]
enum Topology {
    /// All-pairs edges; used while `members <= kappa + 1`.
    Clique,
    /// Law–Siu H-graph with `d = kappa / 2` Hamilton cycles.
    HGraph(HGraph),
}

/// A self-maintaining expander over a dynamic member set.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use xheal_expander::MaintainedExpander;
/// use xheal_graph::NodeId;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let members: Vec<NodeId> = (0..4).map(NodeId::new).collect();
/// // kappa = 4, so 4 members form a clique.
/// let (exp, edges) = MaintainedExpander::new(&members, 4, &mut rng);
/// assert_eq!(edges.len(), 6);
/// assert!(exp.is_clique());
/// ```
#[derive(Clone, Debug)]
pub struct MaintainedExpander {
    kappa: usize,
    members: BTreeSet<NodeId>,
    topology: Topology,
    /// Size at the last full (re)build — drives the rebuild-at-half rule.
    peak_size: usize,
    /// Projected simple edges currently installed. A set, so each splice
    /// edit is O(log m); rebuilds collect it into sorted lists for the
    /// one-walk [`EdgeDelta::between`] diff.
    edges: BTreeSet<EdgePair>,
    /// Count of full rebuilds (exposed for the amortization experiments).
    rebuilds: usize,
}

/// All-pairs edges over a sorted member set.
fn clique_edges(members: &BTreeSet<NodeId>) -> BTreeSet<EdgePair> {
    let v: Vec<NodeId> = members.iter().copied().collect();
    let mut out = BTreeSet::new();
    for (i, &a) in v.iter().enumerate() {
        for &b in &v[i + 1..] {
            out.insert((a, b));
        }
    }
    out
}

impl MaintainedExpander {
    /// Builds an expander over `members` with target degree `kappa`
    /// (clique if `members.len() <= kappa + 1`), returning the initial edge
    /// set to install.
    ///
    /// # Panics
    ///
    /// Panics if `kappa` is not a positive even number (H-graphs are
    /// 2d-regular) or `members` is empty.
    pub fn new<R: Rng + ?Sized>(
        members: &[NodeId],
        kappa: usize,
        rng: &mut R,
    ) -> (Self, Vec<EdgePair>) {
        assert!(kappa >= 2 && kappa % 2 == 0, "kappa must be even and >= 2");
        let set: BTreeSet<NodeId> = members.iter().copied().collect();
        assert!(!set.is_empty(), "expander needs at least one member");
        let (topology, edges) = if set.len() <= kappa + 1 {
            (Topology::Clique, clique_edges(&set))
        } else {
            let order: Vec<NodeId> = set.iter().copied().collect();
            let h = HGraph::random(&order, kappa / 2, rng);
            let e = h.simple_edges();
            (Topology::HGraph(h), e)
        };
        let initial: Vec<EdgePair> = edges.iter().copied().collect();
        let me = MaintainedExpander {
            kappa,
            peak_size: set.len(),
            members: set,
            topology,
            edges,
            rebuilds: 0,
        };
        (me, initial)
    }

    /// Target degree κ.
    pub fn kappa(&self) -> usize {
        self.kappa
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no members remain.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Is `v` a member?
    pub fn contains(&self, v: NodeId) -> bool {
        self.members.contains(&v)
    }

    /// The member set.
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.members
    }

    /// Currently installed projected edges.
    pub fn edges(&self) -> &BTreeSet<EdgePair> {
        &self.edges
    }

    /// Is the current topology a clique?
    pub fn is_clique(&self) -> bool {
        matches!(self.topology, Topology::Clique)
    }

    /// Number of full rebuilds performed so far.
    pub fn rebuild_count(&self) -> usize {
        self.rebuilds
    }

    /// Applies a locally-computed splice delta to the maintained projection
    /// and packages it as an [`EdgeDelta`]: O(log m) per edited edge, and a
    /// splice edits O(d²) of them.
    fn apply_local_delta(&mut self, added: Vec<EdgePair>, removed: Vec<EdgePair>) -> EdgeDelta {
        for e in &removed {
            self.edges.remove(e);
        }
        self.edges.extend(added.iter().copied());
        EdgeDelta { added, removed }
    }

    /// Adds `v` to the expander, returning the edge delta to apply.
    ///
    /// H-graph splices compute their delta locally (O(d²) via
    /// [`HGraph::insert_with_delta`], which draws each splice position by
    /// index into its sorted member list) instead of re-projecting the
    /// whole edge set, and apply it in O(d² log m); only rebuilds and
    /// clique growth pay work proportional to the cloud.
    ///
    /// # Panics
    ///
    /// Panics if `v` is already a member.
    pub fn insert<R: Rng + ?Sized>(&mut self, v: NodeId, rng: &mut R) -> EdgeDelta {
        assert!(self.members.insert(v), "{v} already a member");
        match &mut self.topology {
            Topology::Clique => {
                if self.members.len() > self.kappa + 1 {
                    // Clique outgrew its bound: promote to an H-graph.
                    self.force_rebuild(rng)
                } else {
                    // Clique insert: exactly the new node's pairs appear.
                    let added: Vec<EdgePair> = self
                        .members
                        .iter()
                        .filter(|&&u| u != v)
                        .map(|&u| if u < v { (u, v) } else { (v, u) })
                        .collect();
                    let mut added = added;
                    added.sort_unstable();
                    self.apply_local_delta(added, Vec::new())
                }
            }
            Topology::HGraph(h) => {
                let (added, removed) = h.insert_with_delta(v, rng);
                if self.members.len() > self.peak_size {
                    self.peak_size = self.members.len();
                }
                self.apply_local_delta(added, removed)
            }
        }
    }

    /// Removes `v`, returning the edge delta to apply. Applies the paper's
    /// rules: fall back to a clique at `κ + 1` members, rebuild the H-graph
    /// once half of the membership since the last build is gone. Like
    /// [`MaintainedExpander::insert`], non-rebuild splices cost
    /// O(d² log m) plus one shift of the H-graph's member list.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member.
    pub fn remove<R: Rng + ?Sized>(&mut self, v: NodeId, rng: &mut R) -> EdgeDelta {
        assert!(self.members.remove(&v), "{v} not a member");
        match &mut self.topology {
            Topology::Clique => {
                // Clique removal: exactly the node's pairs disappear.
                let mut removed: Vec<EdgePair> = self
                    .members
                    .iter()
                    .map(|&u| if u < v { (u, v) } else { (v, u) })
                    .collect();
                removed.sort_unstable();
                self.apply_local_delta(Vec::new(), removed)
            }
            Topology::HGraph(h) => {
                if self.members.len() <= self.kappa + 1 || self.members.len() * 2 <= self.peak_size
                {
                    h.delete(v);
                    self.force_rebuild(rng)
                } else {
                    let (added, removed) = h.delete_with_delta(v);
                    self.apply_local_delta(added, removed)
                }
            }
        }
    }

    /// Forces a full rebuild (fresh random topology), returning the diff
    /// against the previous projection.
    pub fn force_rebuild<R: Rng + ?Sized>(&mut self, rng: &mut R) -> EdgeDelta {
        self.rebuilds += 1;
        self.peak_size = self.members.len();
        let old: Vec<EdgePair> = std::mem::take(&mut self.edges).into_iter().collect();
        if self.members.len() <= self.kappa + 1 {
            self.topology = Topology::Clique;
            self.edges = clique_edges(&self.members);
        } else {
            let order: Vec<NodeId> = self.members.iter().copied().collect();
            let h = HGraph::random(&order, self.kappa / 2, rng);
            self.edges = h.simple_edges();
            self.topology = Topology::HGraph(h);
        }
        let new: Vec<EdgePair> = self.edges.iter().copied().collect();
        EdgeDelta::between(&old, &new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId::new).collect()
    }

    fn apply(edges: &mut BTreeSet<EdgePair>, delta: &EdgeDelta) {
        for e in &delta.removed {
            assert!(edges.remove(e), "removed edge {e:?} not present");
        }
        for e in &delta.added {
            assert!(edges.insert(*e), "added edge {e:?} already present");
        }
    }

    #[test]
    fn small_set_is_clique() {
        let mut rng = StdRng::seed_from_u64(1);
        let (e, edges) = MaintainedExpander::new(&ids(0..5), 4, &mut rng);
        assert!(e.is_clique());
        assert_eq!(edges.len(), 10);
    }

    #[test]
    fn large_set_is_hgraph_with_bounded_degree() {
        let mut rng = StdRng::seed_from_u64(2);
        let (e, edges) = MaintainedExpander::new(&ids(0..30), 6, &mut rng);
        assert!(!e.is_clique());
        for v in ids(0..30) {
            let deg = edges.iter().filter(|&&(a, b)| a == v || b == v).count();
            assert!(deg <= 6, "degree {deg} exceeds kappa");
        }
    }

    #[test]
    fn deltas_track_edge_set_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let (mut e, initial) = MaintainedExpander::new(&ids(0..12), 4, &mut rng);
        let mut mirror: BTreeSet<EdgePair> = initial.into_iter().collect();
        let check = |mirror: &BTreeSet<EdgePair>, e: &MaintainedExpander| {
            assert_eq!(mirror, e.edges(), "edge set drift");
        };
        for i in 12..20 {
            let d = e.insert(NodeId::new(i), &mut rng);
            apply(&mut mirror, &d);
            check(&mirror, &e);
        }
        for i in 0..15 {
            let d = e.remove(NodeId::new(i), &mut rng);
            apply(&mut mirror, &d);
            check(&mirror, &e);
        }
        assert_eq!(e.len(), 5);
        assert!(e.is_clique(), "shrunk below kappa+1, must be clique");
    }

    #[test]
    fn clique_promotes_to_hgraph_on_growth() {
        let mut rng = StdRng::seed_from_u64(4);
        let (mut e, _) = MaintainedExpander::new(&ids(0..5), 4, &mut rng);
        assert!(e.is_clique());
        e.insert(NodeId::new(100), &mut rng);
        // 6 members > kappa+1 = 5 -> H-graph.
        assert!(!e.is_clique());
        assert_eq!(e.rebuild_count(), 1);
    }

    #[test]
    fn rebuild_at_half_triggers() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mut e, _) = MaintainedExpander::new(&ids(0..40), 4, &mut rng);
        let mut rebuilds = e.rebuild_count();
        let mut seen_half_rebuild = false;
        for i in 0..20 {
            e.remove(NodeId::new(i), &mut rng);
            if e.rebuild_count() > rebuilds {
                rebuilds = e.rebuild_count();
                if e.len() >= e.kappa() + 2 {
                    seen_half_rebuild = true;
                }
            }
        }
        assert!(seen_half_rebuild, "no half-loss rebuild observed");
    }

    #[test]
    fn force_rebuild_changes_topology_but_not_members() {
        let mut rng = StdRng::seed_from_u64(6);
        let (mut e, _) = MaintainedExpander::new(&ids(0..25), 4, &mut rng);
        let members = e.members().clone();
        let delta = e.force_rebuild(&mut rng);
        assert_eq!(e.members(), &members);
        assert!(!delta.is_empty(), "a fresh random H-graph differs w.h.p.");
    }

    #[test]
    fn kappa_must_be_even() {
        let mut rng = StdRng::seed_from_u64(7);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            MaintainedExpander::new(&ids(0..5), 3, &mut rng)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn expander_projection_stays_connected_under_churn() {
        let mut rng = StdRng::seed_from_u64(8);
        let (mut e, _) = MaintainedExpander::new(&ids(0..24), 4, &mut rng);
        let mut next_id = 24u64;
        for round in 0..60 {
            if round % 3 == 0 {
                e.insert(NodeId::new(next_id), &mut rng);
                next_id += 1;
            } else {
                let &v = e.members().first().unwrap();
                e.remove(v, &mut rng);
            }
            // Check connectivity of the projection.
            let mut g = xheal_graph::Graph::new();
            for &v in e.members() {
                g.add_node(v).unwrap();
            }
            for &(a, b) in e.edges() {
                g.add_black_edge(a, b).unwrap();
            }
            assert!(
                xheal_graph::components::is_connected(&g),
                "round {round}: projection disconnected"
            );
        }
    }
}
