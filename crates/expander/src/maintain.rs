//! Maintained expanders: the clique/H-graph hybrid each Xheal cloud uses.
//!
//! `MakeCloud` in the paper (Algorithm 3.2) builds a clique when the member
//! set is at most `κ + 1` nodes and a κ-regular expander otherwise; Section 5
//! adds the amortization rule "reconstruct the H-graph after any cloud has
//! lost half of its nodes". [`MaintainedExpander`] packages those rules and
//! reports every mutation as an [`EdgeDelta`] so the caller can mirror the
//! cloud's edges (with its color) into the network graph.

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

    /// Folds `next`, a delta applied after this one, into this one, which
    /// becomes the net change of both. Both must be ascending and exact:
    /// each removes only edges present and adds only edges absent when it
    /// applies.
    ///
    /// An edge added here and removed by `next` cancels, and so does one
    /// removed here and re-added by `next`. Folding every step of a
    /// sequence into an empty delta gives exactly
    /// [`EdgeDelta::between`] of the first and last edge sets, ascending,
    /// in merge walks over the two deltas rather than the edge sets.
    pub fn then(&mut self, next: EdgeDelta) {
        if self.is_empty() {
            *self = next;
            return;
        }
        // added − next.removed, and next.removed − added.
        let EdgeDelta {
            added: kept_adds,
            removed: new_removes,
        } = EdgeDelta::between(&next.removed, &self.added);
        // removed − next.added, and next.added − removed.
        let EdgeDelta {
            added: kept_removes,
            removed: new_adds,
        } = EdgeDelta::between(&next.added, &self.removed);
        // Each pair is disjoint: an edge is either present or absent when
        // `next` applies.
        self.added = merge(kept_adds, new_adds);
        self.removed = merge(kept_removes, new_removes);
    }

    /// True when the operation changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Merges two ascending, mutually disjoint edge lists into one.
fn merge(a: Vec<EdgePair>, b: Vec<EdgePair>) -> Vec<EdgePair> {
    if b.is_empty() {
        return a;
    }
    if a.is_empty() {
        return b;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[derive(Clone, Debug)]
enum Topology {
    /// The members (ascending, duplicate-free), every pair joined; used
    /// while there are at most `kappa + 1` of them.
    Clique(Vec<NodeId>),
    /// Law–Siu H-graph with `d = kappa / 2` Hamilton cycles, which holds
    /// its own ascending member list.
    HGraph(HGraph),
}

/// A self-maintaining expander over a dynamic member set.
///
/// The topology is the one copy of the cloud's state: the members are one
/// ascending list (the clique's, or the H-graph's), and the projected edge
/// set is not stored. Splices report their change as an [`EdgeDelta`], and
/// [`MaintainedExpander::edges`] recomputes the projection when a caller
/// needs all of it.
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
    topology: Topology,
    /// Size at the last full (re)build — drives the rebuild-at-half rule.
    peak_size: usize,
    /// Count of full rebuilds (exposed for the amortization experiments).
    rebuilds: usize,
}

/// All-pairs edges over an ascending member list, ascending.
fn clique_edges(members: &[NodeId]) -> Vec<EdgePair> {
    let mut out = Vec::with_capacity(members.len() * members.len().saturating_sub(1) / 2);
    for (i, &a) in members.iter().enumerate() {
        out.extend(members[i + 1..].iter().map(|&b| (a, b)));
    }
    out
}

/// The pairs joining `v` to each of `others` (ascending, without `v`),
/// ascending: `others` below `v` give `(u, v)` and precede those above,
/// which give `(v, u)`.
fn star_edges(v: NodeId, others: &[NodeId]) -> Vec<EdgePair> {
    others
        .iter()
        .map(|&u| if u < v { (u, v) } else { (v, u) })
        .collect()
}

/// The topology over ascending `members`: a clique up to `kappa + 1` of
/// them, a fresh random H-graph above.
fn build<R: Rng + ?Sized>(members: Vec<NodeId>, kappa: usize, rng: &mut R) -> Topology {
    if members.len() <= kappa + 1 {
        Topology::Clique(members)
    } else {
        Topology::HGraph(HGraph::random(&members, kappa / 2, rng))
    }
}

impl MaintainedExpander {
    /// Builds an expander over `members` with target degree `kappa`
    /// (clique if `members.len() <= kappa + 1`), returning the initial edge
    /// set to install, ascending.
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
        let mut set = members.to_vec();
        set.sort_unstable();
        set.dedup();
        assert!(!set.is_empty(), "expander needs at least one member");
        let me = MaintainedExpander {
            kappa,
            peak_size: set.len(),
            topology: build(set, kappa, rng),
            rebuilds: 0,
        };
        let initial = me.edges();
        (me, initial)
    }

    /// Target degree κ.
    pub fn kappa(&self) -> usize {
        self.kappa
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.members().len()
    }

    /// True when no members remain.
    pub fn is_empty(&self) -> bool {
        self.members().is_empty()
    }

    /// Is `v` a member? O(log n).
    pub fn contains(&self, v: NodeId) -> bool {
        self.members().binary_search(&v).is_ok()
    }

    /// The members, ascending.
    pub fn members(&self) -> &[NodeId] {
        match &self.topology {
            Topology::Clique(members) => members,
            Topology::HGraph(h) => h.members(),
        }
    }

    /// The projected edges currently installed, ascending. Computed from the
    /// topology on each call: O(m) for a clique, O(m log m) for an H-graph.
    pub fn edges(&self) -> Vec<EdgePair> {
        match &self.topology {
            Topology::Clique(members) => clique_edges(members),
            Topology::HGraph(h) => h.simple_edges(),
        }
    }

    /// Is the current topology a clique?
    pub fn is_clique(&self) -> bool {
        matches!(self.topology, Topology::Clique(_))
    }

    /// Number of full rebuilds performed so far.
    pub fn rebuild_count(&self) -> usize {
        self.rebuilds
    }

    /// Adds `v` to the expander, returning the edge delta to apply.
    ///
    /// H-graph splices compute their delta locally (O(d²) via
    /// [`HGraph::insert_with_delta`], which draws each splice position by
    /// index into its sorted member list) instead of re-projecting the
    /// whole edge set; only rebuilds and clique growth pay work
    /// proportional to the cloud.
    ///
    /// # Panics
    ///
    /// Panics if `v` is already a member.
    pub fn insert<R: Rng + ?Sized>(&mut self, v: NodeId, rng: &mut R) -> EdgeDelta {
        match &mut self.topology {
            Topology::Clique(members) => {
                let Err(at) = members.binary_search(&v) else {
                    panic!("{v} already a member");
                };
                if members.len() > self.kappa {
                    // With `v` the clique outgrows its bound of κ + 1
                    // members: promote to an H-graph.
                    let old = clique_edges(members);
                    let mut members = std::mem::take(members);
                    members.insert(at, v);
                    self.rebuild(old, members, rng)
                } else {
                    // Clique insert: exactly the new node's pairs appear.
                    let added = star_edges(v, members);
                    members.insert(at, v);
                    EdgeDelta {
                        added,
                        removed: Vec::new(),
                    }
                }
            }
            Topology::HGraph(h) => {
                let (added, removed) = h.insert_with_delta(v, rng);
                self.peak_size = self.peak_size.max(h.len());
                EdgeDelta { added, removed }
            }
        }
    }

    /// Removes `v`, returning the edge delta to apply. Applies the paper's
    /// rules: fall back to a clique at `κ + 1` members, rebuild the H-graph
    /// once half of the membership since the last build is gone. Like
    /// [`MaintainedExpander::insert`], non-rebuild splices cost O(d²) plus
    /// one shift of the H-graph's member list.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a member.
    pub fn remove<R: Rng + ?Sized>(&mut self, v: NodeId, rng: &mut R) -> EdgeDelta {
        match &mut self.topology {
            Topology::Clique(members) => {
                let Ok(at) = members.binary_search(&v) else {
                    panic!("{v} not a member");
                };
                // Clique removal: exactly the node's pairs disappear.
                members.remove(at);
                EdgeDelta {
                    added: Vec::new(),
                    removed: star_edges(v, members),
                }
            }
            Topology::HGraph(h) => {
                let left = h.len() - 1;
                if left <= self.kappa + 1 || left * 2 <= self.peak_size {
                    let old = h.simple_edges();
                    h.delete(v);
                    let members = h.members().to_vec();
                    self.rebuild(old, members, rng)
                } else {
                    let (added, removed) = h.delete_with_delta(v);
                    EdgeDelta { added, removed }
                }
            }
        }
    }

    /// Forces a full rebuild (fresh random topology), returning the diff
    /// against the previous projection.
    pub fn force_rebuild<R: Rng + ?Sized>(&mut self, rng: &mut R) -> EdgeDelta {
        let old = self.edges();
        let members = self.members().to_vec();
        self.rebuild(old, members, rng)
    }

    /// Replaces the topology with a fresh one over `members` (ascending),
    /// returning the diff from `old`, the projection before the change.
    fn rebuild<R: Rng + ?Sized>(
        &mut self,
        old: Vec<EdgePair>,
        members: Vec<NodeId>,
        rng: &mut R,
    ) -> EdgeDelta {
        self.rebuilds += 1;
        self.peak_size = members.len();
        self.topology = build(members, self.kappa, rng);
        EdgeDelta::between(&old, &self.edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::BTreeSet;

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId::new).collect()
    }

    /// Applies `delta` to `edges`, failing unless it is exact: every removed
    /// edge present, every added edge absent, both lists strictly ascending.
    fn apply(edges: &mut BTreeSet<EdgePair>, delta: &EdgeDelta) -> Result<(), TestCaseError> {
        prop_assert!(
            delta.removed.windows(2).all(|w| w[0] < w[1]),
            "removed unsorted"
        );
        prop_assert!(
            delta.added.windows(2).all(|w| w[0] < w[1]),
            "added unsorted"
        );
        for e in &delta.removed {
            prop_assert!(edges.remove(e), "removed edge {:?} not present", e);
        }
        for e in &delta.added {
            prop_assert!(edges.insert(*e), "added edge {:?} already present", e);
        }
        Ok(())
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random joins and departures at κ ∈ {2, 4, 6}, in phases that grow
        /// the cloud to about 4κ and shrink it to two members, twice: every
        /// run crosses clique → H-graph promotion, the rebuild-at-half rule
        /// and H-graph → clique fallback. Each returned delta must be exact
        /// against a mirror, and the mirror must equal `edges()` after
        /// every step.
        #[test]
        fn deltas_track_edge_set_exactly(seed in any::<u64>(), d in 1usize..=3, start in 1u64..12) {
            let kappa = 2 * d;
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut e, initial) = MaintainedExpander::new(&ids(0..start), kappa, &mut rng);
            let mut mirror: BTreeSet<EdgePair> = initial.into_iter().collect();
            let mut next = start;
            let (mut promotions, mut fallbacks, mut half_rebuilds) = (0, 0, 0);
            for phase in 0..4 {
                let growing = phase % 2 == 0;
                let mut steps = 0;
                while if growing { e.len() < 4 * kappa + 8 } else { e.len() > 2 } {
                    steps += 1;
                    prop_assert!(steps < 2_000, "phase {} stalled", phase);
                    let (was_clique, rebuilds) = (e.is_clique(), e.rebuild_count());
                    let join = rng.random_bool(if growing { 0.75 } else { 0.25 });
                    let delta = if join || e.is_empty() {
                        next += 1;
                        e.insert(NodeId::new(next), &mut rng)
                    } else {
                        let v = e.members()[rng.random_range(0..e.len())];
                        let delta = e.remove(v, &mut rng);
                        prop_assert!(!e.contains(v));
                        if e.rebuild_count() > rebuilds && !was_clique {
                            if e.is_clique() {
                                fallbacks += 1;
                            } else {
                                half_rebuilds += 1;
                            }
                        }
                        delta
                    };
                    if was_clique && !e.is_clique() {
                        promotions += 1;
                    }
                    apply(&mut mirror, &delta)?;
                    let projection: Vec<EdgePair> = mirror.iter().copied().collect();
                    prop_assert_eq!(projection, e.edges());
                    prop_assert!(e.members().windows(2).all(|w| w[0] < w[1]));
                }
            }
            prop_assert!(promotions >= 1, "{} promotions", promotions);
            prop_assert!(half_rebuilds >= 2, "{} rebuilds at half", half_rebuilds);
            prop_assert!(fallbacks >= 2, "{} fallbacks", fallbacks);
        }

        /// Removing a random subset of one cloud's members and folding each
        /// removal's delta into a running net delta gives exactly the diff
        /// of the projections before and after, whatever rebuilds and
        /// fallbacks the removals cross.
        #[test]
        fn folded_removals_equal_the_net_diff(
            seed in any::<u64>(),
            d in 1usize..=3,
            size in 2u64..40,
            joins in 0u64..20,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut e, _) = MaintainedExpander::new(&ids(0..size), 2 * d, &mut rng);
            for v in size..size + joins {
                e.insert(NodeId::new(v), &mut rng);
            }
            let before = e.edges();
            let mut victims = e.members().to_vec();
            victims.retain(|_| rng.random_bool(0.5));
            let mut net = EdgeDelta::default();
            for &v in &victims {
                net.then(e.remove(v, &mut rng));
            }
            prop_assert_eq!(net, EdgeDelta::between(&before, &e.edges()));
        }
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
        let members = e.members().to_vec();
        let delta = e.force_rebuild(&mut rng);
        assert_eq!(e.members(), members.as_slice());
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
            for (a, b) in e.edges() {
                g.add_black_edge(a, b).unwrap();
            }
            assert!(
                xheal_graph::components::is_connected(&g),
                "round {round}: projection disconnected"
            );
        }
    }
}
