//! Law–Siu H-graphs: unions of `d` independent random Hamilton cycles.
//!
//! Section 5 of the paper builds every expander cloud from the randomized
//! construction of Law and Siu [INFOCOM 2003]: an *H-graph* is a 2d-regular
//! multigraph whose edge set is the union of `d` Hamilton cycles over the
//! member set. Theorem 3 (Law–Siu) shows the INSERT/DELETE splice operations
//! below preserve the "uniformly random H-graph" distribution, and Theorem 4
//! (Friedman / Law–Siu) shows a random H-graph is an expander with high
//! probability.

use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use xheal_graph::{FxHashMap, NodeId};

/// The `(added, removed)` change a splice makes to the projected simple
/// edge set, both sorted ascending.
pub type SpliceDelta = (Vec<(NodeId, NodeId)>, Vec<(NodeId, NodeId)>);

/// Canonical `u < v` orientation of an undirected edge pair.
fn norm(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// One Hamilton cycle stored as successor/predecessor maps.
///
/// The maps are point-lookup-only (splices, incident queries); every
/// enumeration that reaches output or randomness goes through a sorted
/// collection, so the unordered FxHash maps stay deterministic-safe while
/// making large-cloud rebuilds several times cheaper than tree maps.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Cycle {
    next: FxHashMap<NodeId, NodeId>,
    prev: FxHashMap<NodeId, NodeId>,
}

impl Cycle {
    fn from_order(order: &[NodeId]) -> Self {
        let n = order.len();
        let mut next = FxHashMap::default();
        let mut prev = FxHashMap::default();
        next.reserve(n);
        prev.reserve(n);
        for i in 0..n {
            let a = order[i];
            let b = order[(i + 1) % n];
            next.insert(a, b);
            prev.insert(b, a);
        }
        Cycle { next, prev }
    }

    /// Splice `u` between `v` and `next(v)`.
    fn insert_after(&mut self, v: NodeId, u: NodeId) {
        let w = self.next[&v];
        self.next.insert(v, u);
        self.next.insert(u, w);
        self.prev.insert(w, u);
        self.prev.insert(u, v);
    }

    /// Remove `u`, connecting `prev(u)` to `next(u)`.
    fn remove(&mut self, u: NodeId) {
        let p = self.prev.remove(&u).expect("member");
        let n = self.next.remove(&u).expect("member");
        if p == u {
            // u was the last member; nothing to reconnect.
            return;
        }
        self.next.insert(p, n);
        self.prev.insert(n, p);
    }

    /// Undirected simple edges of this cycle (excluding self-pairs).
    fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.next.iter().filter_map(|(&a, &b)| {
            if a == b {
                None
            } else if a < b {
                Some((a, b))
            } else {
                Some((b, a))
            }
        })
    }

    /// Checks the cycle is a single closed tour over `members` (ascending).
    fn validate(&self, members: &[NodeId]) -> Result<(), String> {
        if self.next.len() != members.len() || self.prev.len() != members.len() {
            return Err("cycle membership mismatch".into());
        }
        let Some(&start) = members.first() else {
            return Ok(());
        };
        let mut seen = 1usize;
        let mut cur = self.next[&start];
        while cur != start {
            if seen > members.len() {
                return Err("cycle does not close".into());
            }
            if members.binary_search(&cur).is_err() {
                return Err(format!("cycle visits non-member {cur}"));
            }
            cur = self.next[&cur];
            seen += 1;
        }
        if seen != members.len() {
            return Err(format!("cycle covers {seen} of {} members", members.len()));
        }
        Ok(())
    }
}

/// A 2d-regular multigraph formed by `d` random Hamilton cycles, with the
/// Law–Siu INSERT/DELETE maintenance operations.
///
/// The *projected simple edge set* ([`HGraph::simple_edges`]) is what gets
/// installed into the network graph — the paper notes that multi-edges are
/// simply not duplicated ("similar high probabilistic guarantees hold in case
/// we make the multi-edges simple"). It is not stored: the cycles are the
/// one copy of the topology, a splice reports its change to the projection
/// as sorted `(added, removed)` lists, and [`HGraph::simple_edges`]
/// recomputes the whole projection on demand.
///
/// The members are kept as one ascending list. A splice draws its position
/// by index into that list, so a draw costs O(1) and the random stream is a
/// uniform pick over the sorted member order; inserting or deleting a
/// member is a binary search plus one shift of the list.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use xheal_expander::HGraph;
/// use xheal_graph::NodeId;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let members: Vec<NodeId> = (0..10).map(NodeId::new).collect();
/// let mut h = HGraph::random(&members, 3, &mut rng); // 6-regular
/// assert_eq!(h.len(), 10);
/// h.delete(NodeId::new(4));
/// assert_eq!(h.len(), 9);
/// h.validate().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct HGraph {
    d: usize,
    /// Members, ascending and duplicate-free.
    members: Vec<NodeId>,
    cycles: Vec<Cycle>,
}

impl HGraph {
    /// Samples a random H-graph with `d` Hamilton cycles over `members`.
    ///
    /// # Panics
    ///
    /// Panics if `members` has fewer than 3 distinct nodes ("we start with 3
    /// nodes, because there is only one possible H-graph of size 3") or
    /// `d == 0`.
    pub fn random<R: Rng + ?Sized>(members: &[NodeId], d: usize, rng: &mut R) -> Self {
        let mut set = members.to_vec();
        set.sort_unstable();
        set.dedup();
        assert!(set.len() >= 3, "H-graphs need at least 3 distinct nodes");
        assert!(d >= 1, "need at least one Hamilton cycle");
        let mut order = set.clone();
        let cycles = (0..d)
            .map(|_| {
                order.shuffle(rng);
                Cycle::from_order(&order)
            })
            .collect();
        HGraph {
            d,
            members: set,
            cycles,
        }
    }

    /// Target multigraph degree `κ = 2d`.
    pub fn kappa(&self) -> usize {
        2 * self.d
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no members remain.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Is `v` a member? O(log n).
    pub fn contains(&self, v: NodeId) -> bool {
        self.members.binary_search(&v).is_ok()
    }

    /// The members, ascending. Index it directly for a uniform O(1) pick.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Law–Siu INSERT: splice `u` into each cycle at an independently random
    /// position.
    ///
    /// # Panics
    ///
    /// Panics if `u` is already a member.
    pub fn insert<R: Rng + ?Sized>(&mut self, u: NodeId, rng: &mut R) {
        let _ = self.insert_with_delta(u, rng);
    }

    /// [`HGraph::insert`], additionally returning the change to the
    /// *projected simple edge set* as `(added, removed)`, both sorted.
    ///
    /// Each cycle's position is a uniform index into the ascending member
    /// list as it stood before `u` joined. The splice is O(d²) plus one
    /// shift of the member list: each cycle contributes at most two new
    /// incident edges and one broken edge, and broken candidates are
    /// membership-checked against the other cycles — no full projection
    /// rebuild. The at most 3d candidate pairs are sorted and deduplicated
    /// in place. Consumes exactly the same randomness as [`HGraph::insert`].
    ///
    /// # Panics
    ///
    /// Panics if `u` is already a member.
    pub fn insert_with_delta<R: Rng + ?Sized>(&mut self, u: NodeId, rng: &mut R) -> SpliceDelta {
        let Err(at) = self.members.binary_search(&u) else {
            panic!("{u} already a member");
        };
        let mut added = Vec::with_capacity(2 * self.d);
        let mut broken = Vec::with_capacity(self.d);
        for cycle in &mut self.cycles {
            let v = self.members[rng.random_range(0..self.members.len())];
            let w = cycle.next[&v];
            cycle.insert_after(v, u);
            added.push(norm(v, u));
            if v != w {
                added.push(norm(u, w));
                broken.push(norm(v, w));
            }
        }
        self.members.insert(at, u);
        added.sort_unstable();
        added.dedup();
        broken.sort_unstable();
        broken.dedup();
        // A broken (v, w) leaves the projection only if no cycle still walks
        // it after all splices.
        broken.retain(|&(a, b)| !self.contains_edge(a, b));
        (added, broken)
    }

    /// Law–Siu DELETE: remove `u` from each cycle, connecting its
    /// predecessor and successor.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a member.
    pub fn delete(&mut self, u: NodeId) {
        let _ = self.delete_with_delta(u);
    }

    /// [`HGraph::delete`], additionally returning the change to the
    /// *projected simple edge set* as `(added, removed)`, both sorted.
    ///
    /// O(d²) plus one shift of the member list, like
    /// [`HGraph::insert_with_delta`]: the removed edges are
    /// exactly `u`'s projected incident edges; the healed `(prev, next)`
    /// pairs count as added only when absent from the pre-splice projection.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a member.
    pub fn delete_with_delta(&mut self, u: NodeId) -> SpliceDelta {
        let Ok(at) = self.members.binary_search(&u) else {
            panic!("{u} not a member");
        };
        // Read phase: collect incident and healed pairs before any splice so
        // "present before" checks see the pre-op cycles.
        let mut removed = Vec::with_capacity(2 * self.d);
        let mut healed = Vec::with_capacity(self.d);
        for cycle in &self.cycles {
            let p = cycle.prev[&u];
            let n = cycle.next[&u];
            if p == u {
                continue; // u was the cycle's last member
            }
            removed.push(norm(p, u));
            removed.push(norm(u, n));
            if p != n {
                healed.push(norm(p, n));
            }
        }
        removed.sort_unstable();
        removed.dedup();
        healed.sort_unstable();
        healed.dedup();
        healed.retain(|&(a, b)| !self.contains_edge(a, b));
        self.members.remove(at);
        for cycle in &mut self.cycles {
            cycle.remove(u);
        }
        (healed, removed)
    }

    /// Does any cycle currently walk the edge `(a, b)` (either direction)?
    pub fn contains_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.cycles
            .iter()
            .any(|c| c.next.get(&a) == Some(&b) || c.next.get(&b) == Some(&a))
    }

    /// The projected simple edge set (union of cycle edges, deduplicated,
    /// self-pairs dropped), each pair with `u < v`, ascending. Computed from
    /// the cycles in O(dn log(dn)).
    pub fn simple_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(self.d * self.members.len());
        for c in &self.cycles {
            edges.extend(c.edges());
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Structural self-check: the member list is strictly ascending, and
    /// every cycle is a single closed tour over it.
    pub fn validate(&self) -> Result<(), String> {
        if !self.members.windows(2).all(|w| w[0] < w[1]) {
            return Err("member list not strictly ascending".into());
        }
        for (i, c) in self.cycles.iter().enumerate() {
            c.validate(&self.members)
                .map_err(|e| format!("cycle {i}: {e}"))?;
        }
        Ok(())
    }
}

impl fmt::Display for HGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "H-graph: {} members, {} cycles ({} simple edges)",
            self.members.len(),
            self.d,
            self.simple_edges().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::collections::BTreeSet;

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId::new).collect()
    }

    #[test]
    fn random_hgraph_is_valid_and_spans_members() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = HGraph::random(&ids(0..12), 3, &mut rng);
        h.validate().unwrap();
        assert_eq!(h.len(), 12);
        assert_eq!(h.kappa(), 6);
        // Every member appears in the simple edge set.
        let edges = h.simple_edges();
        for v in ids(0..12) {
            assert!(edges.iter().any(|&(a, b)| a == v || b == v), "{v} isolated");
        }
    }

    #[test]
    fn simple_degree_at_most_kappa() {
        let mut rng = StdRng::seed_from_u64(2);
        for d in 1..=4usize {
            let h = HGraph::random(&ids(0..20), d, &mut rng);
            let edges = h.simple_edges();
            for v in ids(0..20) {
                let deg = edges.iter().filter(|&&(a, b)| a == v || b == v).count();
                assert!(deg <= 2 * d, "degree {deg} above kappa {}", 2 * d);
                assert!(deg >= 2, "cycle guarantees degree >= 2");
            }
        }
    }

    #[test]
    fn insert_keeps_validity_and_membership() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut h = HGraph::random(&ids(0..5), 2, &mut rng);
        for i in 5..30 {
            h.insert(NodeId::new(i), &mut rng);
            h.validate().unwrap();
        }
        assert_eq!(h.len(), 30);
    }

    #[test]
    fn delete_keeps_validity_down_to_small_sizes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut h = HGraph::random(&ids(0..20), 3, &mut rng);
        for i in 0..17 {
            h.delete(NodeId::new(i));
            h.validate().unwrap();
        }
        assert_eq!(h.len(), 3);
        // Three remaining members still form cycles.
        assert_eq!(h.simple_edges().len(), 3);
    }

    #[test]
    fn connectivity_of_projection() {
        // A single Hamilton cycle connects everything, so any H-graph's
        // simple projection is connected.
        let mut rng = StdRng::seed_from_u64(5);
        let h = HGraph::random(&ids(0..40), 2, &mut rng);
        let edges = h.simple_edges();
        let mut g = xheal_graph::Graph::new();
        for v in ids(0..40) {
            g.add_node(v).unwrap();
        }
        for (u, v) in edges {
            g.add_black_edge(u, v).unwrap();
        }
        assert!(xheal_graph::components::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_few_members_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = HGraph::random(&ids(0..2), 2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "already a member")]
    fn duplicate_insert_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = HGraph::random(&ids(0..4), 2, &mut rng);
        h.insert(NodeId::new(0), &mut rng);
    }

    #[test]
    fn splice_deltas_match_recomputed_projection() {
        // The local O(d²) deltas must track the full projection exactly,
        // edge for edge, across long mixed churn.
        let mut rng = StdRng::seed_from_u64(31);
        let mut h = HGraph::random(&ids(0..10), 3, &mut rng);
        let mut mirror: BTreeSet<(NodeId, NodeId)> = h.simple_edges().into_iter().collect();
        let mut next = 100u64;
        for round in 0..300 {
            if h.len() <= 4 || round % 3 != 0 {
                let (added, removed) = h.insert_with_delta(NodeId::new(next), &mut rng);
                next += 1;
                for e in &removed {
                    assert!(mirror.remove(e), "round {round}: removed {e:?} absent");
                }
                for &e in &added {
                    assert!(mirror.insert(e), "round {round}: added {e:?} present");
                }
            } else {
                let v = h.members()[rng.random_range(0..h.len())];
                let (added, removed) = h.delete_with_delta(v);
                for e in &removed {
                    assert!(mirror.remove(e), "round {round}: removed {e:?} absent");
                }
                for &e in &added {
                    assert!(mirror.insert(e), "round {round}: added {e:?} present");
                }
            }
            let projection: Vec<_> = mirror.iter().copied().collect();
            assert_eq!(
                projection,
                h.simple_edges(),
                "round {round}: projection drift"
            );
            h.validate().unwrap();
        }
    }

    #[test]
    fn members_stay_sorted_and_exact_under_churn() {
        let mut rng = StdRng::seed_from_u64(9);
        let start: Vec<NodeId> = (0..12).map(|i| NodeId::new(10 * i)).collect();
        let mut h = HGraph::random(&start, 2, &mut rng);
        let mut expect: BTreeSet<NodeId> = start.into_iter().collect();
        // Joins land below, between and above the initial ids.
        for v in [55, 1, 200, 5, 111].map(NodeId::new) {
            h.insert(v, &mut rng);
            expect.insert(v);
        }
        for v in [0, 30, 200, 5].map(NodeId::new) {
            h.delete(v);
            expect.remove(&v);
        }
        h.validate().unwrap();
        let expect: Vec<NodeId> = expect.into_iter().collect();
        assert_eq!(h.members(), expect.as_slice());
        assert!(expect.iter().all(|&v| h.contains(v)));
        assert!(!h.contains(NodeId::new(30)));
    }

    #[test]
    fn insert_then_delete_roundtrip_preserves_membership() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut h = HGraph::random(&ids(0..10), 2, &mut rng);
        let before = h.members().to_vec();
        h.insert(NodeId::new(99), &mut rng);
        h.delete(NodeId::new(99));
        assert_eq!(h.members(), before.as_slice());
        h.validate().unwrap();
    }
}
