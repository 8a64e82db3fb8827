//! Incrementally maintained invariant metrics: O(1)-per-delta degree and
//! black-degree histograms, the max degree-increase against the
//! insertion-only baseline `G'`, and a windowed reservoir of churn-touched
//! nodes for on-demand stretch sampling.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xheal_graph::{CsrView, FxHashMap, NodeId};

/// A maintained histogram over per-node degree values.
///
/// Every bucket update is O(1); [`DegreeHistogram::max`] is maintained
/// lazily (scan down on emptied top bucket — amortized O(1) against the
/// increments that filled it).
#[derive(Clone, Debug, Default)]
pub struct DegreeHistogram {
    counts: Vec<u64>,
    nodes: usize,
    /// Sum of all degrees (for the O(1) mean).
    total: u64,
    /// Highest non-empty bucket (0 when empty).
    hi: usize,
}

impl DegreeHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        DegreeHistogram::default()
    }

    /// Moves one node's count from `old` to `new`; `None` means the node
    /// was absent (insertion) or leaves (deletion).
    pub fn transition(&mut self, old: Option<usize>, new: Option<usize>) {
        if let Some(d) = old {
            debug_assert!(self.counts.get(d).is_some_and(|&c| c > 0));
            self.counts[d] -= 1;
            self.nodes -= 1;
            self.total -= d as u64;
        }
        if let Some(d) = new {
            if d >= self.counts.len() {
                self.counts.resize(d + 1, 0);
            }
            self.counts[d] += 1;
            self.nodes += 1;
            self.total += d as u64;
            self.hi = self.hi.max(d);
        }
        while self.hi > 0 && self.counts[self.hi] == 0 {
            self.hi -= 1;
        }
    }

    /// Number of nodes currently at degree `d`.
    pub fn count_at(&self, d: usize) -> u64 {
        self.counts.get(d).copied().unwrap_or(0)
    }

    /// Number of nodes in the histogram.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Largest degree with a nonzero count (0 for an empty histogram).
    pub fn max(&self) -> usize {
        self.hi
    }

    /// Mean degree (0.0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.total as f64 / self.nodes as f64
        }
    }

    /// The bucket slice (index = degree), trimmed at the maintained max so
    /// two histograms over the same population compare equal regardless of
    /// their peak-capacity history.
    pub fn buckets(&self) -> &[u64] {
        if self.nodes == 0 {
            &[]
        } else {
            &self.counts[..=self.hi]
        }
    }
}

/// Maintained `max_v deg_G(v) / deg_{G'}(v)` over live nodes with nonzero
/// baseline degree — the paper's success metric 1, kept as an ordered
/// multiset of ratios so the max survives decrements (O(log n) per delta).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DegreeIncreaseTracker {
    /// live degree, baseline (`G'`) degree per live node.
    degrees: FxHashMap<NodeId, (u32, u32)>,
    /// Multiset of ratios keyed by their f64 bit pattern (order-preserving
    /// for the non-negative ratios stored here).
    ratios: BTreeMap<u64, u32>,
}

impl DegreeIncreaseTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        DegreeIncreaseTracker::default()
    }

    fn ratio_key(live: u32, base: u32) -> Option<u64> {
        (base > 0).then(|| (live as f64 / base as f64).to_bits())
    }

    fn multiset_remove(&mut self, key: u64) {
        match self.ratios.get_mut(&key) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.ratios.remove(&key);
            }
            None => debug_assert!(false, "ratio key missing from multiset"),
        }
    }

    /// Registers a live node with its current and baseline degrees.
    pub fn insert(&mut self, v: NodeId, live: u32, base: u32) {
        let prev = self.degrees.insert(v, (live, base));
        debug_assert!(prev.is_none(), "{v} already tracked");
        if let Some(k) = Self::ratio_key(live, base) {
            *self.ratios.entry(k).or_insert(0) += 1;
        }
    }

    /// Drops a node (deletion: dead nodes no longer count toward the max).
    pub fn remove(&mut self, v: NodeId) {
        if let Some((live, base)) = self.degrees.remove(&v) {
            if let Some(k) = Self::ratio_key(live, base) {
                self.multiset_remove(k);
            }
        }
    }

    /// Adjusts a live node's degree by `dlive` and its baseline degree by
    /// `dbase` (either may be negative for the live part; the baseline only
    /// ever grows).
    pub fn adjust(&mut self, v: NodeId, dlive: i64, dbase: i64) {
        let Some(&(live, base)) = self.degrees.get(&v) else {
            debug_assert!(false, "{v} not tracked");
            return;
        };
        let nlive = (live as i64 + dlive) as u32;
        let nbase = (base as i64 + dbase) as u32;
        if let Some(k) = Self::ratio_key(live, base) {
            self.multiset_remove(k);
        }
        if let Some(k) = Self::ratio_key(nlive, nbase) {
            *self.ratios.entry(k).or_insert(0) += 1;
        }
        self.degrees.insert(v, (nlive, nbase));
    }

    /// The maintained maximum ratio (0.0 when no comparable node exists) —
    /// matches `xheal_metrics::degree_increase` on the same graphs.
    pub fn max(&self) -> f64 {
        self.ratios
            .last_key_value()
            .map(|(&k, _)| f64::from_bits(k))
            .unwrap_or(0.0)
    }

    /// Number of tracked (live) nodes.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// True when no node is tracked.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }
}

/// Capacity of the [`Monitor`](crate::Monitor)'s stretch reservoir: the
/// sampled sources and targets of each stretch estimate.
pub(crate) const STRETCH_CAPACITY: usize = 16;

/// Window of the monitor's stretch reservoir, in topology generations.
pub(crate) const STRETCH_WINDOW: u64 = 4096;

/// Seed of the monitor's reservoir replacement randomness.
pub(crate) const STRETCH_SEED: u64 = 0x5EED;

/// A windowed reservoir of churn-touched nodes: the sample frame for
/// on-demand stretch estimation. Touches are O(1); stale entries (older
/// than `window` generations, or dead) are discarded lazily at sampling
/// time.
#[derive(Clone, Debug)]
pub struct StretchReservoir {
    capacity: usize,
    window: u64,
    slots: Vec<(NodeId, u64)>,
    rng: StdRng,
    touches: u64,
}

impl StretchReservoir {
    /// Reservoir over the last `window` generations holding at most
    /// `capacity` touched nodes.
    pub fn new(capacity: usize, window: u64, seed: u64) -> Self {
        StretchReservoir {
            capacity: capacity.max(1),
            window: window.max(1),
            slots: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            touches: 0,
        }
    }

    /// Records that `v` was touched by the delta stamped `generation`.
    ///
    /// Once full, every touch evicts a uniformly random slot — a
    /// *recency-biased* reservoir (slot ages are geometric with mean
    /// `capacity` touches), not stream-lifetime Algorithm R, whose decaying
    /// replacement probability would starve the window on a long-running
    /// monitor: with `capacity ≪ window` the sample stays in-window
    /// indefinitely.
    pub fn touch(&mut self, v: NodeId, generation: u64) {
        self.touches += 1;
        if self.slots.len() < self.capacity {
            self.slots.push((v, generation));
            return;
        }
        let j = self.rng.random_range(0..self.capacity as u64);
        self.slots[j as usize] = (v, generation);
    }

    /// The live, in-window sample as of `generation`, restricted to nodes
    /// present in `csr`; deduplicated.
    pub fn sample(&self, csr: &CsrView, generation: u64) -> Vec<NodeId> {
        let cutoff = generation.saturating_sub(self.window);
        let mut out: Vec<NodeId> = self
            .slots
            .iter()
            .filter(|&&(v, g)| g >= cutoff && csr.index_of(v).is_some())
            .map(|&(v, _)| v)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total touches observed (diagnostics).
    pub fn touches(&self) -> u64 {
        self.touches
    }
}

/// BFS from `source` over `neighbors`, writing hop counts into `dist`
/// (`u32::MAX` where unreached) and stopping after the first level at which
/// every node in `targets` has its distance. Distances it writes are final.
fn bfs_until<'a>(
    source: u32,
    neighbors: impl Fn(usize) -> &'a [u32],
    targets: &[u32],
    dist: &mut [u32],
    queue: &mut VecDeque<u32>,
) {
    dist.fill(u32::MAX);
    dist[source as usize] = 0;
    queue.clear();
    queue.push_back(source);
    let mut level = 0;
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        if du > level {
            level = du;
            if targets.iter().all(|&t| dist[t as usize] != u32::MAX) {
                return;
            }
        }
        for &w in neighbors(u as usize) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
}

/// Max stretch over the sampled sources/targets: BFS in the live CSR vs
/// BFS in `G'`'s CSR (dead nodes are traversed there — a baseline shortest
/// path may run through them, per the model), `f64::INFINITY` when a
/// baseline-connected pair is disconnected live (a healing failure).
/// `None` when no comparable pair exists in the sample. Sampled nodes
/// absent from the live graph (stale caller-built samples) are skipped,
/// not fatal. Each BFS stops once it has reached the sampled nodes it
/// compares against.
pub fn sampled_stretch(csr: &CsrView, gprime: &CsrView, sample: &[NodeId]) -> Option<f64> {
    // Each sampled node with its live index and its `G'` index.
    let located: Vec<(NodeId, Option<usize>, Option<u32>)> = sample
        .iter()
        .map(|&v| (v, csr.index_of(v), gprime.index_of(v).map(|i| i as u32)))
        .collect();
    let mut live_dist = vec![u32::MAX; csr.len()];
    let mut base_dist = vec![u32::MAX; gprime.len()];
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut targets: Vec<u32> = Vec::new();
    // (live index, baseline distance) of each pair compared against `s`.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut worst: Option<f64> = None;
    for &(s, si, ss) in &located {
        let (Some(si), Some(ss)) = (si, ss) else {
            continue;
        };
        targets.clear();
        targets.extend(
            located
                .iter()
                .filter(|&&(t, _, _)| t > s)
                .filter_map(|&(_, _, ts)| ts),
        );
        if targets.is_empty() {
            continue;
        }
        bfs_until(
            ss,
            |u| gprime.neighbors_of(u),
            &targets,
            &mut base_dist,
            &mut queue,
        );
        pairs.clear();
        for &(t, ti, ts) in &located {
            let (Some(ti), Some(ts)) = (ti, ts) else {
                continue;
            };
            let db = base_dist[ts as usize];
            if t > s && db != u32::MAX {
                pairs.push((ti as u32, db));
            }
        }
        if pairs.is_empty() {
            continue;
        }
        targets.clear();
        targets.extend(pairs.iter().map(|&(ti, _)| ti));
        bfs_until(
            si as u32,
            |u| csr.neighbors_of(u),
            &targets,
            &mut live_dist,
            &mut queue,
        );
        for &(ti, db) in &pairs {
            let r = match live_dist[ti as usize] {
                u32::MAX => f64::INFINITY,
                dl => dl as f64 / db as f64,
            };
            worst = Some(worst.map_or(r, |w: f64| w.max(r)));
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn histogram_tracks_transitions_and_max() {
        let mut h = DegreeHistogram::new();
        h.transition(None, Some(3));
        h.transition(None, Some(5));
        h.transition(None, Some(5));
        assert_eq!((h.nodes(), h.max(), h.count_at(5)), (3, 5, 2));
        assert!((h.mean() - 13.0 / 3.0).abs() < 1e-12);
        // Max decays when the top bucket empties.
        h.transition(Some(5), Some(1));
        h.transition(Some(5), None);
        assert_eq!((h.nodes(), h.max()), (2, 3));
        h.transition(Some(3), None);
        h.transition(Some(1), None);
        assert_eq!((h.nodes(), h.max()), (0, 0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn degree_increase_survives_decrements() {
        let mut t = DegreeIncreaseTracker::new();
        t.insert(n(1), 4, 2); // 2.0
        t.insert(n(2), 3, 1); // 3.0
        t.insert(n(3), 1, 0); // excluded: zero baseline
        assert_eq!(t.max(), 3.0);
        // The argmax node loses live edges: the max must fall back.
        t.adjust(n(2), -2, 0); // 1.0
        assert_eq!(t.max(), 2.0);
        t.remove(n(1));
        assert_eq!(t.max(), 1.0);
        t.remove(n(2));
        t.remove(n(3));
        assert_eq!(t.max(), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn ties_are_counted_as_a_multiset() {
        let mut t = DegreeIncreaseTracker::new();
        t.insert(n(1), 2, 1);
        t.insert(n(2), 4, 2); // both 2.0
        t.remove(n(1));
        assert_eq!(t.max(), 2.0, "the tied survivor keeps the max");
    }

    #[test]
    fn reservoir_windows_and_dedups() {
        use xheal_graph::generators;
        let g = generators::cycle(6);
        let csr = g.csr_view();
        let mut r = StretchReservoir::new(4, 10, 1);
        for gen in 0..8 {
            r.touch(n(gen % 3), gen);
        }
        let s = r.sample(&csr, 8);
        assert!(!s.is_empty() && s.windows(2).all(|w| w[0] < w[1]));
        // Nodes outside the live graph are filtered.
        r.touch(n(999), 9);
        for v in r.sample(&csr, 9) {
            assert!(v.as_u64() < 6);
        }
        // Everything ages out of the window eventually.
        assert!(r.sample(&csr, 100).is_empty());
    }

    #[test]
    fn sampled_stretch_runs_through_dead_gprime_nodes() {
        use xheal_graph::generators;
        // G' = star around 0; the live graph lost the hub and rewired the
        // leaves into the path 1-2-3-4.
        let gp = generators::star(5);
        let mut live = gp.clone();
        live.remove_node(n(0)).unwrap();
        for leaf in 1..4 {
            live.add_black_edge(n(leaf), n(leaf + 1)).unwrap();
        }
        // Leaf to leaf is 2 in G', through the dead hub; the worst pair,
        // (1, 4), is 3 live.
        let sample: Vec<NodeId> = live.node_vec();
        assert_eq!(
            sampled_stretch(&live.csr_view(), &gp.csr_view(), &sample),
            Some(1.5)
        );
    }

    #[test]
    fn sampled_stretch_matches_hand_example() {
        use xheal_graph::generators;
        // G' is a 6-cycle; live graph lost edge (0,5): dist(0,5) 1 -> 5.
        let gp = generators::cycle(6);
        let mut live = gp.clone();
        live.remove_edge(n(0), n(5)).unwrap();
        let sample: Vec<NodeId> = live.node_vec();
        assert_eq!(
            sampled_stretch(&live.csr_view(), &gp.csr_view(), &sample),
            Some(5.0)
        );
    }
}
