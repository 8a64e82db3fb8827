//! Incrementally maintained invariant metrics: an O(1)-per-move degree
//! histogram and the max degree increase against the insertion-only
//! baseline `G'`.

use std::collections::BTreeMap;

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
/// multiset of ratios so the max survives decrements (O(log n) per move).
///
/// It keeps no per-node state: the caller, which holds both graphs, moves
/// one node's `(live degree, G' degree)` pair at a time, the way
/// [`DegreeHistogram::transition`] moves one node's degree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DegreeIncreaseTracker {
    /// Multiset of ratios keyed by their f64 bit pattern (order-preserving
    /// for the non-negative ratios stored here).
    ratios: BTreeMap<u64, u32>,
}

impl DegreeIncreaseTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        DegreeIncreaseTracker::default()
    }

    /// The multiset key of a `(live, base)` pair; `None` for a zero
    /// baseline, which no ratio counts.
    fn ratio_key((live, base): (usize, usize)) -> Option<u64> {
        (base > 0).then(|| (live as f64 / base as f64).to_bits())
    }

    /// Moves one node's `(live degree, G' degree)` pair from `old` to
    /// `new`; `None` means the node was absent (insertion) or leaves
    /// (deletion).
    pub fn transition(&mut self, old: Option<(usize, usize)>, new: Option<(usize, usize)>) {
        if let Some(key) = old.and_then(Self::ratio_key) {
            match self.ratios.get_mut(&key) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    self.ratios.remove(&key);
                }
                None => debug_assert!(false, "ratio key missing from multiset"),
            }
        }
        if let Some(key) = new.and_then(Self::ratio_key) {
            *self.ratios.entry(key).or_insert(0) += 1;
        }
    }

    /// The maintained maximum ratio (0.0 when no comparable node exists) —
    /// matches `xheal_metrics::degree_increase` on the same graphs.
    pub fn max(&self) -> f64 {
        self.ratios
            .last_key_value()
            .map(|(&k, _)| f64::from_bits(k))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        t.transition(None, Some((4, 2))); // 2.0
        t.transition(None, Some((3, 1))); // 3.0
        t.transition(None, Some((1, 0))); // excluded: zero baseline
        assert_eq!(t.max(), 3.0);
        // The argmax node loses live edges: the max must fall back.
        t.transition(Some((3, 1)), Some((1, 1))); // 1.0
        assert_eq!(t.max(), 2.0);
        t.transition(Some((4, 2)), None);
        assert_eq!(t.max(), 1.0);
        t.transition(Some((1, 1)), None);
        t.transition(Some((1, 0)), None);
        assert_eq!(t.max(), 0.0);
        assert_eq!(t, DegreeIncreaseTracker::new());
    }

    #[test]
    fn ties_are_counted_as_a_multiset() {
        let mut t = DegreeIncreaseTracker::new();
        t.transition(None, Some((2, 1)));
        t.transition(None, Some((4, 2))); // both 2.0
        t.transition(Some((2, 1)), None);
        assert_eq!(t.max(), 2.0, "the tied survivor keeps the max");
    }
}
