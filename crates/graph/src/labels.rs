//! Edge labels: the black/colored edge algebra of Section 3 of the paper.
//!
//! The paper colors every edge either *black* (original or adversary-inserted)
//! or with the color of exactly one expander cloud. Two clouds can in practice
//! demand the same edge, and a recolored black edge that its cloud later drops
//! would silently erase an adversary-inserted edge, so this reproduction keeps
//! a small *set* of labels per edge instead: a black flag plus a set of cloud
//! colors. An edge exists while at least one label does.

use std::fmt;

/// Identifier (the paper's "color") of an expander cloud.
///
/// The paper suggests using the id of the deleted node as the color; we use a
/// dedicated counter so that repeatedly rebuilt clouds get distinct colors.
///
/// # Examples
///
/// ```
/// use xheal_graph::CloudColor;
/// let c = CloudColor::new(3);
/// assert_eq!(c.as_u64(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CloudColor(u64);

impl CloudColor {
    /// Creates a color from a raw integer.
    pub const fn new(raw: u64) -> Self {
        CloudColor(raw)
    }

    /// Returns the raw integer backing this color.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for CloudColor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for CloudColor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Whether a cloud is *primary* ("shades of red") or *secondary* ("shades of
/// orange") in the paper's terminology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CloudKind {
    /// Built among the neighbors of a deleted node (Case 1 / Case 2.1 fixes).
    Primary,
    /// Built among bridge nodes of several primary clouds (Case 2.1/2.2).
    Secondary,
}

impl fmt::Display for CloudKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CloudKind::Primary => write!(f, "primary"),
            CloudKind::Secondary => write!(f, "secondary"),
        }
    }
}

/// Colors carried inline before spilling to the heap. Virtually every edge
/// carries 0–2 colors, so the common case allocates nothing — edge churn is
/// the hottest loop in the system and malloc was its dominant cost.
const INLINE_COLORS: usize = 2;

/// Sorted, duplicate-free color storage with a small inline buffer.
///
/// Canonical-form invariant (required for the derived `Eq`/`Hash`): the
/// `Heap` variant holds strictly more than [`INLINE_COLORS`] entries, and
/// unused inline slots are zeroed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ColorSet {
    Inline(u8, [CloudColor; INLINE_COLORS]),
    Heap(Vec<CloudColor>),
}

impl Default for ColorSet {
    fn default() -> Self {
        ColorSet::Inline(0, [CloudColor::new(0); INLINE_COLORS])
    }
}

impl ColorSet {
    fn as_slice(&self) -> &[CloudColor] {
        match self {
            ColorSet::Inline(len, buf) => &buf[..*len as usize],
            ColorSet::Heap(v) => v,
        }
    }

    fn insert(&mut self, c: CloudColor) -> bool {
        match self {
            ColorSet::Inline(len, buf) => {
                let n = *len as usize;
                match buf[..n].binary_search(&c) {
                    Ok(_) => false,
                    Err(pos) if n < INLINE_COLORS => {
                        buf.copy_within(pos..n, pos + 1);
                        buf[pos] = c;
                        *len += 1;
                        true
                    }
                    Err(pos) => {
                        let mut v = Vec::with_capacity(n + 1);
                        v.extend_from_slice(&buf[..pos]);
                        v.push(c);
                        v.extend_from_slice(&buf[pos..n]);
                        *self = ColorSet::Heap(v);
                        true
                    }
                }
            }
            ColorSet::Heap(v) => match v.binary_search(&c) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, c);
                    true
                }
            },
        }
    }

    fn remove(&mut self, c: CloudColor) -> bool {
        match self {
            ColorSet::Inline(len, buf) => {
                let n = *len as usize;
                match buf[..n].binary_search(&c) {
                    Ok(pos) => {
                        buf.copy_within(pos + 1..n, pos);
                        buf[n - 1] = CloudColor::new(0);
                        *len -= 1;
                        true
                    }
                    Err(_) => false,
                }
            }
            ColorSet::Heap(v) => match v.binary_search(&c) {
                Ok(pos) => {
                    v.remove(pos);
                    if v.len() <= INLINE_COLORS {
                        let mut buf = [CloudColor::new(0); INLINE_COLORS];
                        buf[..v.len()].copy_from_slice(v);
                        *self = ColorSet::Inline(v.len() as u8, buf);
                    }
                    true
                }
                Err(_) => false,
            },
        }
    }
}

/// The label set attached to one undirected edge.
///
/// Invariant: the color set is sorted and duplicate-free (and stored inline
/// for up to two colors — the common case never touches the heap); an
/// `EdgeLabels` stored in a graph is never empty (no black flag and no
/// colors means the edge is removed).
///
/// # Examples
///
/// ```
/// use xheal_graph::{CloudColor, EdgeLabels};
/// let mut l = EdgeLabels::black();
/// l.add_color(CloudColor::new(1));
/// assert!(l.is_black());
/// assert!(l.has_color(CloudColor::new(1)));
/// l.clear_black();
/// l.remove_color(CloudColor::new(1));
/// assert!(l.is_empty());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct EdgeLabels {
    black: bool,
    colors: ColorSet,
}

impl EdgeLabels {
    /// A label set containing only the black flag.
    pub fn black() -> Self {
        EdgeLabels {
            black: true,
            colors: ColorSet::default(),
        }
    }

    /// A label set containing a single cloud color.
    pub fn colored(color: CloudColor) -> Self {
        let mut colors = ColorSet::default();
        colors.insert(color);
        EdgeLabels {
            black: false,
            colors,
        }
    }

    /// An empty label set (an edge with these labels must be removed).
    pub fn empty() -> Self {
        EdgeLabels::default()
    }

    /// Does the edge carry the black (original/inserted) label?
    pub fn is_black(&self) -> bool {
        self.black
    }

    /// True when no label remains.
    pub fn is_empty(&self) -> bool {
        !self.black && self.colors.as_slice().is_empty()
    }

    /// Does the edge carry `color`?
    pub fn has_color(&self, color: CloudColor) -> bool {
        self.colors.as_slice().binary_search(&color).is_ok()
    }

    /// The sorted slice of cloud colors on this edge.
    pub fn colors(&self) -> &[CloudColor] {
        self.colors.as_slice()
    }

    /// Sets the black flag.
    pub fn set_black(&mut self) {
        self.black = true;
    }

    /// Clears the black flag.
    pub fn clear_black(&mut self) {
        self.black = false;
    }

    /// Adds a cloud color; returns `true` if it was not already present.
    pub fn add_color(&mut self, color: CloudColor) -> bool {
        self.colors.insert(color)
    }

    /// Removes a cloud color; returns `true` if it was present.
    pub fn remove_color(&mut self, color: CloudColor) -> bool {
        self.colors.remove(color)
    }

    /// Merges all labels from `other` into `self`.
    pub fn merge(&mut self, other: &EdgeLabels) {
        if other.black {
            self.black = true;
        }
        for &c in other.colors.as_slice() {
            self.add_color(c);
        }
    }
}

impl fmt::Display for EdgeLabels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        if self.black {
            write!(f, "black")?;
            first = false;
        }
        for c in self.colors.as_slice() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        if first {
            write!(f, "(none)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn color_roundtrip() {
        let c = CloudColor::new(9);
        assert_eq!(c.as_u64(), 9);
        assert_eq!(format!("{c}"), "c9");
    }

    #[test]
    fn labels_add_remove_colors_stay_sorted() {
        let mut l = EdgeLabels::empty();
        assert!(l.add_color(CloudColor::new(5)));
        assert!(l.add_color(CloudColor::new(2)));
        assert!(l.add_color(CloudColor::new(7)));
        assert!(!l.add_color(CloudColor::new(5)));
        let raw: Vec<u64> = l.colors().iter().map(|c| c.as_u64()).collect();
        assert_eq!(raw, vec![2, 5, 7]);
        assert!(l.remove_color(CloudColor::new(5)));
        assert!(!l.remove_color(CloudColor::new(5)));
        assert!(l.has_color(CloudColor::new(2)));
        assert!(!l.has_color(CloudColor::new(5)));
    }

    #[test]
    fn emptiness_tracks_black_and_colors() {
        let mut l = EdgeLabels::black();
        assert!(!l.is_empty());
        l.clear_black();
        assert!(l.is_empty());
        l.add_color(CloudColor::new(1));
        assert!(!l.is_empty());
        l.remove_color(CloudColor::new(1));
        assert!(l.is_empty());
    }

    #[test]
    fn color_set_spills_and_unspills_canonically() {
        // Cross the inline/heap boundary in both directions and check that
        // equality (and therefore the canonical form) survives.
        let mut spilled = EdgeLabels::empty();
        for c in [5u64, 1, 9, 3, 7] {
            assert!(spilled.add_color(CloudColor::new(c)));
        }
        let raw: Vec<u64> = spilled.colors().iter().map(|c| c.as_u64()).collect();
        assert_eq!(raw, vec![1, 3, 5, 7, 9]);
        for c in [1u64, 9, 3] {
            assert!(spilled.remove_color(CloudColor::new(c)));
        }
        let mut inline = EdgeLabels::empty();
        inline.add_color(CloudColor::new(7));
        inline.add_color(CloudColor::new(5));
        assert_eq!(spilled, inline, "heap->inline must restore canonical form");
    }

    #[test]
    fn merge_unions_labels() {
        let mut a = EdgeLabels::colored(CloudColor::new(1));
        let mut b = EdgeLabels::black();
        b.add_color(CloudColor::new(2));
        a.merge(&b);
        assert!(a.is_black());
        assert!(a.has_color(CloudColor::new(1)));
        assert!(a.has_color(CloudColor::new(2)));
    }

    #[test]
    fn display_formats() {
        let mut l = EdgeLabels::black();
        l.add_color(CloudColor::new(3));
        assert_eq!(format!("{l}"), "black+c3");
        assert_eq!(format!("{}", EdgeLabels::empty()), "(none)");
    }
}
