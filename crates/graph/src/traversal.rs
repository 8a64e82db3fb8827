//! Breadth-first traversal and distance utilities.
//!
//! Stretch (success metric 3 in Figure 1 of the paper) is defined through
//! shortest-path distances in the healed graph `G_t` and in the
//! insertions-only graph `G'_t`; everything here is plain BFS because all
//! graphs are unweighted. All routines run over a dense [`crate::CsrView`]
//! snapshot — one O(n + m) index build, then array-indexed frontier
//! expansion — instead of per-step tree lookups.

use std::collections::{BTreeMap, VecDeque};

use crate::{CsrView, Graph, NodeId};

const UNSEEN: u32 = u32::MAX;

/// Dense BFS from `src` (a dense index) over `csr`, writing each node's hop
/// distance into `dist` by dense index; nodes `src` cannot reach hold
/// `u32::MAX`. `dist` and `queue` are reusable buffers, so a caller running
/// one BFS per source allocates nothing after the first.
///
/// # Examples
///
/// ```
/// use std::collections::VecDeque;
/// use xheal_graph::{generators, traversal};
/// let csr = generators::path(4).csr_view();
/// let (mut dist, mut queue) = (Vec::new(), VecDeque::new());
/// traversal::bfs_dense(&csr, 1, &mut dist, &mut queue);
/// assert_eq!(dist, [1, 0, 1, 2]);
/// ```
pub fn bfs_dense(csr: &CsrView, src: usize, dist: &mut Vec<u32>, queue: &mut VecDeque<u32>) {
    dist.clear();
    dist.resize(csr.len(), UNSEEN);
    queue.clear();
    dist[src] = 0;
    queue.push_back(src as u32);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &u in csr.neighbors_of(v as usize) {
            if dist[u as usize] == UNSEEN {
                dist[u as usize] = dv + 1;
                queue.push_back(u);
            }
        }
    }
}

/// BFS distances from `src` to every reachable node (including `src` at 0).
///
/// Returns an empty map if `src` is not in the graph.
///
/// # Examples
///
/// ```
/// use xheal_graph::{generators, traversal, NodeId};
/// let g = generators::path(5);
/// let d = traversal::bfs_distances(&g, NodeId::new(0));
/// assert_eq!(d[&NodeId::new(4)], 4);
/// ```
pub fn bfs_distances(g: &Graph, src: NodeId) -> BTreeMap<NodeId, u32> {
    let csr = g.csr_view();
    let Some(s) = csr.index_of(src) else {
        return BTreeMap::new();
    };
    let mut dist = Vec::new();
    let mut queue = VecDeque::new();
    bfs_dense(&csr, s, &mut dist, &mut queue);
    dist.iter()
        .enumerate()
        .filter(|&(_, &d)| d != UNSEEN)
        .map(|(i, &d)| (csr.node(i), d))
        .collect()
}

/// Diameter of the graph restricted to reachable pairs, or `None` for an
/// empty graph. For a disconnected graph this is the max of the component
/// diameters (infinite pairs are ignored; use [`crate::components::is_connected`]
/// first if that matters).
pub fn diameter(g: &Graph) -> Option<u32> {
    let csr = g.csr_view();
    let mut dist = Vec::new();
    let mut queue = VecDeque::new();
    let mut best: Option<u32> = None;
    for s in 0..csr.len() {
        bfs_dense(&csr, s, &mut dist, &mut queue);
        let ecc = dist.iter().filter(|&&d| d != UNSEEN).max().copied();
        best = best.max(ecc);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn bfs_on_path_matches_index_distance() {
        let g = generators::path(6);
        let d = bfs_distances(&g, n(2));
        assert_eq!(d[&n(0)], 2);
        assert_eq!(d[&n(5)], 3);
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn bfs_missing_source_is_empty() {
        let g = generators::path(3);
        assert!(bfs_distances(&g, n(99)).is_empty());
    }

    #[test]
    fn distance_handles_same_node_and_disconnection() {
        let mut g = generators::path(3);
        g.add_node(n(77)).unwrap();
        let d = bfs_distances(&g, n(1));
        assert_eq!(d[&n(1)], 0);
        let d = bfs_distances(&g, n(0));
        assert_eq!(d.get(&n(77)), None);
        assert_eq!(d[&n(2)], 2);
    }

    #[test]
    fn cycle_distance_wraps() {
        let g = generators::cycle(8);
        assert_eq!(bfs_distances(&g, n(0))[&n(5)], 3);
        assert_eq!(diameter(&g), Some(4));
    }

    #[test]
    fn star_diameter_is_two() {
        let g = generators::star(10);
        assert_eq!(diameter(&g), Some(2));
    }
}
