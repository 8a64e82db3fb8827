//! Connectivity: components and articulation points.
//!
//! Connectivity is the paper's first invariant ("the algorithm's goal is to
//! maintain connectivity"); articulation points power the omniscient
//! adversary's nastiest strategy (deleting cut vertices, which maximally
//! stresses the healer).

use std::collections::VecDeque;

use crate::{CsrView, Graph, NodeId};

/// The connected components, each sorted ascending; components sorted by
/// their smallest node.
pub fn components(g: &Graph) -> Vec<Vec<NodeId>> {
    let csr = g.csr_view();
    let mut seen = vec![false; csr.len()];
    let mut out = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    for root in 0..csr.len() {
        if seen[root] {
            continue;
        }
        let mut comp = Vec::new();
        seen[root] = true;
        stack.push(root as u32);
        while let Some(x) = stack.pop() {
            comp.push(csr.node(x as usize));
            for &y in csr.neighbors_of(x as usize) {
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    stack.push(y);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// Connected-component count of a CSR snapshot: one dense BFS sweep that
/// materializes no component (the monitor's checkpoint counts with it).
pub fn component_count(csr: &CsrView) -> usize {
    let n = csr.len();
    let mut seen = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut components = 0;
    for root in 0..n {
        if seen[root] {
            continue;
        }
        components += 1;
        seen[root] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &w in csr.neighbors_of(u) {
                let w = w as usize;
                if !seen[w] {
                    seen[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    components
}

/// Is the graph connected? The empty graph counts as connected.
pub fn is_connected(g: &Graph) -> bool {
    component_count(&g.csr_view()) <= 1
}

/// Size of the largest connected component (0 for an empty graph).
pub fn largest_component_size(g: &Graph) -> usize {
    components(g).iter().map(Vec::len).max().unwrap_or(0)
}

/// Articulation points (cut vertices) via iterative Tarjan low-link.
///
/// A node is an articulation point if removing it increases the number of
/// connected components. Returned sorted ascending.
pub fn articulation_points(g: &Graph) -> Vec<NodeId> {
    const NIL: u32 = u32::MAX;
    let csr = g.csr_view();
    let n = csr.len();
    let mut disc = vec![NIL; n];
    let mut low = vec![0u32; n];
    let mut parent = vec![NIL; n];
    let mut children = vec![0u32; n];
    let mut is_cut = vec![false; n];
    let mut timer = 0u32;
    // Iterative DFS with an explicit neighbor cursor per frame.
    let mut stack: Vec<(u32, u32)> = Vec::new();

    for root in 0..n {
        if disc[root] != NIL {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        stack.push((root as u32, 0));

        while let Some(frame) = stack.last_mut() {
            let v = frame.0 as usize;
            let nbrs = csr.neighbors_of(v);
            if (frame.1 as usize) < nbrs.len() {
                let u = nbrs[frame.1 as usize] as usize;
                frame.1 += 1;
                if disc[u] != NIL {
                    // Back edge (ignore the tree edge to the parent).
                    if parent[v] != u as u32 && disc[u] < low[v] {
                        low[v] = disc[u];
                    }
                } else {
                    disc[u] = timer;
                    low[u] = timer;
                    timer += 1;
                    parent[u] = v as u32;
                    children[v] += 1;
                    stack.push((u as u32, 0));
                }
            } else {
                // Finished v: propagate low-link to parent.
                stack.pop();
                let p = parent[v];
                if p != NIL {
                    let p = p as usize;
                    if low[v] < low[p] {
                        low[p] = low[v];
                    }
                    // Non-root parent is a cut vertex if no back edge from
                    // v's subtree climbs above p.
                    if parent[p] != NIL && low[v] >= disc[p] {
                        is_cut[p] = true;
                    }
                }
            }
        }

        // Root rule: cut vertex iff it has >= 2 DFS children.
        if children[root] >= 2 {
            is_cut[root] = true;
        }
    }

    // Dense order is ascending NodeId, so the result is already sorted.
    (0..n).filter(|&i| is_cut[i]).map(|i| csr.node(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn component_count_counts() {
        assert_eq!(component_count(&Graph::new().csr_view()), 0);
        let mut g = generators::cycle(5);
        assert_eq!(component_count(&g.csr_view()), 1);
        g.add_node(n(50)).unwrap();
        g.add_node(n(51)).unwrap();
        g.add_black_edge(n(50), n(51)).unwrap();
        assert_eq!(component_count(&g.csr_view()), 2);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_connected(&Graph::new()));
        assert_eq!(largest_component_size(&Graph::new()), 0);
    }

    #[test]
    fn path_is_connected_until_split() {
        let mut g = generators::path(5);
        assert!(is_connected(&g));
        g.remove_node(n(2)).unwrap();
        assert!(!is_connected(&g));
        let comps = components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![n(0), n(1)]);
        assert_eq!(comps[1], vec![n(3), n(4)]);
        assert_eq!(largest_component_size(&g), 2);
    }

    #[test]
    fn path_interior_nodes_are_articulation_points() {
        let g = generators::path(5);
        assert_eq!(
            articulation_points(&g),
            vec![n(1), n(2), n(3)],
            "interior path nodes are cut vertices"
        );
    }

    #[test]
    fn cycle_has_no_articulation_points() {
        let g = generators::cycle(6);
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn star_center_is_the_only_articulation_point() {
        let g = generators::star(7);
        assert_eq!(articulation_points(&g), vec![n(0)]);
    }

    #[test]
    fn two_triangles_joined_at_a_node() {
        // 0-1-2-0 and 2-3-4-2: node 2 is the cut vertex.
        let mut g = Graph::new();
        for i in 0..5 {
            g.add_node(n(i)).unwrap();
        }
        for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)] {
            g.add_black_edge(n(a), n(b)).unwrap();
        }
        assert_eq!(articulation_points(&g), vec![n(2)]);
    }

    #[test]
    fn complete_graph_has_no_cut_vertices() {
        let g = generators::complete(6);
        assert!(articulation_points(&g).is_empty());
    }

    #[test]
    fn articulation_points_match_bruteforce_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::erdos_renyi(12, 0.2, &mut rng);
            let fast = articulation_points(&g);
            // Brute force: a node with neighbors is a cut vertex iff its
            // removal strictly increases the component count.
            let base = components(&g).len();
            let mut slow = Vec::new();
            for v in g.node_vec() {
                if g.degree(v) == Some(0) {
                    continue;
                }
                let mut h = g.clone();
                h.remove_node(v).unwrap();
                if components(&h).len() > base {
                    slow.push(v);
                }
            }
            assert_eq!(fast, slow, "seed {seed}");
        }
    }
}
