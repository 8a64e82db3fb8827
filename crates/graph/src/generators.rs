//! Graph generators used as initial topologies and workload substrates.
//!
//! All generators number nodes `0..n` via [`NodeId::new`] and produce only
//! black edges (the adversary's and original edges are black in the paper).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, NodeId};

fn base(n: usize) -> Graph {
    let mut g = Graph::with_node_capacity(n);
    for i in 0..n {
        g.add_node(NodeId::new(i as u64)).expect("fresh id");
    }
    g
}

fn id(i: usize) -> NodeId {
    NodeId::new(i as u64)
}

/// Path `0 - 1 - ... - (n-1)`.
pub fn path(n: usize) -> Graph {
    let mut g = base(n);
    for i in 1..n {
        g.add_black_edge(id(i - 1), id(i)).expect("valid");
    }
    g
}

/// Cycle on `n >= 3` nodes (falls back to [`path`] for smaller `n`).
pub fn cycle(n: usize) -> Graph {
    let mut g = path(n);
    if n >= 3 {
        g.add_black_edge(id(n - 1), id(0)).expect("valid");
    }
    g
}

/// Chord-augmented ring: the cycle `0 - 1 - ... - (n-1) - 0` plus, for
/// every node `i` and every power of two `2^k < n/2` (k ≥ 1), the chord
/// `i — (i + 2^k) mod n`.
///
/// This is the classic greedy-routable overlay (Chord's finger graph made
/// undirected): greedy forwarding by clockwise ring distance reaches any
/// destination in O(log n) hops, and degrees are Θ(log n). The routed
/// traffic benchmark uses it as the substrate whose healed descendants
/// are still greedily routable.
pub fn ring_with_chords(n: usize) -> Graph {
    let mut g = cycle(n);
    let mut span = 2usize;
    while span < n.div_ceil(2) {
        for i in 0..n {
            g.add_black_edge(id(i), id((i + span) % n)).expect("valid");
        }
        span *= 2;
    }
    g
}

/// Star with center `0` and `n - 1` leaves.
///
/// This is the paper's running worst case: deleting the center collapses
/// tree-style healers' expansion to `O(1/n)`.
pub fn star(n: usize) -> Graph {
    let mut g = base(n);
    for i in 1..n {
        g.add_black_edge(id(0), id(i)).expect("valid");
    }
    g
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = base(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_black_edge(id(i), id(j)).expect("valid");
        }
    }
    g
}

/// `w × h` grid (the wireless-mesh topology of the examples).
/// Node `(x, y)` is `y * w + x`.
pub fn grid(w: usize, h: usize) -> Graph {
    let mut g = base(w * h);
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if x + 1 < w {
                g.add_black_edge(id(v), id(v + 1)).expect("valid");
            }
            if y + 1 < h {
                g.add_black_edge(id(v), id(v + w)).expect("valid");
            }
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = base(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.random::<f64>() < p {
                g.add_black_edge(id(i), id(j)).expect("valid");
            }
        }
    }
    g
}

/// Connected Erdős–Rényi: [`erdos_renyi`] plus a random Hamiltonian backbone,
/// guaranteeing connectivity while keeping the random structure.
pub fn connected_erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = erdos_renyi(n, p, rng);
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    for w in order.windows(2) {
        let _ = g.add_black_edge(id(w[0]), id(w[1]));
    }
    g
}

/// Random `d`-regular graph via the pairing (configuration) model with
/// edge-swap repair of self-loops and multi-edges.
///
/// # Panics
///
/// Panics if `n * d` is odd or `d >= n`, or if repair fails to converge
/// (vanishing probability for the sizes used here).
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    use std::collections::BTreeSet;
    assert!(d < n, "degree must be below node count");
    assert!(n * d % 2 == 0, "n*d must be even");

    let norm = |a: usize, b: usize| if a < b { (a, b) } else { (b, a) };
    'attempt: for _ in 0..50 {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(rng);
        let mut pairs: Vec<(usize, usize)> = stubs.chunks(2).map(|c| (c[0], c[1])).collect();
        let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut bad: Vec<usize> = Vec::new();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if a == b || !seen.insert(norm(a, b)) {
                bad.push(i);
            }
        }
        // Repair conflicting pairs by 2-swaps with random good pairs.
        let mut budget = 200 * n * d + 10_000;
        while let Some(&i) = bad.last() {
            if budget == 0 {
                continue 'attempt;
            }
            budget -= 1;
            let (a, b) = pairs[i];
            let j = rng.random_range(0..pairs.len());
            if j == i || bad.contains(&j) {
                continue;
            }
            let (c, dd) = pairs[j];
            // Proposed replacement pairs (a, dd) and (c, b).
            if a == dd || c == b {
                continue;
            }
            let e1 = norm(a, dd);
            let e2 = norm(c, b);
            if e1 == e2 || seen.contains(&e1) || seen.contains(&e2) {
                continue;
            }
            seen.remove(&norm(c, dd));
            seen.insert(e1);
            seen.insert(e2);
            pairs[i] = (a, dd);
            pairs[j] = (c, b);
            bad.pop();
        }
        let mut g = base(n);
        for (a, b) in pairs {
            g.add_black_edge(id(a), id(b))
                .expect("repaired pairs are simple");
        }
        return g;
    }
    panic!("failed to sample a simple {d}-regular graph on {n} nodes");
}

/// Preferential-attachment (Barabási–Albert) graph: seed clique of `m + 1`
/// nodes, then each new node attaches to `m` distinct existing nodes chosen
/// proportionally to degree.
///
/// # Panics
///
/// Panics if `n <= m`.
pub fn preferential_attachment<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(n > m, "need more nodes than attachment count");
    let mut g = complete(m + 1);
    // Repeated-node list: each node appears once per unit of degree.
    let mut lottery: Vec<usize> = Vec::new();
    for v in 0..=m {
        for _ in 0..m {
            lottery.push(v);
        }
    }
    for v in (m + 1)..n {
        g.add_node(id(v)).expect("fresh");
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < m {
            let pick = lottery[rng.random_range(0..lottery.len())];
            chosen.insert(pick);
        }
        for &u in &chosen {
            g.add_black_edge(id(v), id(u)).expect("valid");
            lottery.push(u);
            lottery.push(v);
        }
    }
    g
}

/// The Preliminaries' Cheeger example: take a random `d`-regular graph,
/// split nodes into two halves, keep the crossing edges, and turn each half
/// into a clique. Edge expansion stays constant while conductance drops to
/// `O(1/n)`.
pub fn clique_pair_with_expander_bridge<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    let reg = random_regular(n, d, rng);
    let half = n / 2;
    let mut g = base(n);
    // Cliques within each half.
    for i in 0..half {
        for j in (i + 1)..half {
            g.add_black_edge(id(i), id(j)).expect("valid");
        }
    }
    for i in half..n {
        for j in (i + 1)..n {
            g.add_black_edge(id(i), id(j)).expect("valid");
        }
    }
    // Crossing edges inherited from the regular graph.
    for (u, v, _) in reg.edges() {
        let cu = (u.as_u64() as usize) < half;
        let cv = (v.as_u64() as usize) < half;
        if cu != cv {
            let _ = g.add_black_edge(u, v);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{components, traversal};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(id(0)), Some(1));
        assert_eq!(g.degree(id(2)), Some(2));
        g.validate().unwrap();
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(5);
        assert_eq!(g.edge_count(), 5);
        assert!(g.node_vec().iter().all(|&v| g.degree(v) == Some(2)));
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(id(0)), Some(5));
        assert!((1..6).all(|i| g.degree(id(i)) == Some(1)));
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.node_vec().iter().all(|&v| g.degree(v) == Some(4)));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // Edges: horizontal 2*4 + vertical 3*3 = 17.
        assert_eq!(g.edge_count(), 17);
        assert!(components::is_connected(&g));
        assert_eq!(traversal::bfs_distances(&g, id(0))[&id(11)], 5);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(erdos_renyi(10, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut rng).edge_count(), 45);
    }

    #[test]
    fn connected_erdos_renyi_is_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let g = connected_erdos_renyi(30, 0.02, &mut rng);
            assert!(components::is_connected(&g));
        }
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = StdRng::seed_from_u64(3);
        for (n, d) in [(10, 3), (16, 4), (21, 6)] {
            let g = random_regular(n, d, &mut rng);
            assert!(
                g.node_vec().iter().all(|&v| g.degree(v) == Some(d)),
                "({n},{d})"
            );
            g.validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn random_regular_rejects_odd_total() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = random_regular(5, 3, &mut rng);
    }

    #[test]
    fn preferential_attachment_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = preferential_attachment(50, 3, &mut rng);
        assert_eq!(g.node_count(), 50);
        // Seed clique K4 has 6 edges; every further node adds exactly 3.
        assert_eq!(g.edge_count(), 6 + 46 * 3);
        assert!(components::is_connected(&g));
        assert!(g.node_vec().iter().all(|&v| g.degree(v).unwrap() >= 3));
    }

    #[test]
    fn clique_pair_bridge_is_connected_with_low_conductance() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = clique_pair_with_expander_bridge(16, 4, &mut rng);
        assert!(components::is_connected(&g));
        let phi = crate::cuts::conductance_exact(&g).unwrap();
        let h = crate::cuts::edge_expansion_exact(&g).unwrap();
        // Conductance is much smaller than expansion on this family.
        assert!(phi.value < h.value / 2.0, "phi={} h={}", phi.value, h.value);
    }
}
