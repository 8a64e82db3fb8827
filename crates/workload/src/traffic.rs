//! Routed-traffic workload: greedy overlay routing over a [`CsrView`]
//! snapshot.
//!
//! The paper's guarantees are about the *healed overlay as a routing
//! substrate*: constant-factor degree increase and O(log n) stretch mean
//! traffic keeps flowing after arbitrary churn. This module supplies the
//! traffic side of that claim for the benchmark's `routed-traffic`
//! workload and any higher-level harness:
//!
//! - [`RoutingRequest`] — the per-message routing state (destination,
//!   hop count, TTL), small and `Copy` so it can ride through a
//!   `xheal_sim` engine as the payload;
//! - [`greedy_next_hop`] / [`route_hops`] — greedy clockwise-ring-distance
//!   forwarding (the classic routing rule of chord-style overlays, see
//!   [`xheal_graph::generators::ring_with_chords`]) with a deterministic
//!   escape hop at local minima, which churn holes create;
//! - [`bfs_distance`] — the shortest-path baseline that turns observed
//!   route lengths into stretch.
//!
//! Everything is deterministic: the escape hop is a hash, so a seeded
//! traffic run is exactly reproducible.

use std::collections::VecDeque;

use xheal_graph::{CsrView, NodeId};

/// Per-message routing state carried through the engine: where the
/// request is going, how far it has come, how many hops it may still
/// take before it is declared lost, and when it entered the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutingRequest {
    /// Destination node.
    pub dst: NodeId,
    /// Hops taken so far.
    pub hops: u32,
    /// Remaining hop budget.
    pub ttl: u32,
    /// Engine tick the request was injected at. Completion tick minus
    /// `born` is the request's end-to-end tick latency (hops *and* link
    /// delays), the quantity behind the benchmark's latency percentiles.
    pub born: u64,
}

/// Clockwise-or-counterclockwise distance between two ids on the identifier
/// ring of size `ring` (the original overlay size; deleted ids leave holes
/// but survivors keep their ring positions).
///
/// # Panics
///
/// Panics if `ring` is 0.
#[inline]
pub fn ring_distance(a: u64, b: u64, ring: u64) -> u64 {
    ring_gap(ring_position(a, ring), ring_position(b, ring), ring)
}

/// `id`'s position on the ring: `id % ring`, dividing only for ids past
/// the ring (inserted nodes), since the original overlay's ids lie below
/// it. Panics if `ring` is 0.
#[inline]
fn ring_position(id: u64, ring: u64) -> u64 {
    if id < ring {
        id
    } else {
        id % ring
    }
}

/// The shorter arc between two ring positions (both below `ring`).
#[inline]
fn ring_gap(a: u64, b: u64, ring: u64) -> u64 {
    let d = a.abs_diff(b);
    d.min(ring - d)
}

/// SplitMix64-style avalanche — the deterministic escape-hop hash.
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(c);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The next hop of greedy ring-distance routing from dense index `at`
/// toward dense index `dst`: the neighbor closest to `dst` on the id ring
/// when that strictly improves on `at`'s own distance, otherwise a
/// deterministic pseudo-random neighbor (the escape hop out of the local
/// minima churn holes create — vary `salt`, e.g. by hop count, so
/// repeated escapes explore different directions). Returns `None` when
/// `at == dst` or `at` has no neighbors.
pub fn greedy_next_hop(
    csr: &CsrView,
    at: usize,
    dst: usize,
    ring: u64,
    salt: u64,
) -> Option<usize> {
    if at == dst {
        return None;
    }
    let neighbors = csr.neighbors_of(at);
    if neighbors.is_empty() {
        return None;
    }
    let dst_id = csr.node(dst).as_u64();
    let dst_pos = ring_position(dst_id, ring);
    let mut best = (u64::MAX, 0usize);
    for &j in neighbors {
        let d = ring_gap(
            ring_position(csr.node(j as usize).as_u64(), ring),
            dst_pos,
            ring,
        );
        if d < best.0 {
            best = (d, j as usize);
        }
    }
    if best.0 < ring_gap(ring_position(csr.node(at).as_u64(), ring), dst_pos, ring) {
        Some(best.1)
    } else {
        let pick = mix(at as u64, dst_id, salt) as usize % neighbors.len();
        Some(neighbors[pick] as usize)
    }
}

/// Routes `src → dst` greedily over the snapshot, returning the hop count
/// on success or `None` when the TTL ran out (or a dead end was hit) —
/// the offline twin of the engine-driven forwarding loop, used to sample
/// observed stretch.
pub fn route_hops(csr: &CsrView, src: usize, dst: usize, ring: u64, ttl: u32) -> Option<u32> {
    let mut at = src;
    for hop in 1..=ttl {
        at = greedy_next_hop(csr, at, dst, ring, u64::from(hop))?;
        if at == dst {
            return Some(hop);
        }
    }
    None
}

/// Reusable breadth-first-search buffers for [`bfs_distance`].
#[derive(Clone, Debug, Default)]
pub struct BfsScratch {
    dist: Vec<u32>,
    queue: VecDeque<u32>,
}

/// Unweighted shortest-path distance between dense indices over the
/// snapshot (`None` when disconnected) — the baseline that observed route
/// lengths are divided by to get stretch.
pub fn bfs_distance(
    csr: &CsrView,
    src: usize,
    dst: usize,
    scratch: &mut BfsScratch,
) -> Option<u32> {
    if src == dst {
        return Some(0);
    }
    scratch.dist.clear();
    scratch.dist.resize(csr.len(), u32::MAX);
    scratch.queue.clear();
    scratch.dist[src] = 0;
    scratch.queue.push_back(src as u32);
    while let Some(u) = scratch.queue.pop_front() {
        let du = scratch.dist[u as usize];
        for &j in csr.neighbors_of(u as usize) {
            if scratch.dist[j as usize] == u32::MAX {
                if j as usize == dst {
                    return Some(du + 1);
                }
                scratch.dist[j as usize] = du + 1;
                scratch.queue.push_back(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xheal_graph::generators;

    /// The ring distance as first written: both ids reduced modulo the
    /// ring on every call.
    fn modulo_ring_distance(a: u64, b: u64, ring: u64) -> u64 {
        let d = (a % ring).abs_diff(b % ring);
        d.min(ring - d)
    }

    #[test]
    fn ring_distance_wraps_both_ways() {
        assert_eq!(ring_distance(0, 1, 16), 1);
        assert_eq!(ring_distance(0, 15, 16), 1);
        assert_eq!(ring_distance(3, 11, 16), 8);
        assert_eq!(ring_distance(5, 5, 16), 0);
        assert_eq!(ring_distance(16, 33, 16), 1);
    }

    #[test]
    #[should_panic(expected = "divisor of zero")]
    fn ring_distance_on_an_empty_ring_panics() {
        ring_distance(3, 5, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn ring_distance_matches_the_modulo_formula(
            ring in 1u64..=1 << 20,
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            // Ids on the ring, past it by less than one lap, and anywhere.
            let (a_on, b_on) = (a % ring, b % ring);
            let (a_near, b_near) = (a % (2 * ring), b % (2 * ring));
            for (x, y) in [(a_on, b_on), (a_on, b_near), (a_near, b_on), (a_near, b_near),
                           (a, b_on), (a_near, b), (a, b), (ring - 1, 0), (ring, ring - 1)] {
                prop_assert_eq!(ring_distance(x, y, ring), modulo_ring_distance(x, y, ring));
            }
        }
    }

    /// [`greedy_next_hop`] as first written, over [`modulo_ring_distance`].
    fn modulo_next_hop(
        csr: &CsrView,
        at: usize,
        dst: usize,
        ring: u64,
        salt: u64,
    ) -> Option<usize> {
        if at == dst {
            return None;
        }
        let neighbors = csr.neighbors_of(at);
        if neighbors.is_empty() {
            return None;
        }
        let dst_id = csr.node(dst).as_u64();
        let mut best = (u64::MAX, 0usize);
        for &j in neighbors {
            let d = modulo_ring_distance(csr.node(j as usize).as_u64(), dst_id, ring);
            if d < best.0 {
                best = (d, j as usize);
            }
        }
        if best.0 < modulo_ring_distance(csr.node(at).as_u64(), dst_id, ring) {
            Some(best.1)
        } else {
            let pick = mix(at as u64, dst_id, salt) as usize % neighbors.len();
            Some(neighbors[pick] as usize)
        }
    }

    #[test]
    fn greedy_next_hop_matches_the_modulo_formula_on_every_pair() {
        // The churn-holes graph below, then the same graph with inserted
        // ids past the ring, which wrap.
        let n = 128u64;
        let mut g = generators::ring_with_chords(n as usize);
        for dead in [3u64, 4, 5, 64, 65, 100] {
            g.remove_node(NodeId::new(dead)).expect("live");
        }
        let holes = g.csr_view();
        for (id, contacts) in [(130u64, [2u64, 70]), (200, [6, 99]), (515, [1, 130])] {
            g.add_node(NodeId::new(id)).expect("fresh");
            for c in contacts {
                g.add_black_edge(NodeId::new(id), NodeId::new(c))
                    .expect("live");
            }
        }
        let wrapped = g.csr_view();
        for csr in [&holes, &wrapped] {
            for at in 0..csr.len() {
                for dst in 0..csr.len() {
                    for salt in 1..=3 {
                        assert_eq!(
                            greedy_next_hop(csr, at, dst, n, salt),
                            modulo_next_hop(csr, at, dst, n, salt),
                            "{} -> {} salt {salt}",
                            csr.node(at),
                            csr.node(dst)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn greedy_routes_a_chord_ring_in_log_hops() {
        let n = 64usize;
        let csr = generators::ring_with_chords(n).csr_view();
        let budget = 2 * n.ilog2();
        let mut scratch = BfsScratch::default();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let hops = route_hops(&csr, src, dst, n as u64, 4 * budget)
                    .unwrap_or_else(|| panic!("{src}->{dst} undeliverable"));
                assert!(hops <= budget, "{src}->{dst}: {hops} hops > {budget}");
                let shortest = bfs_distance(&csr, src, dst, &mut scratch).expect("connected");
                assert!(hops >= shortest, "greedy beat BFS");
            }
        }
    }

    #[test]
    fn greedy_survives_churn_holes_via_escape_hops() {
        // Punch holes in the ring, heal nothing, and route between
        // survivors: greedy alone would die in local minima; the escape
        // hop must still deliver well within an O(log^2) budget.
        let n = 128usize;
        let mut g = generators::ring_with_chords(n);
        for dead in [3u64, 4, 5, 64, 65, 100] {
            g.remove_node(NodeId::new(dead)).expect("live");
        }
        let csr = g.csr_view();
        let mut rng = StdRng::seed_from_u64(9);
        let mut delivered = 0;
        for _ in 0..200 {
            // A uniform pair of distinct dense indices.
            let src = rng.random_range(0..csr.len());
            let mut dst = rng.random_range(0..csr.len() - 1);
            if dst >= src {
                dst += 1;
            }
            if route_hops(&csr, src, dst, n as u64, 64).is_some() {
                delivered += 1;
            }
        }
        assert!(delivered >= 195, "only {delivered}/200 delivered");
    }

    #[test]
    fn bfs_distance_on_a_cycle_is_the_arc_length() {
        let csr = generators::cycle(10).csr_view();
        let mut scratch = BfsScratch::default();
        assert_eq!(bfs_distance(&csr, 0, 5, &mut scratch), Some(5));
        assert_eq!(bfs_distance(&csr, 0, 7, &mut scratch), Some(3));
        assert_eq!(bfs_distance(&csr, 2, 2, &mut scratch), Some(0));
    }
}
