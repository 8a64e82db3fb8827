//! Fiedler sweep cut: a constructive conductance/expansion upper bound.
//!
//! Sorting nodes by Fiedler value and scanning prefixes realizes the cut
//! promised by Cheeger's inequality (Theorem 1 in the paper): the best prefix
//! has conductance at most `sqrt(2 λ₂)`. For graphs too large for exact
//! enumeration this gives the upper half of the expansion sandwich reported
//! by `xheal-metrics`.

use xheal_graph::{CsrView, Graph, NodeId};

use crate::laplacian::fiedler_vector_csr;

/// Result of a sweep cut.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCut {
    /// Conductance `cut / min(vol(S), vol(S̄))` of the best prefix.
    pub conductance: f64,
    /// Edge expansion quotient `cut / min(|S|, |S̄|)` of the best
    /// expansion prefix (may be a different prefix than the conductance one).
    pub expansion: f64,
    /// The node side realizing the best conductance, sorted ascending.
    pub side: Vec<NodeId>,
}

/// Runs a sweep cut over the Fiedler vector of `g`.
///
/// Returns `None` when the graph has fewer than 2 nodes or no edges.
pub fn sweep_cut(g: &Graph) -> Option<SweepCut> {
    sweep_cut_csr(&g.csr_view())
}

/// [`sweep_cut`] over an existing CSR snapshot — the Fiedler solve and the
/// prefix scan both run off the borrowed snapshot, so repeat callers with a
/// maintained CSR never rebuild the adjacency.
///
/// This is a cold solve: [`fiedler_vector_csr`] from seeded noise, then
/// [`sweep_cut_by`]. Callers that already hold a converged eigenvector of
/// the snapshot should sweep it directly with [`sweep_cut_by`].
pub fn sweep_cut_csr(csr: &CsrView) -> Option<SweepCut> {
    if csr.len() < 2 || csr.edge_count() == 0 {
        return None;
    }
    let fiedler: Vec<f64> = fiedler_vector_csr(csr)?
        .into_iter()
        .map(|(_, x)| x)
        .collect();
    sweep_cut_by(csr, &fiedler)
}

/// Sweeps the prefixes of `csr`'s nodes ordered by `values`, which holds
/// one entry per dense node index of the snapshot.
///
/// Any vector works; Cheeger's guarantee (best conductance at most
/// `sqrt(2 R)`) holds when `values` is `D^{-1/2}·v` for a vector `v`
/// orthogonal to the normalized Laplacian's kernel `D^{1/2}·1` with
/// Rayleigh quotient `R`. Entries are ordered with [`f64::total_cmp`], so
/// non-finite values cannot panic the scan.
///
/// Returns `None` when the graph has fewer than 2 nodes or no edges, or
/// when `values.len()` differs from the node count.
pub fn sweep_cut_by(csr: &CsrView, values: &[f64]) -> Option<SweepCut> {
    let n = csr.len();
    if n < 2 || csr.edge_count() == 0 || values.len() != n {
        return None;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));

    let total_vol = 2.0 * csr.edge_count() as f64;
    let mut in_side = vec![false; n];
    let mut cut = 0i64;
    let mut vol = 0.0f64;
    let mut best_cond = f64::INFINITY;
    let mut best_prefix = 0usize;
    let mut best_exp = f64::INFINITY;

    for (k, &i) in order.iter().enumerate().take(n - 1) {
        let deg = csr.degree_of(i) as f64;
        let inside = csr
            .neighbors_of(i)
            .iter()
            .filter(|&&u| in_side[u as usize])
            .count() as i64;
        cut += deg as i64 - 2 * inside;
        vol += deg;
        in_side[i] = true;

        let denom_vol = vol.min(total_vol - vol);
        if denom_vol > 0.0 {
            let cond = cut as f64 / denom_vol;
            if cond < best_cond {
                best_cond = cond;
                best_prefix = k + 1;
            }
        }
        let denom_size = (k + 1).min(n - k - 1) as f64;
        let exp = cut as f64 / denom_size;
        if exp < best_exp {
            best_exp = exp;
        }
    }

    let nodes = csr.nodes();
    let mut side: Vec<NodeId> = order[..best_prefix].iter().map(|&i| nodes[i]).collect();
    side.sort_unstable();
    Some(SweepCut {
        conductance: best_cond,
        expansion: best_exp,
        side,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xheal_graph::{cuts, generators};

    #[test]
    fn sweep_is_upper_bound_on_exact_conductance() {
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_erdos_renyi(12, 0.25, &mut rng);
            let exact = cuts::conductance_exact(&g).unwrap().value;
            let sweep = sweep_cut(&g).unwrap().conductance;
            assert!(
                sweep >= exact - 1e-9,
                "seed {seed}: sweep {sweep} below exact {exact}"
            );
        }
    }

    #[test]
    fn sweep_satisfies_cheeger_upper_bound() {
        use crate::algebraic_connectivity;
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let g = generators::connected_erdos_renyi(20, 0.2, &mut rng);
            let lambda = algebraic_connectivity(&g);
            let sweep = sweep_cut(&g).unwrap().conductance;
            // Normalized Cheeger would use the normalized Laplacian; for the
            // unnormalized λ₂ used here the bound needs the degree factor:
            // φ ≤ sqrt(2 λ₂ / dmin) is a safe version for our tests.
            let dmin = g
                .node_vec()
                .iter()
                .map(|&v| g.degree(v).unwrap())
                .min()
                .unwrap() as f64;
            let bound = (2.0 * lambda / dmin.max(1.0)).sqrt();
            assert!(
                sweep <= bound + 0.75,
                "seed {seed}: sweep {sweep} way above bound {bound}"
            );
        }
    }

    #[test]
    fn two_cliques_sweep_finds_the_bridge() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::clique_pair_with_expander_bridge(16, 2, &mut rng);
        let s = sweep_cut(&g).unwrap();
        // The best cut is (close to) the clique split: 8 nodes per side.
        assert!(
            s.side.len() >= 6 && s.side.len() <= 10,
            "side {:?}",
            s.side.len()
        );
        assert!(s.conductance < 0.2, "conductance {}", s.conductance);
    }

    #[test]
    fn degenerate_graphs_return_none() {
        let mut g = Graph::new();
        assert!(sweep_cut(&g).is_none());
        g.add_node(NodeId::new(0)).unwrap();
        g.add_node(NodeId::new(1)).unwrap();
        assert!(sweep_cut(&g).is_none(), "no edges");
    }

    #[test]
    fn path_sweep_cuts_in_the_middle() {
        let g = generators::path(12);
        let s = sweep_cut(&g).unwrap();
        assert_eq!(s.side.len(), 6);
        // One crossing edge, six nodes per side, volume 11 min side ~ 11.
        assert!(s.expansion <= 1.0 / 6.0 + 1e-9);
    }

    #[test]
    fn sweep_by_orders_any_vector_without_panicking() {
        let g = generators::path(6);
        let csr = g.csr_view();
        // The path's own order cuts it in the middle.
        let s = sweep_cut_by(&csr, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.side.len(), 3);
        assert!((s.expansion - 1.0 / 3.0).abs() < 1e-12);
        // Non-finite entries are ordered, not a panic.
        let odd = [f64::NAN, 1.0, f64::NEG_INFINITY, -0.0, 0.0, f64::INFINITY];
        let s = sweep_cut_by(&csr, &odd).unwrap();
        assert!(s.expansion.is_finite() && s.expansion > 0.0);
        // A vector of the wrong length is rejected.
        assert!(sweep_cut_by(&csr, &[1.0, 2.0]).is_none());
    }
}
