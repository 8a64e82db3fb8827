//! Warm-started spectral-gap estimation over the monitor's CSR snapshots.
//!
//! The paper's expansion invariant (Theorem 2.3, stated through the Cheeger
//! inequality) is monitored via λ₂ of the *normalized* Laplacian. A solve
//! from scratch starts Lanczos from noise every time; under the small
//! perturbations one healing event causes, the previous Fiedler estimate is
//! an excellent start vector. [`SpectralGapTracker`] therefore re-solves
//! with thick-restart Lanczos ([`lanczos_thick_restart`]) seeded with it: each
//! cycle keeps the four lowest Ritz vectors, so a near-degenerate λ₂/λ₃
//! pair converges in a few cycles instead of stalling. A solve stops when
//! its explicit residual is below [`RESIDUAL_TOL`], which puts the Ritz
//! value far closer than 1e-6 to the cold
//! `normalized_algebraic_connectivity` (asserted at every checkpoint of the
//! crate's `monitor_tracks_xheal_churn_exactly` test). The converged vector
//! is kept, and its Cheeger sweep gives the monitor's expansion estimate
//! without a second solve. The solver's known limit on path-like graphs
//! (see [`lanczos_thick_restart`]) applies here too;
//! [`GapEstimate::residual`] reports the shortfall.

use xheal_graph::{CsrView, NodeId};
use xheal_spectral::{
    lanczos_thick_restart, sweep_cut_by, CsrNormalizedLaplacian, SweepCut, RESIDUAL_TOL,
};

/// Result of one warm-started gap estimate.
#[derive(Clone, Copy, Debug)]
pub struct GapEstimate {
    /// λ₂ of the normalized Laplacian (0.0 for degenerate graphs, matching
    /// `normalized_algebraic_connectivity`).
    pub lambda: f64,
    /// λ₃ of the normalized Laplacian, chased only when the tracker was
    /// built with [`SpectralGapTracker::with_lambda3`] and the graph has at
    /// least three nodes. The λ₂/λ₃ pair separates "the whole graph is
    /// loosening" from "one cut is about to open": a collapsing λ₂ with a
    /// healthy λ₃ pins the damage to a single near-disconnecting cut.
    pub lambda3: Option<f64>,
    /// Thick-restart cycles spent on the λ₂ solve (0 for degenerate
    /// graphs).
    pub restarts: usize,
    /// Final λ₂ residual `‖L v − λ v‖` (0.0 for degenerate graphs).
    pub residual: f64,
}

/// Carries the Fiedler estimate across topology generations. The last
/// estimate's vectors are kept in its dense order next to that snapshot's
/// ascending node ids, so the next estimate maps them onto a renumbered,
/// churned CSR by a merge join, and the λ₂ vector's Cheeger sweep
/// ([`SpectralGapTracker::cheeger_sweep`]) needs no second solve. With
/// [`SpectralGapTracker::with_lambda3`] it additionally chases λ₃ through a
/// second deflated solve — deflating {kernel, current Fiedler estimate} and
/// warm-starting from the previous λ₃ eigenvector.
#[derive(Clone, Debug, Default)]
pub struct SpectralGapTracker {
    /// Node ids of the last estimate's snapshot, ascending.
    nodes: Vec<NodeId>,
    /// The last λ₂ vector over `nodes`; empty when there is none.
    fiedler: Vec<f64>,
    /// The last λ₃ vector over `nodes`; empty when there is none.
    lambda3_vec: Vec<f64>,
    track_lambda3: bool,
}

impl SpectralGapTracker {
    /// Fresh tracker (the first estimate runs cold); λ₂ only.
    pub fn new() -> Self {
        SpectralGapTracker::default()
    }

    /// Fresh tracker that also chases λ₃ on every estimate.
    pub fn with_lambda3() -> Self {
        SpectralGapTracker {
            track_lambda3: true,
            ..SpectralGapTracker::default()
        }
    }

    /// Estimates λ₂ of the normalized Laplacian of `csr`, warm-started from
    /// the previous call's Fiedler vector, and keeps the new vector for the
    /// next call and for [`SpectralGapTracker::cheeger_sweep`]. When λ₃
    /// tracking is on, runs a second deflated solve for λ₃ (warm-started
    /// from the previous λ₃ vector) with the fresh Fiedler estimate joining
    /// the kernel in the deflation set.
    pub fn estimate(&mut self, csr: &CsrView) -> GapEstimate {
        let n = csr.len();
        let chase3 = self.track_lambda3 && n >= 3;
        let start = self.warm_start(&self.fiedler, csr);
        let start3 = if chase3 {
            self.warm_start(&self.lambda3_vec, csr)
        } else {
            Vec::new()
        };
        self.nodes.clear();
        self.fiedler.clear();
        self.lambda3_vec.clear();
        let degenerate = GapEstimate {
            lambda: 0.0,
            lambda3: None,
            restarts: 0,
            residual: 0.0,
        };
        if n < 2 || csr.edge_count() == 0 {
            return degenerate;
        }
        let op = CsrNormalizedLaplacian::new(csr);
        let kernel = op.kernel();
        let Some(pair) = lanczos_thick_restart(&op, &[&kernel], &start, 0x5EED, RESIDUAL_TOL)
        else {
            return degenerate;
        };
        self.nodes.extend_from_slice(csr.nodes());
        let lambda3 = if chase3 {
            let deflates: [&[f64]; 2] = [&kernel, &pair.vector];
            lanczos_thick_restart(&op, &deflates, &start3, 0x5EED3, RESIDUAL_TOL).map(|p3| {
                self.lambda3_vec = p3.vector;
                p3.value.max(0.0)
            })
        } else {
            None
        };
        self.fiedler = pair.vector;
        GapEstimate {
            lambda: pair.value.max(0.0),
            lambda3,
            restarts: pair.cycles,
            residual: pair.residual,
        }
    }

    /// The Cheeger sweep over the last estimate's λ₂ vector `v`: sweeps
    /// `D^{-1/2}·v` across `csr`, which must be the snapshot that
    /// [`SpectralGapTracker::estimate`] just saw. `v` is orthogonal to the
    /// kernel `D^{1/2}·1` with Rayleigh quotient λ₂, so the best prefix has
    /// conductance at most `sqrt(2 λ₂)` — the cut is tied to the reported
    /// gap, and no second eigen-solve runs.
    ///
    /// `None` when the last estimate produced no vector (a degenerate graph
    /// or a failed solve) or `csr` has a different node count.
    pub fn cheeger_sweep(&self, csr: &CsrView) -> Option<SweepCut> {
        if self.fiedler.is_empty() || self.fiedler.len() != csr.len() {
            return None;
        }
        let embedding: Vec<f64> = self
            .fiedler
            .iter()
            .enumerate()
            .map(|(i, &x)| match csr.degree_of(i) {
                0 => 0.0,
                d => x / (d as f64).sqrt(),
            })
            .collect();
        sweep_cut_by(csr, &embedding)
    }

    /// Maps a previous eigenvector estimate (over `self.nodes`, or empty)
    /// onto the current node order; both id lists ascend, so one merge
    /// pass lines them up. A coordinate with no previous value gets
    /// deterministic noise keyed by its node id: at full amplitude when
    /// there is no previous vector, so a fresh start has a component along
    /// every eigenvector (a parity pattern would be an eigenvector of an
    /// even cycle, and misses λ₂ on grids), and scaled to 1e-3 beside a
    /// warm vector, so a grown graph still explores its new coordinates.
    fn warm_start(&self, prev: &[f64], csr: &CsrView) -> Vec<f64> {
        let scale = if prev.is_empty() { 1.0 } else { 1e-3 };
        let mut j = 0;
        csr.nodes()
            .iter()
            .map(|&v| {
                while j < prev.len() && self.nodes[j] < v {
                    j += 1;
                }
                if j < prev.len() && self.nodes[j] == v {
                    prev[j]
                } else {
                    scale * node_noise(v)
                }
            })
            .collect()
    }
}

/// A value in `[-1, 1)` fixed by `v` (the splitmix64 finalizer).
fn node_noise(v: NodeId) -> f64 {
    let mut z = v.as_u64().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use xheal_graph::{generators, Graph, NodeId};
    use xheal_spectral::normalized_algebraic_connectivity;

    #[test]
    fn cold_estimate_matches_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::random_regular(80, 6, &mut rng);
        let mut tr = SpectralGapTracker::new();
        let est = tr.estimate(&g.csr_view());
        let exact = normalized_algebraic_connectivity(&g);
        assert!(
            (est.lambda - exact).abs() < 1e-6,
            "warm {} vs reference {exact}",
            est.lambda
        );
    }

    #[test]
    fn warm_restart_converges_faster_after_perturbation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = generators::random_regular(120, 6, &mut rng);
        let mut tr = SpectralGapTracker::new();
        let cold = tr.estimate(&g.csr_view());
        // Perturb: drop one node, patch nothing (still connected w.h.p.).
        g.remove_node(NodeId::new(0)).unwrap();
        let warm = tr.estimate(&g.csr_view());
        let exact = normalized_algebraic_connectivity(&g);
        assert!(
            (warm.lambda - exact).abs() < 1e-6,
            "warm {} vs reference {exact}",
            warm.lambda
        );
        assert!(
            warm.restarts <= cold.restarts,
            "warm restarts {} should not exceed cold {}",
            warm.restarts,
            cold.restarts
        );
    }

    #[test]
    fn fresh_estimate_finds_lambda2_on_symmetric_graphs() {
        // A parity start is the eigenvalue-2 eigenvector of an even cycle
        // and misses λ₂ on these grids; node-keyed noise must not.
        use xheal_spectral::{jacobi_eigen, normalized_laplacian_dense};
        for (name, g) in [
            ("cycle(60)", generators::cycle(60)),
            ("cycle(100)", generators::cycle(100)),
            ("grid(10, 11)", generators::grid(10, 11)),
            ("grid(12, 13)", generators::grid(12, 13)),
        ] {
            let est = SpectralGapTracker::new().estimate(&g.csr_view());
            let (_, m) = normalized_laplacian_dense(&g);
            let dense = jacobi_eigen(&m).values[1];
            assert!(
                (est.lambda - dense).abs() < 1e-6,
                "{name}: fresh λ₂ {} vs dense {dense}",
                est.lambda
            );
        }
    }

    #[test]
    fn warm_estimate_meets_its_tolerance_after_a_deletion() {
        // A 930-node grid has a small, near-degenerate λ₂/λ₃ pair: the
        // warm re-solve after one deletion must still converge.
        let mut g = generators::grid(30, 31);
        let mut tr = SpectralGapTracker::new();
        tr.estimate(&g.csr_view());
        g.remove_node(NodeId::new(3)).unwrap();
        let warm = tr.estimate(&g.csr_view());
        let exact = normalized_algebraic_connectivity(&g);
        assert!(warm.residual < RESIDUAL_TOL, "residual {}", warm.residual);
        assert!(
            (warm.lambda - exact).abs() < 1e-6,
            "warm {} vs reference {exact}",
            warm.lambda
        );
    }

    #[test]
    fn lambda3_matches_dense_reference() {
        use xheal_spectral::{jacobi_eigen, normalized_laplacian_dense};
        let mut rng = StdRng::seed_from_u64(19);
        let mut g = generators::random_regular(60, 6, &mut rng);
        let mut tr = SpectralGapTracker::with_lambda3();
        for round in 0..3 {
            let est = tr.estimate(&g.csr_view());
            let (_, m) = normalized_laplacian_dense(&g);
            let eig = jacobi_eigen(&m);
            assert!(
                (est.lambda - eig.values[1]).abs() < 1e-6,
                "round {round}: λ₂ {} vs dense {}",
                est.lambda,
                eig.values[1]
            );
            let l3 = est.lambda3.expect("λ₃ tracked");
            assert!(
                (l3 - eig.values[2]).abs() < 1e-6,
                "round {round}: λ₃ {l3} vs dense {}",
                eig.values[2]
            );
            // Perturb for the next (warm) round.
            g.remove_node(NodeId::new(round as u64)).unwrap();
        }
    }

    #[test]
    fn lambda3_is_off_by_default() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::random_regular(40, 4, &mut rng);
        let mut tr = SpectralGapTracker::new();
        assert!(tr.estimate(&g.csr_view()).lambda3.is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        /// The sweep over the tracker's own `D^{-1/2}·v` realizes Cheeger's
        /// upper bound against the tracker's own λ₂, cold and after a warm
        /// restart, on both sides of the spectral crate's dense cutoff.
        #[test]
        fn cheeger_sweep_is_within_sqrt_two_lambda(seed in proptest::prelude::any::<u64>()) {
            use rand::Rng;
            for n in [60usize, 400] {
                let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
                let mut g = generators::connected_erdos_renyi(n, 6.0 / n as f64, &mut rng);
                let mut tr = SpectralGapTracker::new();
                for round in 0..2 {
                    let csr = g.csr_view();
                    let est = tr.estimate(&csr);
                    let cut = tr.cheeger_sweep(&csr).expect("connected graph has a vector");
                    let bound = (2.0 * est.lambda).sqrt();
                    proptest::prop_assert!(
                        cut.conductance <= bound + 1e-9,
                        "n {n} round {round}: conductance {} above sqrt(2 λ₂) = {bound}",
                        cut.conductance
                    );
                    proptest::prop_assert!(
                        cut.conductance >= est.lambda / 2.0 - 1e-9,
                        "n {n} round {round}: conductance {} below λ₂/2",
                        cut.conductance
                    );
                    // Perturb for the warm round; added edges keep it connected.
                    for _ in 0..3 {
                        let a = rng.random_range(0..n as u64);
                        let b = rng.random_range(0..n as u64);
                        if a != b {
                            let _ = g.add_black_edge(NodeId::new(a), NodeId::new(b));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cheeger_sweep_matches_the_dense_eigenvector_sweep() {
        use xheal_spectral::{jacobi_eigen, normalized_laplacian_dense, sweep_cut_by};
        for seed in 0..4 {
            let mut rng = StdRng::seed_from_u64(60 + seed);
            let g = generators::preferential_attachment(60, 2, &mut rng);
            let csr = g.csr_view();
            let mut tr = SpectralGapTracker::new();
            tr.estimate(&csr);
            let warm = tr.cheeger_sweep(&csr).unwrap();
            let (_, m) = normalized_laplacian_dense(&g);
            let exact: Vec<f64> = jacobi_eigen(&m).vectors[1]
                .iter()
                .enumerate()
                .map(|(i, x)| x / (csr.degree_of(i) as f64).sqrt())
                .collect();
            let dense = sweep_cut_by(&csr, &exact).unwrap();
            assert!(
                (warm.conductance - dense.conductance).abs() < 1e-9
                    && (warm.expansion - dense.expansion).abs() < 1e-9,
                "seed {seed}: warm {warm:?} vs dense {dense:?}"
            );
        }
    }

    #[test]
    fn cheeger_sweep_needs_a_vector() {
        let mut tr = SpectralGapTracker::new();
        let empty = generators::path(1);
        assert!(
            tr.cheeger_sweep(&empty.csr_view()).is_none(),
            "fresh tracker"
        );
        let g = generators::path(8);
        tr.estimate(&g.csr_view());
        let cut = tr.cheeger_sweep(&g.csr_view()).unwrap();
        assert_eq!(cut.side.len(), 4, "the path's middle cut");
        for other in [generators::path(5), generators::path(11)] {
            assert!(
                tr.cheeger_sweep(&other.csr_view()).is_none(),
                "a snapshot of another size"
            );
        }
        tr.estimate(&empty.csr_view());
        assert!(
            tr.cheeger_sweep(&empty.csr_view()).is_none(),
            "degenerate estimate"
        );
    }

    #[test]
    fn degenerate_graphs_report_zero() {
        let mut tr = SpectralGapTracker::new();
        let empty = Graph::new();
        assert_eq!(tr.estimate(&empty.csr_view()).lambda, 0.0);
        let mut single = Graph::new();
        single.add_node(NodeId::new(5)).unwrap();
        assert_eq!(tr.estimate(&single.csr_view()).lambda, 0.0);
        // Disconnected: λ₂ of the normalized Laplacian is 0.
        let mut disc = generators::complete(5);
        disc.add_node(NodeId::new(50)).unwrap();
        let est = tr.estimate(&disc.csr_view());
        assert!(est.lambda < 1e-8, "disconnected gap {}", est.lambda);
    }
}
