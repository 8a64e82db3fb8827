//! Graph Laplacians and algebraic connectivity (the paper's λ(G)).
//!
//! Theorem 2(4) of the paper bounds λ(G_t), the second-smallest eigenvalue of
//! the Laplacian, and Corollary 1 ("if G'_t is a bounded-degree expander then
//! so is G_t") is stated through λ. This module computes λ₂ exactly (dense
//! Jacobi) for small graphs and via thick-restart Lanczos above that, plus
//! the Fiedler vector used by the sweep cut.

use xheal_graph::{CsrView, Graph, NodeId};

use crate::jacobi::jacobi_eigen;
use crate::lanczos::{lanczos_thick_restart, seeded_vector, Eigenpair, LinOp, RESIDUAL_TOL};
use crate::SymMatrix;

/// Node-count threshold below which the dense O(n³) Jacobi path is used.
pub const DENSE_CUTOFF: usize = 220;

/// The cold solve above [`DENSE_CUTOFF`]: the smallest eigenpair of `op`
/// off its `kernel`, by thick-restart Lanczos from seeded noise.
fn cold_solve(op: &dyn LinOp, kernel: &[f64]) -> Option<Eigenpair> {
    let start = seeded_vector(op.dim(), 0x5EED);
    lanczos_thick_restart(op, &[kernel], &start, 0x5EED, RESIDUAL_TOL)
}

/// Dense Laplacian of `g` over the sorted node order; returns the node order
/// alongside so eigenvector entries can be mapped back to nodes.
pub fn laplacian_dense(g: &Graph) -> (Vec<NodeId>, SymMatrix) {
    let csr = g.csr_view();
    let m = laplacian_dense_csr(&csr);
    (csr.nodes().to_vec(), m)
}

/// Dense Laplacian over an existing CSR snapshot (no per-call rebuild; row
/// `i` is dense node `i` of the view).
pub fn laplacian_dense_csr(csr: &CsrView) -> SymMatrix {
    let n = csr.len();
    let mut m = SymMatrix::zeros(n);
    for i in 0..n {
        m.set(i, i, csr.degree_of(i) as f64);
        for &j in csr.neighbors_of(i) {
            let j = j as usize;
            if i < j {
                m.set(i, j, -1.0);
            }
        }
    }
    m
}

/// Matrix-free Laplacian over a **borrowed** CSR snapshot: no owned copy of
/// the adjacency, so repeat callers (long-running monitors patching one CSR
/// incrementally) pay nothing per operator construction.
#[derive(Clone, Copy, Debug)]
pub struct CsrLaplacian<'a> {
    csr: &'a CsrView,
}

impl<'a> CsrLaplacian<'a> {
    /// Borrows `csr` as a Laplacian operator.
    pub fn new(csr: &'a CsrView) -> Self {
        CsrLaplacian { csr }
    }
}

impl LinOp for CsrLaplacian<'_> {
    fn dim(&self) -> usize {
        self.csr.len()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..self.csr.len() {
            let mut acc = self.csr.degree_of(i) as f64 * x[i];
            for &j in self.csr.neighbors_of(i) {
                acc -= x[j as usize];
            }
            y[i] = acc;
        }
    }
}

/// Matrix-free *normalized* Laplacian over a borrowed CSR snapshot. Only the
/// O(n) `D^{-1/2}` diagonal is owned; the adjacency stays borrowed.
#[derive(Clone, Debug)]
pub struct CsrNormalizedLaplacian<'a> {
    csr: &'a CsrView,
    inv_sqrt_deg: Vec<f64>,
}

impl<'a> CsrNormalizedLaplacian<'a> {
    /// Borrows `csr` as a normalized-Laplacian operator.
    pub fn new(csr: &'a CsrView) -> Self {
        let inv_sqrt_deg = (0..csr.len())
            .map(|i| {
                let d = csr.degree_of(i) as f64;
                if d > 0.0 {
                    1.0 / d.sqrt()
                } else {
                    0.0
                }
            })
            .collect();
        CsrNormalizedLaplacian { csr, inv_sqrt_deg }
    }

    /// The kernel direction `D^{1/2}·1` to deflate.
    pub fn kernel(&self) -> Vec<f64> {
        self.inv_sqrt_deg
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
            .collect()
    }
}

impl LinOp for CsrNormalizedLaplacian<'_> {
    fn dim(&self) -> usize {
        self.csr.len()
    }

    /// `y_i = x_i − d_i^{-1/2}·Σ_j d_j^{-1/2}·x_j` over the neighbours `j`
    /// of `i`: one multiply per neighbour, summed over four accumulators.
    /// Isolated nodes map to 0.
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let inv = &self.inv_sqrt_deg;
        for (i, (yi, &si)) in y.iter_mut().zip(inv).enumerate() {
            if si == 0.0 {
                *yi = 0.0;
                continue;
            }
            let term = |j: &u32| inv[*j as usize] * x[*j as usize];
            let chunks = self.csr.neighbors_of(i).chunks_exact(4);
            let tail: f64 = chunks.remainder().iter().map(term).sum();
            let mut acc = [0.0f64; 4];
            for c in chunks {
                for (a, j) in acc.iter_mut().zip(c) {
                    *a += term(j);
                }
            }
            *yi = x[i] - si * ((acc[0] + acc[1]) + (acc[2] + acc[3]) + tail);
        }
    }
}

/// Algebraic connectivity λ₂ of `g` (0 for graphs with fewer than 2 nodes or
/// disconnected graphs).
///
/// Uses exact dense Jacobi up to [`DENSE_CUTOFF`] nodes and thick-restart
/// Lanczos above; values are clamped at 0 (tiny negative round-off is
/// squashed).
///
/// # Examples
///
/// ```
/// use xheal_graph::generators;
/// use xheal_spectral::algebraic_connectivity;
/// // Complete graph K5 has λ₂ = 5.
/// let l = algebraic_connectivity(&generators::complete(5));
/// assert!((l - 5.0).abs() < 1e-9);
/// ```
pub fn algebraic_connectivity(g: &Graph) -> f64 {
    algebraic_connectivity_csr(&g.csr_view())
}

/// [`algebraic_connectivity`] over an existing CSR snapshot — repeat
/// callers with a maintained CSR skip the per-call rebuild.
pub fn algebraic_connectivity_csr(csr: &CsrView) -> f64 {
    let n = csr.len();
    if n < 2 {
        return 0.0;
    }
    if n <= DENSE_CUTOFF {
        let m = laplacian_dense_csr(csr);
        let eig = jacobi_eigen(&m);
        return eig.values[1].max(0.0);
    }
    cold_solve(&CsrLaplacian::new(csr), &vec![1.0; n]).map_or(0.0, |p| p.value.max(0.0))
}

/// The Fiedler vector of `g` (eigenvector for λ₂) as `(node, value)` pairs.
///
/// Returns `None` for graphs with fewer than 2 nodes.
pub fn fiedler_vector(g: &Graph) -> Option<Vec<(NodeId, f64)>> {
    fiedler_vector_csr(&g.csr_view())
}

/// [`fiedler_vector`] over an existing CSR snapshot.
pub fn fiedler_vector_csr(csr: &CsrView) -> Option<Vec<(NodeId, f64)>> {
    let n = csr.len();
    if n < 2 {
        return None;
    }
    if n <= DENSE_CUTOFF {
        let m = laplacian_dense_csr(csr);
        let eig = jacobi_eigen(&m);
        let vec = &eig.vectors[1];
        return Some(
            csr.nodes()
                .iter()
                .copied()
                .zip(vec.iter().copied())
                .collect(),
        );
    }
    let pair = cold_solve(&CsrLaplacian::new(csr), &vec![1.0; n])?;
    Some(csr.nodes().iter().copied().zip(pair.vector).collect())
}

/// Dense *normalized* Laplacian `I - D^{-1/2} A D^{-1/2}` of `g`.
///
/// This is the Laplacian convention under which the paper's Theorem 1
/// (Cheeger: `2φ ≥ λ > φ²/2`, citing Chung) holds; its kernel vector is
/// `D^{1/2}·1`. Isolated nodes contribute zero rows (extra 0 eigenvalues),
/// which is correct: such a graph is disconnected.
pub fn normalized_laplacian_dense(g: &Graph) -> (Vec<NodeId>, SymMatrix) {
    let csr = g.csr_view();
    let m = normalized_laplacian_dense_csr(&csr);
    (csr.nodes().to_vec(), m)
}

/// Dense normalized Laplacian over an existing CSR snapshot.
pub fn normalized_laplacian_dense_csr(csr: &CsrView) -> SymMatrix {
    let n = csr.len();
    let mut m = SymMatrix::zeros(n);
    for i in 0..n {
        let di = csr.degree_of(i);
        if di > 0 {
            m.set(i, i, 1.0);
        }
        for &j in csr.neighbors_of(i) {
            let j = j as usize;
            if i < j {
                let dj = csr.degree_of(j);
                m.set(i, j, -1.0 / ((di * dj) as f64).sqrt());
            }
        }
    }
    m
}

/// Second-smallest eigenvalue of the *normalized* Laplacian (the λ of the
/// paper's Cheeger inequality). 0 for disconnected or trivial graphs.
///
/// # Examples
///
/// ```
/// use xheal_graph::generators;
/// use xheal_spectral::normalized_algebraic_connectivity;
/// // K_n has normalized lambda_2 = n / (n - 1).
/// let l = normalized_algebraic_connectivity(&generators::complete(8));
/// assert!((l - 8.0 / 7.0).abs() < 1e-9);
/// ```
pub fn normalized_algebraic_connectivity(g: &Graph) -> f64 {
    normalized_algebraic_connectivity_csr(&g.csr_view())
}

/// [`normalized_algebraic_connectivity`] over an existing CSR snapshot.
pub fn normalized_algebraic_connectivity_csr(csr: &CsrView) -> f64 {
    let n = csr.len();
    if n < 2 || csr.edge_count() == 0 {
        return 0.0;
    }
    if n <= DENSE_CUTOFF {
        let m = normalized_laplacian_dense_csr(csr);
        let eig = jacobi_eigen(&m);
        return eig.values[1].max(0.0);
    }
    let op = CsrNormalizedLaplacian::new(csr);
    cold_solve(&op, &op.kernel()).map_or(0.0, |p| p.value.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use xheal_graph::generators;

    #[test]
    fn complete_graph_lambda_is_n() {
        for n in [3usize, 5, 8] {
            let g = generators::complete(n);
            let l = algebraic_connectivity(&g);
            assert!((l - n as f64).abs() < 1e-8, "K{n}: {l}");
        }
    }

    #[test]
    fn star_lambda_is_one() {
        let g = generators::star(9);
        let l = algebraic_connectivity(&g);
        assert!((l - 1.0).abs() < 1e-8, "{l}");
    }

    #[test]
    fn path_lambda_matches_closed_form() {
        for n in [4usize, 9, 16] {
            let g = generators::path(n);
            let expect = 2.0 * (1.0 - (PI / n as f64).cos());
            let l = algebraic_connectivity(&g);
            assert!((l - expect).abs() < 1e-8, "P{n}: {l} vs {expect}");
        }
    }

    #[test]
    fn cycle_lambda_matches_closed_form() {
        for n in [4usize, 7, 12] {
            let g = generators::cycle(n);
            let expect = 2.0 * (1.0 - (2.0 * PI / n as f64).cos());
            let l = algebraic_connectivity(&g);
            assert!((l - expect).abs() < 1e-8, "C{n}: {l} vs {expect}");
        }
    }

    #[test]
    fn disconnected_graph_has_zero_lambda() {
        let mut g = generators::path(4);
        g.add_node(NodeId::new(50)).unwrap();
        assert!(algebraic_connectivity(&g) < 1e-10);
    }

    #[test]
    fn lanczos_path_agrees_with_jacobi() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        // Below the cutoff, so the Krylov solve runs directly against Jacobi.
        let g = generators::random_regular(60, 4, &mut rng);
        let (_, m) = laplacian_dense(&g);
        let exact = jacobi_eigen(&m).values[1];
        let r = cold_solve(&CsrLaplacian::new(&g.csr_view()), &[1.0; 60]).unwrap();
        assert!(
            (r.value - exact).abs() < 1e-9,
            "lanczos {} vs jacobi {exact}",
            r.value
        );
    }

    #[test]
    fn closed_forms_hold_above_the_cutoff() {
        let p = algebraic_connectivity(&generators::path(400));
        let expect = 2.0 * (1.0 - (PI / 400.0).cos());
        assert!((p - expect).abs() < 1e-8, "P400: {p} vs {expect}");
        // The normalized path Laplacian's λ₂ is 1 − cos(π/(n − 1)).
        let pn = normalized_algebraic_connectivity(&generators::path(400));
        let expect = 1.0 - (PI / 399.0).cos();
        assert!(
            (pn - expect).abs() < 1e-8,
            "normalized P400: {pn} vs {expect}"
        );
        // A grid is a product of paths: λ₂ is the longer side's path value.
        let gr = algebraic_connectivity(&generators::grid(30, 31));
        let expect = 2.0 * (1.0 - (PI / 31.0).cos());
        assert!((gr - expect).abs() < 1e-8, "grid(30, 31): {gr} vs {expect}");
    }

    #[test]
    fn large_graph_uses_lanczos_and_is_positive_for_expander() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::random_regular(400, 6, &mut rng);
        let l = algebraic_connectivity(&g);
        // 6-regular random graphs are expanders: lambda2 comfortably > 0.5.
        assert!(l > 0.5, "lambda2 = {l}");
    }

    #[test]
    fn fiedler_vector_is_orthogonal_to_ones_and_nontrivial() {
        let g = generators::path(10);
        let f = fiedler_vector(&g).unwrap();
        let sum: f64 = f.iter().map(|(_, v)| v).sum();
        assert!(sum.abs() < 1e-8);
        let norm: f64 = f.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
        // Path Fiedler vector is monotone along the path.
        let vals: Vec<f64> = f.iter().map(|&(_, v)| v).collect();
        let increasing = vals.windows(2).all(|w| w[0] <= w[1]);
        let decreasing = vals.windows(2).all(|w| w[0] >= w[1]);
        assert!(increasing || decreasing, "{vals:?}");
    }

    #[test]
    fn normalized_lambda_known_values() {
        // K_n: n/(n-1). Cycle C_n: 1 - cos(2 pi / n).
        let l = normalized_algebraic_connectivity(&generators::complete(5));
        assert!((l - 5.0 / 4.0).abs() < 1e-9, "{l}");
        let c = normalized_algebraic_connectivity(&generators::cycle(8));
        let expect = 1.0 - (2.0 * PI / 8.0).cos();
        assert!((c - expect).abs() < 1e-9, "{c} vs {expect}");
    }

    #[test]
    fn normalized_lambda_zero_for_disconnected() {
        let mut g = generators::complete(4);
        g.add_node(NodeId::new(50)).unwrap();
        assert!(normalized_algebraic_connectivity(&g) < 1e-10);
    }

    #[test]
    fn normalized_lanczos_agrees_with_dense() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::random_regular(80, 4, &mut rng);
        let (_, m) = normalized_laplacian_dense(&g);
        let exact = jacobi_eigen(&m).values[1];
        let csr = g.csr_view();
        let op = CsrNormalizedLaplacian::new(&csr);
        let r = cold_solve(&op, &op.kernel()).unwrap();
        assert!(
            (r.value - exact).abs() < 1e-9,
            "lanczos {} vs dense {exact}",
            r.value
        );
    }
}
