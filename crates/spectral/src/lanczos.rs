//! Lanczos iteration with full reorthogonalization for large sparse
//! symmetric operators (here: graph Laplacians).
//!
//! The Laplacian's smallest eigenvalue is 0 with eigenvector **1**; the
//! algebraic connectivity λ₂ is the smallest eigenvalue on the orthogonal
//! complement of **1**, so the driver deflates **1** from every Krylov
//! vector. Full reorthogonalization keeps the basis numerically orthogonal
//! at the modest dimensions the experiments use (n ≤ a few thousand).
//!
//! One solver, [`lanczos_thick_restart`], restarts a short basis from its
//! lowest Ritz vectors until the explicit residual meets a tolerance. It
//! serves both the cold solves above `DENSE_CUTOFF` (from seeded noise) and
//! the monitor's warm re-solve at every checkpoint (from the last vector).

use crate::jacobi::jacobi_eigen;
use crate::SymMatrix;

/// Residual `‖P A v − λ v‖` at which a Ritz pair counts as converged, for
/// the cold λ₂ and Fiedler solves and the monitor's warm tracker alike. The
/// Ritz *value* error is then O(residual² / spectral spread), far below the
/// 1e-6 at which the monitor's tests compare warm against cold.
pub const RESIDUAL_TOL: f64 = 1e-9;

/// A symmetric linear operator given matrix-free.
pub trait LinOp {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Computes `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// Inner product over four independent accumulators, so the additions
/// pipeline (and vectorize) instead of waiting on one running sum.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .map(|(x, y)| x * y)
        .sum();
    let mut acc = [0.0f64; 4];
    for (x, y) in a4.zip(b4) {
        for ((s, xi), yi) in acc.iter_mut().zip(x).zip(y) {
            *s += xi * yi;
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Deterministic pseudo-random start vector (splitmix64-driven).
pub(crate) fn seeded_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect()
}

/// Orthonormalizes `vs` by (twice-repeated) Gram–Schmidt, dropping vectors
/// that are numerically dependent on earlier ones or zero.
fn orthonormalize(vs: &[&[f64]]) -> Vec<Vec<f64>> {
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(vs.len());
    for v in vs {
        let mut u = v.to_vec();
        for _ in 0..2 {
            for b in &basis {
                let c = dot(&u, b);
                axpy(&mut u, -c, b);
            }
        }
        let nu = norm(&u);
        if nu > 1e-12 {
            for x in &mut u {
                *x /= nu;
            }
            basis.push(u);
        }
    }
    basis
}

/// Removes from `v` its components along the orthonormal `basis`.
fn project_out(basis: &[Vec<f64>], v: &mut [f64]) {
    for u in basis {
        let c = dot(v, u);
        axpy(v, -c, u);
    }
}

/// Scales `v` to unit length; `false` (and `v` untouched) when it is
/// numerically zero.
fn normalize(v: &mut [f64]) -> bool {
    let nv = norm(v);
    if nv < 1e-30 {
        return false;
    }
    for x in v.iter_mut() {
        *x /= nv;
    }
    true
}

/// Basis vectors per thick-restart cycle.
const BASIS: usize = 16;
/// Lowest Ritz vectors a thick restart carries into the next cycle.
const KEPT: usize = 4;
/// Cycles before [`lanczos_thick_restart`] returns unconverged. A cycle
/// applies the operator `BASIS` times on the first cycle and `BASIS − KEPT`
/// after, plus at most once for an explicit residual, so one solve makes at
/// most 16 + 75·12 + 76 = 992 applications.
const MAX_CYCLES: usize = 76;

/// The smallest eigenpair of a deflated operator, from
/// [`lanczos_thick_restart`].
#[derive(Clone, Debug)]
pub struct Eigenpair {
    /// The smallest Ritz value on the deflated subspace.
    pub value: f64,
    /// Its Ritz vector: unit length and orthogonal to every deflation
    /// vector.
    pub vector: Vec<f64>,
    /// The explicit residual `‖P A v − value·v‖`, where `P` projects onto
    /// the deflated subspace.
    pub residual: f64,
    /// Restart cycles run (1 when the first basis already converged).
    pub cycles: usize,
}

/// Thick-restart Lanczos (Wu & Simon, 2000) for the smallest eigenpair of
/// `op` on the orthogonal complement of `span(deflates)`.
///
/// Each cycle grows an orthonormal basis to 16 vectors with full
/// reorthogonalization, solves the projected matrix `Vᵀ A V` with
/// [`jacobi_eigen`], and restarts from its 4 lowest Ritz vectors plus the
/// residual direction, so a near-degenerate pair keeps the directions the
/// cycle found. The run stops once the explicit residual of the lowest pair
/// is below `tol`. Out of cycles, it returns the last pair, which is the
/// best seen: the kept vectors lie in the next cycle's subspace, so the
/// lowest Ritz value never rises.
///
/// `start` is deflated and normalized; when it deflates to zero (to within
/// 1e-12 of its length) the run starts from noise seeded by `seed` instead.
/// Returns `None` when the deflated space is empty (e.g. `dim < 2`).
///
/// **Known limit.** Path-like graphs with λ₂ ≲ 1e-4 can exhaust the cycle
/// budget and return a pair above the residual tolerance; the cold solves
/// and the monitor's warm tracker share it. A fresh solve of the normalized
/// Laplacian of `cycle(400)` plus one chord runs all 76 cycles and ends at
/// a residual of 8e-9 to 5e-5, depending on the chord. Its λ₂ stayed within
/// 2e-7 of the dense value on the chords tried, but the residual no longer
/// bounds that error; [`Eigenpair::residual`] reports the shortfall. On a
/// cycle of 1,024 nodes (E8's `1025/cycle-heal` row), the cold normalized
/// λ₂ reads 2.8e-5 against the exact 1 − cos(2π/1024) = 1.88e-5.
pub fn lanczos_thick_restart(
    op: &dyn LinOp,
    deflates: &[&[f64]],
    start: &[f64],
    seed: u64,
    tol: f64,
) -> Option<Eigenpair> {
    let n = op.dim();
    if n < 2 {
        return None;
    }
    for d in deflates {
        assert_eq!(d.len(), n, "deflation vector dimension mismatch");
    }
    assert_eq!(start.len(), n, "start vector dimension mismatch");
    let deflate_basis = orthonormalize(deflates);
    // A start inside `span(deflates)` leaves only round-off, which would
    // seed the basis with a deflated direction: treat it as zero.
    let deflated = |mut v: Vec<f64>| {
        let scale = norm(&v);
        project_out(&deflate_basis, &mut v);
        (norm(&v) > 1e-12 * scale && normalize(&mut v)).then_some(v)
    };
    let v = deflated(start.to_vec()).or_else(|| deflated(seeded_vector(n, seed)))?;

    let m = BASIS.min(n);
    let keep = KEPT.min(m - 1);
    // `basis[..m]` spans a cycle's subspace and `basis[m]` receives the
    // residual direction; `h` holds `Vᵀ A V` (upper triangle, row-major).
    let mut basis = vec![v];
    basis.resize_with(m + 1, || vec![0.0; n]);
    let mut ritz = vec![vec![0.0f64; n]; keep];
    let mut h = vec![0.0f64; m * m];
    let mut w = vec![0.0f64; n];
    let (mut kept, mut cycle) = (0, 0);
    loop {
        cycle += 1;
        // Grow the basis past the kept vectors, or until the Krylov space
        // closes: an invariant subspace, whose Ritz pairs are exact.
        let (mut size, mut beta, mut closed) = (m, 0.0, false);
        for j in kept..m {
            op.apply(&basis[j], &mut w);
            project_out(&deflate_basis, &mut w);
            // Full reorthogonalization, twice; the coefficients are column
            // `j` of `Vᵀ A V`.
            for _ in 0..2 {
                for (i, q) in basis[..=j].iter().enumerate() {
                    let c = dot(&w, q);
                    axpy(&mut w, -c, q);
                    h[i * m + j] += c;
                }
                project_out(&deflate_basis, &mut w);
            }
            beta = norm(&w);
            if beta < 1e-12 {
                (size, closed) = (j + 1, true);
                break;
            }
            for (x, y) in basis[j + 1].iter_mut().zip(&w) {
                *x = y / beta;
            }
        }
        let mut projected = SymMatrix::zeros(size);
        for j in 0..size {
            for i in 0..=j {
                projected.set(i, j, h[i * m + j]);
            }
        }
        let eig = jacobi_eigen(&projected);
        combine(&mut ritz[0], &eig.vectors[0], &basis[..size]);
        normalize(&mut ritz[0]);
        // `‖A u − θ u‖ = β·|last coefficient|` in exact arithmetic; the
        // explicit residual confirms it before the run stops.
        let estimate = beta * eig.vectors[0][size - 1].abs();
        let last = closed || cycle == MAX_CYCLES;
        if last || estimate < tol {
            let residual = deflated_residual(op, &deflate_basis, eig.values[0], &ritz[0], &mut w);
            if last || residual < tol {
                return Some(Eigenpair {
                    value: eig.values[0],
                    vector: ritz.swap_remove(0),
                    residual,
                    cycles: cycle,
                });
            }
        }
        // Thick restart: the lowest Ritz vectors, then the residual
        // direction, with `Vᵀ A V = diag(θ)` on the kept block.
        for (i, u) in ritz.iter_mut().enumerate().skip(1) {
            combine(u, &eig.vectors[i], &basis[..size]);
        }
        for (i, u) in ritz.iter_mut().enumerate() {
            std::mem::swap(&mut basis[i], u);
        }
        basis.swap(keep, m);
        h.fill(0.0);
        for (i, &theta) in eig.values.iter().enumerate().take(keep) {
            h[i * m + i] = theta;
        }
        kept = keep;
    }
}

/// `out = Σ_j coeffs[j]·basis[j]`.
fn combine(out: &mut [f64], coeffs: &[f64], basis: &[Vec<f64>]) {
    out.fill(0.0);
    for (c, q) in coeffs.iter().zip(basis) {
        axpy(out, *c, q);
    }
}

/// `‖P A v − θ v‖` with `P` projecting out `deflate_basis`; `y` is scratch.
fn deflated_residual(
    op: &dyn LinOp,
    deflate_basis: &[Vec<f64>],
    theta: f64,
    v: &[f64],
    y: &mut [f64],
) -> f64 {
    op.apply(v, y);
    project_out(deflate_basis, y);
    y.iter()
        .zip(v)
        .map(|(yi, vi)| (yi - theta * vi).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymMatrix;

    impl LinOp for SymMatrix {
        fn dim(&self) -> usize {
            SymMatrix::dim(self)
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            SymMatrix::apply(self, x, y)
        }
    }

    /// A cold solve of `m` off `deflates` from noise seeded by `seed`.
    fn cold(m: &SymMatrix, deflates: &[&[f64]], seed: u64) -> Eigenpair {
        let start = seeded_vector(m.dim(), seed);
        lanczos_thick_restart(m, deflates, &start, seed, RESIDUAL_TOL).unwrap()
    }

    #[test]
    fn recovers_second_eigenvalue_of_diagonal() {
        // Operator diag(0, 1, 5) with deflation of e0 (its 0-eigenvector):
        // smallest remaining eigenvalue is 1.
        let mut m = SymMatrix::zeros(3);
        m.set(1, 1, 1.0);
        m.set(2, 2, 5.0);
        let r = cold(&m, &[&[1.0, 0.0, 0.0]], 7);
        assert!((r.value - 1.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn smallest_vector_is_deflation_orthogonal() {
        let mut m = SymMatrix::zeros(4);
        for i in 0..4 {
            m.set(i, i, (i * i) as f64);
        }
        let deflate = [0.5; 4];
        let r = cold(&m, &[&deflate], 3);
        let d = dot(&r.vector, &deflate);
        assert!(d.abs() < 1e-8, "dot with deflation vector = {d}");
    }

    #[test]
    fn multi_deflation_recovers_third_eigenvalue() {
        // diag(0, 1, 5, 9): deflating e0 and e1 leaves 5 as the smallest.
        let mut m = SymMatrix::zeros(4);
        m.set(1, 1, 1.0);
        m.set(2, 2, 5.0);
        m.set(3, 3, 9.0);
        let r = cold(&m, &[&[1.0, 0.0, 0.0, 0.0], &[0.0, 1.0, 0.0, 0.0]], 11);
        assert!((r.value - 5.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn dependent_deflation_vectors_are_dropped() {
        // Both deflation vectors span the same line; only one component is
        // removed, so the smallest remaining eigenvalue is 1, not 5.
        let mut m = SymMatrix::zeros(3);
        m.set(1, 1, 1.0);
        m.set(2, 2, 5.0);
        let r = cold(&m, &[&[1.0, 0.0, 0.0], &[2.0, 0.0, 0.0]], 13);
        assert!((r.value - 1.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn tiny_dimension_returns_none() {
        let m = SymMatrix::zeros(1);
        assert!(lanczos_thick_restart(&m, &[&[1.0]], &[1.0], 1, 1e-9).is_none());
    }

    #[test]
    fn thick_restart_converges_beyond_one_basis() {
        // diag(0, 1, 2, …, 199) with e0 deflated: the target 1 sits at
        // relative gap 1/198, which one 16-vector basis cannot resolve.
        let n = 200;
        let mut m = SymMatrix::zeros(n);
        for i in 1..n {
            m.set(i, i, i as f64);
        }
        let mut deflate = vec![0.0; n];
        deflate[0] = 1.0;
        let r = lanczos_thick_restart(&m, &[&deflate], &vec![1.0; n], 3, 1e-9).unwrap();
        assert!(r.cycles > 1, "converged in one cycle");
        assert!(r.residual < 1e-9, "residual {}", r.residual);
        assert!((r.value - 1.0).abs() < 1e-12, "value {}", r.value);
        assert!((norm(&r.vector) - 1.0).abs() < 1e-12);
        assert!(r.vector[1].abs() > 1.0 - 1e-12 && r.vector[0].abs() < 1e-12);
    }

    #[test]
    fn thick_restart_stays_within_its_operator_budget() {
        // A tolerance of 0 is never met, so the run spends every cycle.
        struct Counted(Vec<f64>, std::cell::Cell<usize>);
        impl LinOp for Counted {
            fn dim(&self) -> usize {
                self.0.len()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                self.1.set(self.1.get() + 1);
                for ((yi, d), xi) in y.iter_mut().zip(&self.0).zip(x) {
                    *yi = d * xi;
                }
            }
        }
        let op = Counted((0..500).map(|i| i as f64).collect(), Default::default());
        let r = lanczos_thick_restart(&op, &[], &vec![1.0; 500], 5, 0.0).unwrap();
        assert_eq!(r.cycles, MAX_CYCLES);
        assert!(op.1.get() <= 1000, "{} applications", op.1.get());
        assert!(r.value.abs() < 1e-6, "value {}", r.value);
    }

    #[test]
    fn thick_restart_falls_back_to_noise_on_a_deflated_start() {
        // diag(0, 1, 5, 9) with e0 and e1 deflated: the start e0 + e1
        // deflates to zero, and the smallest remaining eigenvalue is 5.
        let mut m = SymMatrix::zeros(4);
        m.set(1, 1, 1.0);
        m.set(2, 2, 5.0);
        m.set(3, 3, 9.0);
        let d0 = [1.0, 0.0, 0.0, 0.0];
        let d1 = [0.0, 1.0, 0.0, 0.0];
        let r = lanczos_thick_restart(&m, &[&d0, &d1], &[1.0, 1.0, 0.0, 0.0], 11, 1e-9).unwrap();
        assert!((r.value - 5.0).abs() < 1e-12, "value {}", r.value);
        assert!(r.residual < 1e-9 && r.cycles == 1, "{r:?}");
        // Starting along the kernel leaves only round-off after deflation,
        // which must not seed the basis either.
        let csr = xheal_graph::generators::path(20).csr_view();
        let op = crate::CsrNormalizedLaplacian::new(&csr);
        let kernel = op.kernel();
        let r = lanczos_thick_restart(&op, &[&kernel], &kernel, 11, RESIDUAL_TOL).unwrap();
        let expect = 1.0 - (std::f64::consts::PI / 19.0).cos();
        assert!((r.value - expect).abs() < 1e-9, "{r:?} vs {expect}");
    }

    #[test]
    fn zero_deflation_vector_is_tolerated() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 0, 2.0);
        m.set(1, 1, 3.0);
        m.set(2, 2, 4.0);
        let r = cold(&m, &[&[0.0; 3]], 5);
        assert!((r.value - 2.0).abs() < 1e-9, "{r:?}");
    }
}
