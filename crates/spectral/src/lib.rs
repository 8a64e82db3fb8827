//! # xheal-spectral
//!
//! Spectral graph machinery for the Xheal reproduction: Laplacians, the
//! algebraic connectivity λ₂ that Theorem 2(4) of the paper bounds, Fiedler
//! sweep cuts (constructive Cheeger upper bounds), and random-walk mixing
//! times.
//!
//! Two eigensolvers are implemented from scratch and cross-validated:
//!
//! - [`jacobi_eigen`]: dense cyclic Jacobi — exact, O(n³), used up to
//!   [`DENSE_CUTOFF`] nodes and as ground truth in tests;
//! - [`lanczos_thick_restart`]: matrix-free thick-restart Lanczos with full
//!   reorthogonalization and deflation of the Laplacian's kernel, run to the
//!   explicit residual [`RESIDUAL_TOL`]. It serves the cold solves above the
//!   cutoff (from seeded noise) and the monitor's warm re-solves.
//!
//! # Examples
//!
//! ```
//! use xheal_graph::generators;
//! use xheal_spectral::{algebraic_connectivity, sweep_cut};
//!
//! let g = generators::cycle(24);
//! let lambda = algebraic_connectivity(&g);
//! assert!(lambda > 0.0); // connected
//! let cut = sweep_cut(&g).expect("non-degenerate graph");
//! // Cheeger: the sweep conductance is sandwiched by lambda.
//! assert!(cut.conductance >= lambda / 2.0 - 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod jacobi;
mod lanczos;
mod laplacian;
mod mixing;
mod sweep;

pub use dense::SymMatrix;
pub use jacobi::{jacobi_eigen, EigenDecomposition};
pub use lanczos::{lanczos_thick_restart, Eigenpair, LinOp, RESIDUAL_TOL};
pub use laplacian::{
    algebraic_connectivity, algebraic_connectivity_csr, fiedler_vector, fiedler_vector_csr,
    laplacian_dense, laplacian_dense_csr, normalized_algebraic_connectivity,
    normalized_algebraic_connectivity_csr, normalized_laplacian_dense,
    normalized_laplacian_dense_csr, CsrLaplacian, CsrNormalizedLaplacian, DENSE_CUTOFF,
};
pub use mixing::{
    mixing_time, mixing_time_csr, mixing_time_from, mixing_time_from_csr, DEFAULT_TV_THRESHOLD,
};
pub use sweep::{sweep_cut, sweep_cut_by, sweep_cut_csr, SweepCut};
