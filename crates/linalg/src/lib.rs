//! Dense complex linear algebra for the MarQSim reproduction.
//!
//! The paper's evaluation relies on NumPy/PyTorch for all numerics (unitary
//! accumulation, matrix exponentials for the exact reference evolution, and
//! eigenvalue computations for the transition-matrix spectra analysis in
//! §5.4). This crate provides those facilities from scratch:
//!
//! * [`Complex`] — a `f64`-based complex scalar.
//! * [`Matrix`] — a dense, row-major complex matrix with the usual algebra
//!   (multiplication, adjoint, trace, Kronecker products, norms).
//! * [`expm`] — matrix exponential via scaling-and-squaring with a truncated
//!   Taylor series, accurate for the skew-Hermitian exponents `iHt` used in
//!   quantum simulation.
//! * [`hermitian_eigen`] — a cyclic Jacobi eigensolver for complex Hermitian
//!   matrices (used for exact spectral decompositions in tests).
//! * [`eigenvalues_general`] / [`eigenvalues_real`] — eigenvalues of general
//!   real matrices via Hessenberg reduction followed by shifted complex QR
//!   iteration (used for the Markov transition-matrix spectra of §5.4 /
//!   Fig. 11 / Fig. 15).
//! * [`lu_decompose`] / [`solve_linear`] — LU factorization with partial
//!   pivoting and linear solves (used for stationary-distribution
//!   computation).
//!
//! # Example
//!
//! ```
//! use marqsim_linalg::{Complex, Matrix};
//!
//! let x = Matrix::from_rows(&[
//!     vec![Complex::ZERO, Complex::ONE],
//!     vec![Complex::ONE, Complex::ZERO],
//! ]);
//! let id = &x * &x;
//! assert!((id.trace() - Complex::new(2.0, 0.0)).abs() < 1e-12);
//! ```

mod complex;
mod general_eig;
mod hermitian_eig;
mod matrix;
mod solve;
mod vector;

pub mod expm;

pub use complex::Complex;
pub use general_eig::{eigenvalues_general, eigenvalues_real};
pub use hermitian_eig::{hermitian_eigen, HermitianEigen};
pub use matrix::Matrix;
pub use solve::{lu_decompose, lu_solve, solve_linear, LuDecomposition, SolveError};
pub use vector::{axpy, dot, norm2, normalize, scale, CVector};
