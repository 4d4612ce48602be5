//! The Jordan–Wigner fermion-to-qubit transform.
//!
//! Mode `p` maps to qubit `p`:
//!
//! ```text
//! a_p  = (X_p + iY_p)/2 · Z_{p-1} ⊗ … ⊗ Z_0
//! a†_p = (X_p − iY_p)/2 · Z_{p-1} ⊗ … ⊗ Z_0
//! ```
//!
//! Products of ladder operators expand into sums of Pauli strings with
//! complex coefficients; a Hermitian fermionic operator always collapses to a
//! real-coefficient [`Hamiltonian`]. This is the same mapping the paper's
//! benchmark pipeline uses (Jordan & Wigner \[30\], via Qiskit Nature).

use std::collections::HashMap;

use marqsim_linalg::Complex;
use marqsim_pauli::{Hamiltonian, ParseError, PauliOp, PauliString, Term};

use crate::{FermionOperator, LadderOp};

/// A sum of Pauli strings with complex coefficients — the intermediate
/// representation of the transform before Hermiticity collapses it to real
/// coefficients.
#[derive(Debug, Clone, Default)]
pub struct PauliSum {
    terms: HashMap<PauliString, Complex>,
}

impl PauliSum {
    /// The empty (zero) sum.
    pub fn new() -> Self {
        PauliSum::default()
    }

    /// A sum holding a single weighted string.
    pub fn single(string: PauliString, coefficient: Complex) -> Self {
        let mut s = PauliSum::new();
        s.add(string, coefficient);
        s
    }

    /// Adds `coefficient · string` to the sum.
    pub fn add(&mut self, string: PauliString, coefficient: Complex) {
        let entry = self.terms.entry(string).or_insert(Complex::ZERO);
        *entry += coefficient;
    }

    /// Adds another sum, scaled by `scale`.
    pub fn add_scaled(&mut self, other: &PauliSum, scale: Complex) {
        for (s, c) in &other.terms {
            self.add(s.clone(), *c * scale);
        }
    }

    /// Product of two sums (distributing and multiplying the Pauli strings).
    pub fn multiply(&self, other: &PauliSum) -> PauliSum {
        let mut out = PauliSum::new();
        for (sa, ca) in &self.terms {
            for (sb, cb) in &other.terms {
                let (phase, product) = sa.mul(sb);
                out.add(product, *ca * *cb * phase);
            }
        }
        out
    }

    /// Number of distinct strings currently held (including near-zero ones).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the sum holds no strings.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterator over `(string, coefficient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&PauliString, &Complex)> {
        self.terms.iter()
    }
}

/// Errors produced by [`transform`].
#[derive(Debug, Clone, PartialEq)]
pub enum JwError {
    /// A coefficient retained a significant imaginary part, meaning the input
    /// fermionic operator was not Hermitian.
    NonHermitian {
        /// The offending Pauli string (textual form).
        string: String,
        /// The imaginary part found.
        imaginary: f64,
    },
    /// The transform produced no terms (all coefficients cancelled), or the
    /// result could not form a valid Hamiltonian.
    Empty(ParseError),
}

impl std::fmt::Display for JwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JwError::NonHermitian { string, imaginary } => write!(
                f,
                "non-hermitian input: term {string} has imaginary coefficient {imaginary}"
            ),
            JwError::Empty(e) => write!(f, "transform produced no usable terms: {e}"),
        }
    }
}

impl std::error::Error for JwError {}

/// Threshold below which coefficients are considered numerically zero.
const COEFF_TOL: f64 = 1e-10;

/// The Jordan–Wigner image of a single ladder operator as a [`PauliSum`].
pub fn ladder_to_pauli(op: LadderOp, num_modes: usize) -> PauliSum {
    // Z string on qubits 0..mode, X or Y on `mode`, identity above.
    let mut x_ops = vec![PauliOp::I; num_modes];
    let mut y_ops = vec![PauliOp::I; num_modes];
    for q in 0..op.mode {
        x_ops[q] = PauliOp::Z;
        y_ops[q] = PauliOp::Z;
    }
    x_ops[op.mode] = PauliOp::X;
    y_ops[op.mode] = PauliOp::Y;

    let mut sum = PauliSum::new();
    sum.add(PauliString::from_ops(x_ops), Complex::real(0.5));
    let y_coeff = if op.creation {
        Complex::new(0.0, -0.5)
    } else {
        Complex::new(0.0, 0.5)
    };
    sum.add(PauliString::from_ops(y_ops), y_coeff);
    sum
}

/// Transforms a fermionic operator into a qubit [`Hamiltonian`], dropping the
/// identity string (which only contributes a global phase to the simulation).
///
/// # Errors
///
/// Returns [`JwError::NonHermitian`] if the input operator is not Hermitian
/// (a Pauli coefficient keeps an imaginary part), or [`JwError::Empty`] if no
/// non-identity term survives.
pub fn transform(op: &FermionOperator) -> Result<Hamiltonian, JwError> {
    transform_with_options(op, true)
}

/// Like [`transform`], but keeping the identity string if
/// `drop_identity` is `false`.
///
/// # Errors
///
/// See [`transform`].
pub fn transform_with_options(
    op: &FermionOperator,
    drop_identity: bool,
) -> Result<Hamiltonian, JwError> {
    let n = op.num_modes();
    let mut total = PauliSum::new();
    for term in op.terms() {
        let mut product = PauliSum::single(PauliString::identity(n), Complex::ONE);
        for ladder in &term.operators {
            product = product.multiply(&ladder_to_pauli(*ladder, n));
        }
        total.add_scaled(&product, Complex::real(term.coefficient));
    }

    let mut terms: Vec<Term> = Vec::new();
    for (string, coeff) in total.iter() {
        if coeff.abs() < COEFF_TOL {
            continue;
        }
        if coeff.im.abs() > 1e-7 {
            return Err(JwError::NonHermitian {
                string: string.to_string(),
                imaginary: coeff.im,
            });
        }
        if drop_identity && string.is_identity() {
            continue;
        }
        terms.push(Term::new(coeff.re, string.clone()));
    }
    // Deterministic ordering: sort by descending magnitude then string text.
    terms.sort_by(|a, b| {
        b.coefficient
            .abs()
            .partial_cmp(&a.coefficient.abs())
            .expect("coefficients are finite")
            .then_with(|| a.string.to_string().cmp(&b.string.to_string()))
    });
    Hamiltonian::new(terms).map_err(JwError::Empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_linalg::Matrix;

    #[test]
    fn number_operator_maps_to_identity_minus_z() {
        // a†_0 a_0 = (I - Z)/2
        let mut op = FermionOperator::new(1);
        op.add_number(0, 1.0);
        let ham = transform_with_options(&op, false).unwrap();
        let m = ham.to_matrix();
        let expected = Matrix::from_real_rows(&[vec![0.0, 0.0], vec![0.0, 1.0]]);
        assert!(m.approx_eq(&expected, 1e-10));
    }

    #[test]
    fn hopping_term_maps_to_xx_plus_yy() {
        // (a†_0 a_1 + a†_1 a_0)/1 -> (X_0 X_1 + Y_0 Y_1)/2
        let mut op = FermionOperator::new(2);
        op.add_hopping(0, 1, 1.0);
        let ham = transform(&op).unwrap();
        assert_eq!(ham.num_terms(), 2);
        for term in ham.terms() {
            assert!((term.coefficient - 0.5).abs() < 1e-10);
            let s = term.string.to_string();
            assert!(s == "XX" || s == "YY", "unexpected string {s}");
        }
    }

    #[test]
    fn jw_strings_carry_z_chains() {
        // Hopping between non-adjacent modes keeps the Z string in between.
        let mut op = FermionOperator::new(4);
        op.add_hopping(0, 3, 1.0);
        let ham = transform(&op).unwrap();
        for term in ham.terms() {
            let s = term.string.to_string();
            // Qubits 1 and 2 must carry Z.
            assert_eq!(&s[1..3], "ZZ", "missing JW chain in {s}");
        }
    }

    #[test]
    fn anticommutation_is_respected_in_matrices() {
        // {a_0, a†_0} = 1: check via dense matrices of the JW images.
        let n = 2;
        let a0 = ladder_to_pauli(LadderOp::annihilate(0), n);
        let a0dag = ladder_to_pauli(LadderOp::create(0), n);
        let dense = |s: &PauliSum| {
            let dim = 1 << n;
            let mut m = Matrix::zeros(dim, dim);
            for (p, c) in s.iter() {
                m = &m + &p.to_matrix().scale(*c);
            }
            m
        };
        let ma = dense(&a0);
        let mad = dense(&a0dag);
        let anticommutator = &ma.matmul(&mad) + &mad.matmul(&ma);
        assert!(anticommutator.approx_eq(&Matrix::identity(4), 1e-10));
        // a_0 a_0 = 0.
        assert!(ma.matmul(&ma).frobenius_norm() < 1e-10);
    }

    #[test]
    fn distinct_mode_operators_anticommute() {
        let n = 3;
        let dense = |s: &PauliSum| {
            let dim = 1 << n;
            let mut m = Matrix::zeros(dim, dim);
            for (p, c) in s.iter() {
                m = &m + &p.to_matrix().scale(*c);
            }
            m
        };
        let a0 = dense(&ladder_to_pauli(LadderOp::annihilate(0), n));
        let a2dag = dense(&ladder_to_pauli(LadderOp::create(2), n));
        let anti = &a0.matmul(&a2dag) + &a2dag.matmul(&a0);
        assert!(anti.frobenius_norm() < 1e-10);
    }

    #[test]
    fn hermitian_operator_transforms_without_error() {
        let mut op = FermionOperator::new(4);
        op.add_number(0, 0.5);
        op.add_number(1, -0.25);
        op.add_hopping(0, 2, 0.3);
        op.add_hopping(1, 3, -0.2);
        // Hermitian two-body pair.
        op.add_two_body(0, 1, 1, 0, 0.7);
        let ham = transform(&op).unwrap();
        assert!(ham.num_terms() > 0);
        assert!(ham.to_matrix().is_hermitian(1e-9));
    }

    #[test]
    fn non_hermitian_operator_is_rejected() {
        let mut op = FermionOperator::new(2);
        // a†_0 a_1 alone is not Hermitian.
        op.add_one_body(0, 1, 1.0);
        assert!(matches!(
            transform(&op).unwrap_err(),
            JwError::NonHermitian { .. }
        ));
    }

    #[test]
    fn identity_only_operator_yields_empty_error() {
        // a†_0 a_0 + a_0 a†_0 = identity; with drop_identity = true nothing is left.
        let mut op = FermionOperator::new(1);
        op.add_term(1.0, vec![LadderOp::create(0), LadderOp::annihilate(0)]);
        op.add_term(1.0, vec![LadderOp::annihilate(0), LadderOp::create(0)]);
        assert!(matches!(transform(&op).unwrap_err(), JwError::Empty(_)));
        // Keeping the identity succeeds.
        let ham = transform_with_options(&op, false).unwrap();
        assert_eq!(ham.num_terms(), 1);
    }

    #[test]
    fn dense_matrix_matches_direct_fock_space_construction() {
        // Two-mode Hamiltonian: e0 n_0 + e1 n_1 + t (a†_0 a_1 + h.c.)
        let (e0, e1, t) = (0.7, -0.4, 0.3);
        let mut op = FermionOperator::new(2);
        op.add_number(0, e0);
        op.add_number(1, e1);
        op.add_hopping(0, 1, t);
        let ham = transform_with_options(&op, false).unwrap();
        let m = ham.to_matrix();
        // Fock basis |n1 n0⟩ ordered 00, 01, 10, 11 (qubit 0 = LSB).
        let expected = Matrix::from_real_rows(&[
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.0, e0, t, 0.0],
            vec![0.0, t, e1, 0.0],
            vec![0.0, 0.0, 0.0, e0 + e1],
        ]);
        assert!(m.approx_eq(&expected, 1e-9), "{m:?}");
    }
}
