//! Multi-qubit Pauli strings.

use std::fmt;
use std::str::FromStr;

use marqsim_linalg::{Complex, Matrix};

use crate::parse::ParseError;
use crate::PauliOp;

/// An `n`-qubit Pauli string `σ_{n-1} ⊗ … ⊗ σ_1 ⊗ σ_0`.
///
/// Qubit `0` is the **rightmost** character of the textual representation,
/// matching the convention in §2.3 of the paper (`P = σ_n σ_{n-1} … σ_1`).
/// Internally the operators are stored indexed by qubit, so `op(0)` is the
/// operator acting on qubit 0.
///
/// # Example
///
/// ```
/// use marqsim_pauli::{PauliOp, PauliString};
///
/// let p: PauliString = "XYZI".parse().unwrap();
/// assert_eq!(p.num_qubits(), 4);
/// assert_eq!(p.op(0), PauliOp::I); // rightmost character
/// assert_eq!(p.op(3), PauliOp::X); // leftmost character
/// assert_eq!(p.weight(), 3);
/// assert_eq!(p.to_string(), "XYZI");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PauliString {
    /// Operators indexed by qubit (qubit 0 first).
    ops: Vec<PauliOp>,
}

impl PauliString {
    /// Creates the all-identity string on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            ops: vec![PauliOp::I; n],
        }
    }

    /// Creates a string from operators indexed by qubit (qubit 0 first).
    pub fn from_ops(ops: Vec<PauliOp>) -> Self {
        PauliString { ops }
    }

    /// Creates a string with a single non-identity operator at `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n`.
    pub fn single(n: usize, qubit: usize, op: PauliOp) -> Self {
        assert!(qubit < n, "qubit index {qubit} out of range for {n} qubits");
        let mut ops = vec![PauliOp::I; n];
        ops[qubit] = op;
        PauliString { ops }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.ops.len()
    }

    /// The operator acting on `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` is out of range.
    #[inline]
    pub fn op(&self, qubit: usize) -> PauliOp {
        self.ops[qubit]
    }

    /// Operators indexed by qubit (qubit 0 first).
    #[inline]
    pub fn ops(&self) -> &[PauliOp] {
        &self.ops
    }

    /// Returns `true` if every operator is the identity.
    pub fn is_identity(&self) -> bool {
        self.ops.iter().all(|op| op.is_identity())
    }

    /// Number of non-identity operators (the Pauli weight).
    pub fn weight(&self) -> usize {
        self.ops.iter().filter(|op| !op.is_identity()).count()
    }

    /// Iterator over `(qubit, op)` pairs with non-identity operators, in
    /// qubit order (double-ended, so it also walks the support backwards).
    pub fn support(&self) -> impl DoubleEndedIterator<Item = (usize, PauliOp)> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| !op.is_identity())
            .map(|(q, &op)| (q, op))
    }

    /// Bitmask of qubits on which the string applies `X` or `Y` (bit-flip
    /// component of the symplectic representation).
    ///
    /// # Panics
    ///
    /// Panics if the string has more than 64 qubits.
    pub fn x_mask(&self) -> u64 {
        assert!(
            self.num_qubits() <= 64,
            "bitmask only supports up to 64 qubits"
        );
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.x_bit())
            .fold(0u64, |m, (q, _)| m | (1u64 << q))
    }

    /// Bitmask of qubits on which the string applies `Z` or `Y` (phase-flip
    /// component of the symplectic representation).
    ///
    /// # Panics
    ///
    /// Panics if the string has more than 64 qubits.
    pub fn z_mask(&self) -> u64 {
        assert!(
            self.num_qubits() <= 64,
            "bitmask only supports up to 64 qubits"
        );
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.z_bit())
            .fold(0u64, |m, (q, _)| m | (1u64 << q))
    }

    /// Returns `true` if the two strings commute as operators.
    ///
    /// Two Pauli strings commute iff they anticommute on an even number of
    /// qubit positions.
    ///
    /// # Panics
    ///
    /// Panics if the strings act on different numbers of qubits.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        assert_eq!(
            self.num_qubits(),
            other.num_qubits(),
            "commutation check requires equal qubit counts"
        );
        let anticommuting = self
            .ops
            .iter()
            .zip(other.ops.iter())
            .filter(|(a, b)| !a.commutes_with(**b))
            .count();
        anticommuting % 2 == 0
    }

    /// Product of two Pauli strings, returned as `(phase, string)` with
    /// `phase ∈ {±1, ±i}` so that `self · other = phase · string`.
    ///
    /// # Panics
    ///
    /// Panics if the strings act on different numbers of qubits.
    pub fn mul(&self, other: &PauliString) -> (Complex, PauliString) {
        assert_eq!(
            self.num_qubits(),
            other.num_qubits(),
            "product requires equal qubit counts"
        );
        let mut phase = Complex::ONE;
        let ops = self
            .ops
            .iter()
            .zip(other.ops.iter())
            .map(|(&a, &b)| {
                let (p, c) = a.mul(b);
                phase *= p;
                c
            })
            .collect();
        (phase, PauliString { ops })
    }

    /// Number of qubits where both strings apply the **same non-identity**
    /// operator. This is the quantity that drives CNOT cancellation between
    /// consecutive Pauli-rotation circuits (§5.2, Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if the strings act on different numbers of qubits.
    pub fn matching_support(&self, other: &PauliString) -> usize {
        assert_eq!(
            self.num_qubits(),
            other.num_qubits(),
            "matching_support requires equal qubit counts"
        );
        self.ops
            .iter()
            .zip(other.ops.iter())
            .filter(|(a, b)| !a.is_identity() && a == b)
            .count()
    }

    /// Dense `2^n × 2^n` matrix representation (leftmost character of the
    /// display form is the most-significant tensor factor).
    ///
    /// Intended for testing and small-system exact references; the cost is
    /// exponential in the number of qubits.
    pub fn to_matrix(&self) -> Matrix {
        let mut m = Matrix::identity(1);
        // Highest qubit index is the leftmost (most significant) factor.
        for q in (0..self.num_qubits()).rev() {
            m = m.kron(&self.ops[q].matrix());
        }
        m
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Display leftmost = highest qubit index.
        for q in (0..self.num_qubits()).rev() {
            write!(f, "{}", self.ops[q].to_char())?;
        }
        Ok(())
    }
}

impl fmt::Debug for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PauliString({self})")
    }
}

impl FromStr for PauliString {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseError::EmptyPauliString);
        }
        let mut ops = Vec::with_capacity(s.len());
        for (pos, c) in s.chars().enumerate() {
            match PauliOp::from_char(c) {
                Some(op) => ops.push(op),
                None => {
                    return Err(ParseError::InvalidPauliChar {
                        character: c,
                        position: pos,
                    })
                }
            }
        }
        // The textual form lists the highest qubit first; reverse into
        // qubit-indexed order.
        ops.reverse();
        Ok(PauliString { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["XYZI", "IIII", "Z", "XXYYZZ", "IZXY"] {
            let p: PauliString = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_bad_characters() {
        let err = "XQZ".parse::<PauliString>().unwrap_err();
        assert!(matches!(
            err,
            ParseError::InvalidPauliChar {
                character: 'Q',
                position: 1
            }
        ));
        assert!("".parse::<PauliString>().is_err());
    }

    #[test]
    fn qubit_indexing_convention() {
        let p: PauliString = "XYZ".parse().unwrap();
        assert_eq!(p.op(0), PauliOp::Z);
        assert_eq!(p.op(1), PauliOp::Y);
        assert_eq!(p.op(2), PauliOp::X);
    }

    #[test]
    fn weight_and_support() {
        let p: PauliString = "XIZI".parse().unwrap();
        assert_eq!(p.weight(), 2);
        let support: Vec<(usize, PauliOp)> = p.support().collect();
        assert_eq!(support, vec![(1, PauliOp::Z), (3, PauliOp::X)]);
        assert!(!p.is_identity());
        assert!(PauliString::identity(4).is_identity());
    }

    #[test]
    fn masks_follow_symplectic_encoding() {
        let p: PauliString = "XYZI".parse().unwrap();
        // qubit 0 = I, 1 = Z, 2 = Y, 3 = X
        assert_eq!(p.x_mask(), 0b1100);
        assert_eq!(p.z_mask(), 0b0110);
    }

    #[test]
    fn commutation_matches_matrix_commutation() {
        let strings = ["XXI", "ZZI", "XYZ", "IYZ", "YIX", "ZIZ"];
        for a in strings {
            for b in strings {
                let pa: PauliString = a.parse().unwrap();
                let pb: PauliString = b.parse().unwrap();
                let ma = pa.to_matrix();
                let mb = pb.to_matrix();
                let commutes_matrix = ma.matmul(&mb).approx_eq(&mb.matmul(&ma), 1e-12);
                assert_eq!(pa.commutes_with(&pb), commutes_matrix, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn product_matches_matrix_product() {
        let cases = [
            ("XY", "YX"),
            ("XZ", "ZY"),
            ("XX", "YY"),
            ("IZ", "XI"),
            ("YZ", "YZ"),
        ];
        for (a, b) in cases {
            let pa: PauliString = a.parse().unwrap();
            let pb: PauliString = b.parse().unwrap();
            let (phase, prod) = pa.mul(&pb);
            let lhs = pa.to_matrix().matmul(&pb.to_matrix());
            let rhs = prod.to_matrix().scale(phase);
            assert!(lhs.approx_eq(&rhs, 1e-12), "{a} * {b}");
        }
    }

    #[test]
    fn matching_support_counts_equal_non_identity() {
        let a: PauliString = "ZZZZ".parse().unwrap();
        let b: PauliString = "XZXZ".parse().unwrap();
        assert_eq!(a.matching_support(&b), 2);
        assert_eq!(b.matching_support(&a), 2);
        let c: PauliString = "IIII".parse().unwrap();
        assert_eq!(a.matching_support(&c), 0);
    }

    #[test]
    fn to_matrix_ordering_matches_kron_convention() {
        // "XZ" = X ⊗ Z: qubit 1 (leftmost) is X, qubit 0 is Z.
        let p: PauliString = "XZ".parse().unwrap();
        let expected = PauliOp::X.matrix().kron(&PauliOp::Z.matrix());
        assert!(p.to_matrix().approx_eq(&expected, 1e-15));
    }

    #[test]
    fn single_constructor_places_operator() {
        let p = PauliString::single(4, 2, PauliOp::Y);
        assert_eq!(p.to_string(), "IYII");
    }

    #[test]
    fn pauli_strings_are_traceless_unless_identity() {
        let p: PauliString = "XZY".parse().unwrap();
        assert!(p.to_matrix().trace().abs() < 1e-12);
        let id = PauliString::identity(3);
        assert!((id.to_matrix().trace().re - 8.0).abs() < 1e-12);
    }
}
