//! Accumulation of a circuit's full unitary in one column-major buffer.

use marqsim_circuit::{Circuit, Gate};
use marqsim_linalg::{Complex, Matrix};
use marqsim_pauli::PauliString;

use crate::state::{apply_gate_in_place, apply_pauli_rotation_in_place};

/// Accumulates the full `2^n × 2^n` unitary of a gate/rotation sequence by
/// evolving every computational basis state at once, in one contiguous
/// column-major buffer (column `j` holds `U |j⟩`).
///
/// This is the workhorse of the algorithmic-accuracy evaluation: the cost of
/// applying one Pauli rotation is `O(4^n)` (one in-place pass over the
/// buffer, with the rotation's masks and coefficients computed once), which
/// is what makes sweeping thousands of sampled terms feasible without
/// synthesizing and multiplying dense gate matrices. Each amplitude is
/// computed exactly as [`crate::StateVector`] computes it, so accumulating
/// column by column gives the same bits.
///
/// # Example
///
/// ```
/// use marqsim_pauli::PauliString;
/// use marqsim_sim::UnitaryAccumulator;
///
/// let p: PauliString = "ZZ".parse().unwrap();
/// let mut acc = UnitaryAccumulator::new(2);
/// acc.apply_pauli_rotation(&p, 0.3);
/// let u = acc.to_matrix();
/// assert!(u.is_unitary(1e-10));
/// ```
#[derive(Debug, Clone)]
pub struct UnitaryAccumulator {
    num_qubits: usize,
    /// Column-major: `data[j * 2^n + i]` is the `(i, j)` entry.
    data: Vec<Complex>,
    /// The current rotation's per-row multipliers, reused across rotations.
    rows: Vec<Complex>,
}

impl UnitaryAccumulator {
    /// Starts from the identity on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        let dim = 1usize << num_qubits;
        let mut data = vec![Complex::ZERO; dim * dim];
        for j in 0..dim {
            data[j * dim + j] = Complex::ONE;
        }
        UnitaryAccumulator {
            num_qubits,
            data,
            rows: Vec::with_capacity(dim),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The accumulated unitary in column-major order: the `2^n` amplitudes
    /// of `U |0⟩`, then of `U |1⟩`, and so on.
    pub fn column_major(&self) -> &[Complex] {
        &self.data
    }

    fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// Applies a single gate to the accumulated unitary (`U ← G · U`).
    ///
    /// # Panics
    ///
    /// Panics if the gate addresses a qubit outside the register.
    pub fn apply_gate(&mut self, gate: &Gate) {
        let dim = self.dim();
        for column in self.data.chunks_exact_mut(dim) {
            apply_gate_in_place(column, self.num_qubits, gate);
        }
    }

    /// Applies a whole circuit (`U ← U_circuit · U`).
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        for gate in circuit.gates() {
            self.apply_gate(gate);
        }
    }

    /// Applies `exp(i · angle · P)` to the accumulated unitary.
    ///
    /// # Panics
    ///
    /// Panics if `P` acts on a different number of qubits.
    pub fn apply_pauli_rotation(&mut self, pauli: &PauliString, angle: f64) {
        assert_eq!(
            pauli.num_qubits(),
            self.num_qubits,
            "Pauli string qubit count mismatch"
        );
        apply_pauli_rotation_in_place(&mut self.data, pauli, angle, &mut self.rows);
    }

    /// Applies a sequence of Pauli rotations in order.
    pub fn apply_sequence(&mut self, sequence: &[(PauliString, f64)]) {
        for (p, angle) in sequence {
            self.apply_pauli_rotation(p, *angle);
        }
    }

    /// Exports the accumulated unitary as a dense matrix.
    pub fn to_matrix(&self) -> Matrix {
        let dim = self.dim();
        Matrix::from_fn(dim, dim, |i, j| self.data[j * dim + i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_circuit::synthesis;
    use marqsim_linalg::expm;

    #[test]
    fn identity_on_construction() {
        let acc = UnitaryAccumulator::new(3);
        assert!(acc.to_matrix().approx_eq(&Matrix::identity(8), 1e-15));
    }

    #[test]
    fn single_rotation_matches_exponential() {
        let p: PauliString = "XY".parse().unwrap();
        let angle = 0.37;
        let mut acc = UnitaryAccumulator::new(2);
        acc.apply_pauli_rotation(&p, angle);
        let expected = expm::expm(&p.to_matrix().scale(Complex::new(0.0, angle)));
        assert!(acc.to_matrix().approx_eq(&expected, 1e-10));
    }

    #[test]
    fn gate_accumulation_matches_circuit_synthesis() {
        let p: PauliString = "XZY".parse().unwrap();
        let circuit = synthesis::pauli_rotation_circuit(&p, -0.62);
        let mut via_gates = UnitaryAccumulator::new(3);
        via_gates.apply_circuit(&circuit);
        let mut via_rotation = UnitaryAccumulator::new(3);
        via_rotation.apply_pauli_rotation(&p, -0.62);
        assert!(via_gates
            .to_matrix()
            .approx_eq(&via_rotation.to_matrix(), 1e-10));
    }

    #[test]
    fn sequence_order_is_left_to_right_in_time() {
        let a: PauliString = "XI".parse().unwrap();
        let b: PauliString = "ZZ".parse().unwrap();
        let mut acc = UnitaryAccumulator::new(2);
        acc.apply_sequence(&[(a.clone(), 0.5), (b.clone(), 0.25)]);
        let ua = expm::expm(&a.to_matrix().scale(Complex::new(0.0, 0.5)));
        let ub = expm::expm(&b.to_matrix().scale(Complex::new(0.0, 0.25)));
        // Later rotations multiply from the left.
        let expected = ub.matmul(&ua);
        assert!(acc.to_matrix().approx_eq(&expected, 1e-10));
    }

    #[test]
    fn accumulated_unitary_stays_unitary_over_many_rotations() {
        let strings = ["XXI", "IZZ", "YIY", "ZXZ"];
        let mut acc = UnitaryAccumulator::new(3);
        for step in 0..40 {
            let p: PauliString = strings[step % strings.len()].parse().unwrap();
            acc.apply_pauli_rotation(&p, 0.05 + 0.01 * step as f64);
        }
        assert!(acc.to_matrix().is_unitary(1e-8));
    }
}
