//! Pauli-rotation synthesis (Fig. 3 of the paper).
//!
//! A Pauli-string exponential `exp(iθP)` is implemented with two identical
//! layers of basis-change gates, a CNOT ladder that accumulates the parity of
//! the string's support onto a *root* qubit, a single `Rz` rotation on the
//! root, and the mirrored CNOT ladder. The CNOT-ladder shape is the one that
//! exposes the gate-cancellation opportunities exploited by Gui et al. \[22\]
//! and by MarQSim's min-cost-flow objective.
//!
//! The synthesized circuit reproduces `exp(iθP)` *exactly*, including global
//! phase, so that the unitary-fidelity metric of §6.1 is meaningful.

use marqsim_pauli::{PauliOp, PauliString};

use crate::{Circuit, Gate};

/// Appends the circuit for `exp(i · angle · P)` to `circuit`.
///
/// The root qubit is the lowest-index qubit in the support of `P`. Identity
/// strings contribute only a global phase.
///
/// # Panics
///
/// Panics if `P` acts on more qubits than `circuit` has.
///
/// # Example
///
/// ```
/// use marqsim_circuit::{synthesis, Circuit};
/// use marqsim_pauli::PauliString;
///
/// let p: PauliString = "ZZ".parse().unwrap();
/// let mut c = Circuit::new(2);
/// synthesis::append_pauli_rotation(&mut c, &p, 0.25);
/// assert_eq!(c.cnot_count(), 2);
/// assert_eq!(c.rz_count(), 1);
/// ```
pub fn append_pauli_rotation(circuit: &mut Circuit, pauli: &PauliString, angle: f64) {
    assert!(
        pauli.num_qubits() <= circuit.num_qubits(),
        "Pauli string acts on {} qubits but the circuit has {}",
        pauli.num_qubits(),
        circuit.num_qubits()
    );
    let Some((root, _)) = pauli.support().next() else {
        // exp(i angle I) is a global phase.
        circuit.push(Gate::GlobalPhase(angle));
        return;
    };

    // Leading basis changes: map X -> Z via H, Y -> Z via (S H)† = H S†
    // applied in time order S† then H... more precisely we need W† first
    // where W Z W† = σ. For X, W = H; for Y, W = S·H.
    for (q, op) in pauli.support() {
        match op {
            PauliOp::X => circuit.push(Gate::H(q)),
            PauliOp::Y => {
                circuit.push(Gate::Sdg(q));
                circuit.push(Gate::H(q));
            }
            PauliOp::Z => {}
            PauliOp::I => unreachable!("support excludes identities"),
        }
    }

    // CNOT ladder: parity of every support qubit accumulated onto the root
    // (the lowest one, so the rest are the ones above it).
    for (q, _) in pauli.support().filter(|&(q, _)| q > root) {
        circuit.push(Gate::Cnot {
            control: q,
            target: root,
        });
    }

    // exp(i angle Z_root) = Rz(-2 angle) exactly (no global phase).
    circuit.push(Gate::Rz(root, -2.0 * angle));

    // Mirrored CNOT ladder.
    for (q, _) in pauli.support().rev().filter(|&(q, _)| q > root) {
        circuit.push(Gate::Cnot {
            control: q,
            target: root,
        });
    }

    // Trailing basis changes (the W layer).
    for (q, op) in pauli.support() {
        match op {
            PauliOp::X => circuit.push(Gate::H(q)),
            PauliOp::Y => {
                circuit.push(Gate::H(q));
                circuit.push(Gate::S(q));
            }
            PauliOp::Z => {}
            PauliOp::I => unreachable!("support excludes identities"),
        }
    }
}

/// The number of gates [`append_pauli_rotation`] appends for `pauli`: one
/// global phase for the identity, otherwise two basis changes per `X`, four
/// per `Y`, two CNOT ladders over the support, and one `Rz`. Callers sum it
/// over a sequence to reserve a circuit's exact size up front.
///
/// # Example
///
/// ```
/// use marqsim_circuit::synthesis;
/// use marqsim_pauli::PauliString;
///
/// let p: PauliString = "XYZI".parse().unwrap();
/// assert_eq!(synthesis::rotation_gate_count(&p), 2 + 4 + 2 * 2 + 1);
/// ```
pub fn rotation_gate_count(pauli: &PauliString) -> usize {
    let (mut support, mut basis) = (0, 0);
    for op in pauli.ops() {
        match op {
            PauliOp::I => continue,
            PauliOp::X => basis += 2,
            PauliOp::Y => basis += 4,
            PauliOp::Z => {}
        }
        support += 1;
    }
    if support == 0 {
        1
    } else {
        basis + 2 * (support - 1) + 1
    }
}

/// Builds a standalone circuit for `exp(i · angle · P)`.
pub fn pauli_rotation_circuit(pauli: &PauliString, angle: f64) -> Circuit {
    let mut c = Circuit::with_capacity(pauli.num_qubits(), rotation_gate_count(pauli));
    append_pauli_rotation(&mut c, pauli, angle);
    c
}

/// Synthesizes the circuit for a whole term sequence: each entry is a Pauli
/// string and the rotation angle to apply, concatenated in order.
pub fn sequence_circuit(num_qubits: usize, sequence: &[(PauliString, f64)]) -> Circuit {
    let gates = sequence.iter().map(|(p, _)| rotation_gate_count(p)).sum();
    let mut c = Circuit::with_capacity(num_qubits, gates);
    for (p, angle) in sequence {
        append_pauli_rotation(&mut c, p, *angle);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_linalg::{expm, Complex, Matrix};

    /// Builds the full 2^n unitary of a circuit (test-only; the production
    /// path lives in `marqsim-sim`).
    fn circuit_unitary(circuit: &Circuit) -> Matrix {
        let n = circuit.num_qubits();
        let dim = 1usize << n;
        let mut u = Matrix::identity(dim);
        for gate in circuit.gates() {
            let g = full_matrix(gate, n);
            u = g.matmul(&u);
        }
        u
    }

    fn full_matrix(gate: &Gate, n: usize) -> Matrix {
        let dim = 1usize << n;
        match gate {
            Gate::Cnot { control, target } => Matrix::from_fn(dim, dim, |i, j| {
                let flipped = if (j >> control) & 1 == 1 {
                    j ^ (1 << target)
                } else {
                    j
                };
                if i == flipped {
                    Complex::ONE
                } else {
                    Complex::ZERO
                }
            }),
            Gate::GlobalPhase(phi) => Matrix::identity(dim).scale(Complex::cis(*phi)),
            single => {
                let q = single.qubits()[0];
                let local = single.local_matrix();
                Matrix::from_fn(dim, dim, |i, j| {
                    // All bits other than q must agree.
                    if (i ^ j) & !(1usize << q) != 0 {
                        Complex::ZERO
                    } else {
                        local[((i >> q) & 1, (j >> q) & 1)]
                    }
                })
            }
        }
    }

    fn exact_rotation(p: &PauliString, angle: f64) -> Matrix {
        expm::expm(&p.to_matrix().scale(Complex::new(0.0, angle)))
    }

    #[test]
    fn single_qubit_rotations_match_exact_exponential() {
        for s in ["X", "Y", "Z"] {
            for angle in [0.0, 0.3, -0.9, 1.7] {
                let p: PauliString = s.parse().unwrap();
                let c = pauli_rotation_circuit(&p, angle);
                let u = circuit_unitary(&c);
                let exact = exact_rotation(&p, angle);
                assert!(u.approx_eq(&exact, 1e-10), "P={s} angle={angle}");
            }
        }
    }

    #[test]
    fn multi_qubit_rotations_match_exact_exponential() {
        for s in ["ZZ", "XZ", "XY", "XYZ", "ZIZ", "XYZI", "IYIX"] {
            let angle = 0.47;
            let p: PauliString = s.parse().unwrap();
            let c = pauli_rotation_circuit(&p, angle);
            let u = circuit_unitary(&c);
            let exact = exact_rotation(&p, angle);
            assert!(u.approx_eq(&exact, 1e-10), "P={s}");
        }
    }

    #[test]
    fn identity_string_becomes_global_phase() {
        let p = PauliString::identity(3);
        let c = pauli_rotation_circuit(&p, 0.8);
        assert_eq!(c.gate_count(), 0);
        assert_eq!(c.len(), 1);
        let u = circuit_unitary(&c);
        let exact = exact_rotation(&p, 0.8);
        assert!(u.approx_eq(&exact, 1e-12));
    }

    #[test]
    fn gate_counts_follow_figure_3() {
        // exp(i X4 Y3 Z2 I1 θ/2): 3 support qubits, 2 CNOTs per ladder, one Rz,
        // basis changes on X and Y qubits.
        let p: PauliString = "XYZI".parse().unwrap();
        let c = pauli_rotation_circuit(&p, 0.5);
        assert_eq!(c.cnot_count(), 4);
        assert_eq!(c.rz_count(), 1);
        // H on the X qubit twice, (Sdg,H) + (H,S) on the Y qubit.
        assert_eq!(c.single_qubit_count(), 2 + 4 + 1);
    }

    #[test]
    fn zero_angle_rotation_is_identity_unitary() {
        let p: PauliString = "XYZ".parse().unwrap();
        let c = pauli_rotation_circuit(&p, 0.0);
        let u = circuit_unitary(&c);
        assert!(u.approx_eq(&Matrix::identity(8), 1e-12));
    }

    #[test]
    fn sequence_circuit_composes_in_order() {
        let a: PauliString = "ZZ".parse().unwrap();
        let b: PauliString = "XI".parse().unwrap();
        let seq = vec![(a.clone(), 0.3), (b.clone(), -0.4)];
        let c = sequence_circuit(2, &seq);
        let u = circuit_unitary(&c);
        let exact = exact_rotation(&b, -0.4).matmul(&exact_rotation(&a, 0.3));
        assert!(u.approx_eq(&exact, 1e-10));
    }

    #[test]
    fn rotation_gate_count_matches_every_string_on_up_to_four_qubits() {
        const OPS: [PauliOp; 4] = [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z];
        for n in 1..=4u32 {
            for code in 0..4usize.pow(n) {
                let ops = (0..n).map(|q| OPS[(code >> (2 * q)) & 3]).collect();
                let p = PauliString::from_ops(ops);
                let c = pauli_rotation_circuit(&p, 0.3);
                assert_eq!(rotation_gate_count(&p), c.len(), "P={p}");
            }
        }
    }

    #[test]
    fn sequence_circuit_reserves_its_exact_size() {
        let seq: Vec<(PauliString, f64)> = ["XYZI", "IIII", "ZIIZ", "YYYY"]
            .iter()
            .map(|s| (s.parse().unwrap(), 0.2))
            .collect();
        let c = sequence_circuit(4, &seq);
        let counted: usize = seq.iter().map(|(p, _)| rotation_gate_count(p)).sum();
        assert_eq!(c.len(), counted);
        assert_eq!(c.into_gates().capacity(), counted);
    }

    #[test]
    fn rotation_circuit_is_unitary() {
        let p: PauliString = "XXYYZ".parse().unwrap();
        let c = pauli_rotation_circuit(&p, 1.234);
        let u = circuit_unitary(&c);
        assert!(u.is_unitary(1e-9));
    }
}
