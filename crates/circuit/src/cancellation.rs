//! Peephole gate cancellation.
//!
//! The paper's baseline is "qDRIFT followed by applying gate cancellation
//! \[22\] on the randomized sequence" (§6.1). This module implements that
//! post-pass at the gate level:
//!
//! * adjacent self-inverse pairs (`H·H`, `X·X`, `CNOT·CNOT`, …) are removed,
//! * adjacent `S·S†` / `Rz(θ)·Rz(-θ)` pairs are removed,
//! * adjacent `Rz` rotations on the same qubit are merged,
//! * global phases are folded together.
//!
//! "Adjacent" is understood up to commutation: when searching backwards for a
//! cancellation partner, the pass slides over gates that provably commute
//! with the current gate (diagonal gates past CNOT controls, CNOTs sharing a
//! target, disjoint gates, …). This is what lets the facing CNOT ladders of
//! consecutive Pauli rotations cancel even when unrelated basis-change gates
//! sit between them — the mechanism MarQSim's term ordering exploits.

use crate::{Circuit, Gate};

/// Result of a cancellation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CancellationReport {
    /// Number of gates removed by the pass.
    pub removed: usize,
    /// Number of `Rz` pairs merged into a single rotation.
    pub merged_rotations: usize,
    /// Number of fixed-point iterations performed.
    pub iterations: usize,
}

/// Runs the peephole cancellation pass until no more gates can be removed and
/// returns the optimized circuit together with a report.
pub fn cancel_gates(circuit: &Circuit) -> (Circuit, CancellationReport) {
    let mut gates: Vec<Gate> = circuit.gates().to_vec();
    let mut report = CancellationReport::default();

    loop {
        report.iterations += 1;
        let mut slots: Vec<Option<Gate>> = gates.into_iter().map(Some).collect();
        let (removed, merged) = single_pass(&mut slots);
        report.removed += removed;
        report.merged_rotations += merged;
        gates = slots.into_iter().flatten().collect();
        if removed == 0 && merged == 0 {
            break;
        }
    }

    let optimized = Circuit::from_gates(circuit.num_qubits(), gates);
    (optimized, report)
}

/// Returns `true` when the two gates are known to commute. Conservative: a
/// `false` answer only means the pass will not slide one past the other.
fn commutes(a: &Gate, b: &Gate) -> bool {
    use Gate::*;
    if matches!(a, GlobalPhase(_)) || matches!(b, GlobalPhase(_)) {
        return true;
    }
    let qa = a.qubits();
    let qb = b.qubits();
    if qa.iter().all(|q| !qb.contains(q)) {
        return true;
    }
    let is_diagonal = |g: &Gate| matches!(g, Z(_) | S(_) | Sdg(_) | Rz(_, _));
    let is_x_type = |g: &Gate| matches!(g, X(_) | Rx(_, _));
    match (a, b) {
        (
            Cnot {
                control: c1,
                target: t1,
            },
            Cnot {
                control: c2,
                target: t2,
            },
        ) => {
            if a == b {
                return true;
            }
            // Shared control or shared target commute; control-target overlap
            // does not.
            (c1 == c2 || t1 == t2) && c1 != t2 && c2 != t1
        }
        (Cnot { control, target }, single) | (single, Cnot { control, target }) => {
            let q = single.qubits()[0];
            (q == *control && is_diagonal(single)) || (q == *target && is_x_type(single))
        }
        (x, y) => {
            // Same-qubit single-qubit gates.
            x == y || (is_diagonal(x) && is_diagonal(y)) || (is_x_type(x) && is_x_type(y))
        }
    }
}

/// One linear scan: for each gate, walk backwards over commuting gates looking
/// for a cancellation/merge partner; stop at the first blocking gate.
fn single_pass(gates: &mut [Option<Gate>]) -> (usize, usize) {
    let len = gates.len();
    let mut removed = 0usize;
    let mut merged = 0usize;
    let mut phase_slot: Option<usize> = None;

    for idx in 0..len {
        let Some(current) = gates[idx].clone() else {
            continue;
        };
        if let Gate::GlobalPhase(phi) = current {
            match phase_slot {
                None => phase_slot = Some(idx),
                Some(slot) => {
                    if let Some(Gate::GlobalPhase(prev)) = gates[slot].clone() {
                        gates[slot] = Some(Gate::GlobalPhase(prev + phi));
                        gates[idx] = None;
                        removed += 1;
                    }
                }
            }
            continue;
        }

        for j in (0..idx).rev() {
            let Some(prev) = gates[j].clone() else {
                continue;
            };
            // Merge adjacent Rz rotations on the same qubit.
            if let (Gate::Rz(q1, a), Gate::Rz(q2, b)) = (&prev, &current) {
                if q1 == q2 {
                    let sum = a + b;
                    if sum.abs() < 1e-15 {
                        gates[j] = None;
                        gates[idx] = None;
                        removed += 2;
                    } else {
                        gates[j] = None;
                        gates[idx] = Some(Gate::Rz(*q1, sum));
                        removed += 1;
                        merged += 1;
                    }
                    break;
                }
            }
            if prev.cancels_with(&current) {
                gates[j] = None;
                gates[idx] = None;
                removed += 2;
                break;
            }
            if !commutes(&prev, &current) {
                break;
            }
        }
    }
    (removed, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis;
    use marqsim_linalg::{Complex, Matrix};
    use marqsim_pauli::PauliString;

    fn unitary(circ: &Circuit) -> Matrix {
        let n = circ.num_qubits();
        let dim = 1usize << n;
        let mut u = Matrix::identity(dim);
        for gate in circ.gates() {
            let full = match gate {
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
                g => {
                    let qb = g.qubits()[0];
                    let local = g.local_matrix();
                    Matrix::from_fn(dim, dim, |i, j| {
                        if (i ^ j) & !(1usize << qb) != 0 {
                            Complex::ZERO
                        } else {
                            local[((i >> qb) & 1, (j >> qb) & 1)]
                        }
                    })
                }
            };
            u = full.matmul(&u);
        }
        u
    }

    #[test]
    fn adjacent_hadamards_cancel() {
        let mut c = Circuit::new(1);
        c.push(Gate::H(0));
        c.push(Gate::H(0));
        let (opt, report) = cancel_gates(&c);
        assert!(opt.is_empty());
        assert_eq!(report.removed, 2);
    }

    #[test]
    fn blocked_gates_do_not_cancel() {
        let mut c = Circuit::new(1);
        c.push(Gate::H(0));
        c.push(Gate::Rz(0, 0.5));
        c.push(Gate::H(0));
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.len(), 3);
    }

    #[test]
    fn gates_on_other_qubits_do_not_block() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::X(1));
        c.push(Gate::H(0));
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(opt.gates()[0], Gate::X(1));
    }

    #[test]
    fn cnot_pairs_cancel_when_nothing_blocks() {
        let cx = Gate::Cnot {
            control: 0,
            target: 1,
        };
        let mut c = Circuit::new(2);
        c.push(cx.clone());
        c.push(cx.clone());
        let (opt, _) = cancel_gates(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn cnot_pairs_blocked_by_rotation_on_target_do_not_cancel() {
        let cx = Gate::Cnot {
            control: 0,
            target: 1,
        };
        let mut c = Circuit::new(2);
        c.push(cx.clone());
        c.push(Gate::Rz(1, 0.3));
        c.push(cx.clone());
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.cnot_count(), 2);
    }

    #[test]
    fn cnot_slides_past_diagonal_gate_on_control() {
        let cx = Gate::Cnot {
            control: 0,
            target: 1,
        };
        let mut c = Circuit::new(2);
        c.push(cx.clone());
        c.push(Gate::Rz(0, 0.3));
        c.push(cx.clone());
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.cnot_count(), 0);
        assert_eq!(opt.len(), 1);
        // The optimized circuit must implement the same unitary.
        assert!(unitary(&opt).approx_eq(
            &unitary(&{
                let mut orig = Circuit::new(2);
                orig.push(cx.clone());
                orig.push(Gate::Rz(0, 0.3));
                orig.push(cx);
                orig
            }),
            1e-10
        ));
    }

    #[test]
    fn cnots_sharing_a_target_commute_and_cancel() {
        let a = Gate::Cnot {
            control: 1,
            target: 0,
        };
        let b = Gate::Cnot {
            control: 2,
            target: 0,
        };
        let mut c = Circuit::new(3);
        c.push(a.clone());
        c.push(b.clone());
        c.push(a.clone());
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.cnot_count(), 1);
        assert_eq!(opt.gates()[0], b);
    }

    #[test]
    fn rz_rotations_merge() {
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0, 0.25));
        c.push(Gate::Rz(0, 0.5));
        let (opt, report) = cancel_gates(&c);
        assert_eq!(opt.len(), 1);
        assert_eq!(report.merged_rotations, 1);
        assert_eq!(opt.gates()[0], Gate::Rz(0, 0.75));
    }

    #[test]
    fn opposite_rz_rotations_cancel_entirely() {
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0, 0.25));
        c.push(Gate::Rz(0, -0.25));
        let (opt, _) = cancel_gates(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn s_and_sdg_cancel() {
        let mut c = Circuit::new(1);
        c.push(Gate::S(0));
        c.push(Gate::Sdg(0));
        let (opt, _) = cancel_gates(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn global_phases_fold_together() {
        let mut c = Circuit::new(1);
        c.push(Gate::GlobalPhase(0.25));
        c.push(Gate::H(0));
        c.push(Gate::GlobalPhase(0.5));
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.len(), 2);
        assert!(matches!(opt.gates()[0], Gate::GlobalPhase(p) if (p - 0.75).abs() < 1e-12));
    }

    #[test]
    fn consecutive_identical_pauli_rotations_share_their_ladders() {
        // Two back-to-back exp(i θ ZZZZ) rotations: the facing CNOT ladders and
        // the Rz merge, leaving a single rotation worth of gates.
        let p: PauliString = "ZZZZ".parse().unwrap();
        let mut c = Circuit::new(4);
        synthesis::append_pauli_rotation(&mut c, &p, 0.3);
        synthesis::append_pauli_rotation(&mut c, &p, 0.3);
        assert_eq!(c.cnot_count(), 12);
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.cnot_count(), 6);
        assert_eq!(opt.rz_count(), 1);
        assert!(unitary(&opt).approx_eq(&unitary(&c), 1e-10));
    }

    #[test]
    fn matched_operators_between_different_strings_cancel_cnots() {
        // ZZZZ followed by XZXZ (Fig. 6 of the paper): the CNOTs of the shared
        // Z qubit cancel at the junction even though the strings differ.
        let a: PauliString = "ZZZZ".parse().unwrap();
        let b: PauliString = "XZXZ".parse().unwrap();
        let mut c = Circuit::new(4);
        synthesis::append_pauli_rotation(&mut c, &a, 0.3);
        synthesis::append_pauli_rotation(&mut c, &b, 0.3);
        let before = c.cnot_count();
        let (opt, _) = cancel_gates(&c);
        assert!(
            opt.cnot_count() < before,
            "expected junction CNOT cancellation ({} -> {})",
            before,
            opt.cnot_count()
        );
        assert!(unitary(&opt).approx_eq(&unitary(&c), 1e-10));
    }

    #[test]
    fn optimized_circuit_preserves_the_unitary() {
        let p: PauliString = "XY".parse().unwrap();
        let mut c = Circuit::new(2);
        synthesis::append_pauli_rotation(&mut c, &p, 0.4);
        synthesis::append_pauli_rotation(&mut c, &p, -0.1);
        let (opt, _) = cancel_gates(&c);
        assert!(unitary(&c).approx_eq(&unitary(&opt), 1e-10));
        assert!(opt.gate_count() < c.gate_count());
    }

    #[test]
    fn commutation_relation_is_sound() {
        // Every pair the pass considers commuting must actually commute as
        // matrices on a 3-qubit register.
        let gates = vec![
            Gate::H(0),
            Gate::X(1),
            Gate::Z(0),
            Gate::S(2),
            Gate::Rz(1, 0.3),
            Gate::Rx(2, 0.7),
            Gate::Cnot {
                control: 0,
                target: 1,
            },
            Gate::Cnot {
                control: 2,
                target: 1,
            },
            Gate::Cnot {
                control: 0,
                target: 2,
            },
        ];
        for a in &gates {
            for b in &gates {
                if commutes(a, b) {
                    let mut ab = Circuit::new(3);
                    ab.push(a.clone());
                    ab.push(b.clone());
                    let mut ba = Circuit::new(3);
                    ba.push(b.clone());
                    ba.push(a.clone());
                    assert!(
                        unitary(&ab).approx_eq(&unitary(&ba), 1e-10),
                        "{a} and {b} flagged as commuting but do not commute"
                    );
                }
            }
        }
    }
}
