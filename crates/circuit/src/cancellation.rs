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
//!
//! # The per-qubit frontier
//!
//! Each fixed-point pass scans the gates in order and, for each gate, walks
//! backwards over the *earlier live gates that share a qubit with it* —
//! never over the rest. Skipping the rest is exact: a global phase or a gate
//! on disjoint qubits always commutes with the current gate, and it can
//! never be its partner, since [`Gate::cancels_with`] is equality or
//! inverse (both keep the qubits) and an `Rz` merge needs the same qubit.
//! So the walk meets the same partners in the same order, and stops at the
//! same blocker, as a walk over every earlier gate.
//!
//! The frontier keeps, per qubit, the indices of the live gates on that
//! qubit in ascending order, in one flat CSR buffer of `u32` (qubit `q`'s
//! list is `slots[start[q]..start[q] + len[q]]`, sized once per pass from
//! the per-qubit gate counts). A single-qubit gate walks its qubit's list
//! newest-first; a CNOT merges its two lists in descending index order,
//! visiting an index both lists share once. A removed partner leaves its
//! lists by a shift of the entries behind it, which the walk has just
//! visited. Between passes the gate list is compacted in place.
//!
//! A pass therefore costs `O(n + Σ w)` for `n` gates, where `w` is the
//! number of same-qubit gates a walk visits (a removal's shift is bounded
//! by its walk). A walk over the whole list costs `O(n + Σ d)` instead,
//! where `d` counts every earlier slot back to the blocker, on any qubit,
//! removed or not. The worst case (a long run of mutually commuting gates
//! on one qubit) stays quadratic, but on synthesized rotation sequences a
//! walk visits about three gates: that is the count on the benchmark's
//! 20-qubit Table 2 circuits, two passes each.

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
    assert!(
        u32::try_from(gates.len()).is_ok(),
        "cancellation indexes gates with u32; {} gates do not fit",
        gates.len()
    );
    let mut live = Vec::new();
    let mut frontier = Frontier::default();
    let mut report = CancellationReport::default();

    loop {
        report.iterations += 1;
        let (removed, merged) =
            frontier_pass(&mut gates, &mut live, &mut frontier, circuit.num_qubits());
        report.removed += removed;
        report.merged_rotations += merged;
        if removed == 0 && merged == 0 {
            break;
        }
        compact(&mut gates, &live);
    }

    // The result outlives the pass: hand back only what it holds.
    gates.shrink_to_fit();
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

/// What the backward walk does at one earlier live gate `prev`.
enum Step {
    /// `prev` commutes with the current gate: keep walking.
    Slide,
    /// `prev` blocks the current gate: stop.
    Block,
    /// `prev` and the current gate annihilate: both go.
    Cancel,
    /// `prev` goes and the current gate becomes this merged `Rz`.
    Merge(Gate),
}

/// The decision rule of the pass, in its order: `Rz` merge on the same
/// qubit, then exact cancellation, then commutation.
fn step(prev: &Gate, current: &Gate) -> Step {
    if let (Gate::Rz(q1, a), Gate::Rz(q2, b)) = (prev, current) {
        if q1 == q2 {
            let sum = a + b;
            return if sum.abs() < 1e-15 {
                Step::Cancel
            } else {
                Step::Merge(Gate::Rz(*q1, sum))
            };
        }
    }
    if prev.cancels_with(current) {
        Step::Cancel
    } else if commutes(prev, current) {
        Step::Slide
    } else {
        Step::Block
    }
}

/// Per-qubit lists of live gate indices, ascending, in one flat CSR buffer:
/// qubit `q`'s list is `slots[start[q]..start[q] + len[q]]`. The segment of
/// `q` has room for every gate of the pass on `q`, so pushes never move it.
#[derive(Default)]
struct Frontier {
    start: Vec<usize>,
    len: Vec<usize>,
    slots: Vec<u32>,
}

impl Frontier {
    /// Empties every list and sizes the segments for `gates`.
    fn reset(&mut self, num_qubits: usize, gates: &[Gate]) {
        self.start.clear();
        self.start.resize(num_qubits + 1, 0);
        for g in gates {
            for q in g.qubits() {
                self.start[q + 1] += 1;
            }
        }
        for q in 0..num_qubits {
            self.start[q + 1] += self.start[q];
        }
        self.len.clear();
        self.len.resize(num_qubits, 0);
        self.slots.resize(self.start[num_qubits], 0);
    }

    fn list(&self, q: usize) -> &[u32] {
        &self.slots[self.start[q]..self.start[q] + self.len[q]]
    }

    fn push(&mut self, q: usize, idx: u32) {
        self.slots[self.start[q] + self.len[q]] = idx;
        self.len[q] += 1;
    }

    /// Removes the entry at position `pos` of qubit `q`'s list.
    fn remove(&mut self, q: usize, pos: usize) {
        let s = self.start[q];
        self.slots
            .copy_within(s + pos + 1..s + self.len[q], s + pos);
        self.len[q] -= 1;
    }
}

/// A cancellation or merge partner found by the walk.
struct Partner {
    /// Its index in the gate list.
    index: usize,
    /// Its position in each of the current gate's qubit lists it is on.
    pos: [Option<usize>; 2],
    /// `None` when the pair annihilates, else the merged `Rz`.
    merged: Option<Gate>,
}

/// Walks the current gate's qubit lists newest-first — for a CNOT, the
/// union of its two lists in descending index order, an index both share
/// visited once — and returns the partner, or `None` at a blocker or when
/// the lists run out.
fn walk(gates: &[Gate], frontier: &Frontier, current: &Gate) -> Option<Partner> {
    let qubits = current.qubits();
    let a = frontier.list(qubits[0]);
    let b = match qubits.get(1) {
        Some(&q) => frontier.list(q),
        None => &[],
    };
    let (mut pa, mut pb) = (a.len(), b.len());
    loop {
        let top_a = pa.checked_sub(1).map(|p| a[p]);
        let top_b = pb.checked_sub(1).map(|p| b[p]);
        // `None` orders below every index, so this is the newer top.
        let index = top_a.max(top_b)?;
        let mut pos = [None, None];
        if top_a == Some(index) {
            pa -= 1;
            pos[0] = Some(pa);
        }
        if top_b == Some(index) {
            pb -= 1;
            pos[1] = Some(pb);
        }
        let index = index as usize;
        let merged = match step(&gates[index], current) {
            Step::Slide => continue,
            Step::Block => return None,
            Step::Cancel => None,
            Step::Merge(rz) => Some(rz),
        };
        return Some(Partner { index, pos, merged });
    }
}

/// One scan in gate order over a compacted list: each gate walks back over
/// the frontier for a partner, then joins the frontier if it survives.
/// Marks removed gates `false` in `live` and returns `(removed, merged)`.
fn frontier_pass(
    gates: &mut [Gate],
    live: &mut Vec<bool>,
    frontier: &mut Frontier,
    num_qubits: usize,
) -> (usize, usize) {
    live.clear();
    live.resize(gates.len(), true);
    frontier.reset(num_qubits, gates);
    let mut removed = 0usize;
    let mut merged = 0usize;
    let mut phase_slot: Option<usize> = None;

    for idx in 0..gates.len() {
        let current = gates[idx];
        if let Gate::GlobalPhase(phi) = current {
            match phase_slot {
                None => phase_slot = Some(idx),
                Some(slot) => {
                    if let Gate::GlobalPhase(prev) = gates[slot] {
                        gates[slot] = Gate::GlobalPhase(prev + phi);
                        live[idx] = false;
                        removed += 1;
                    }
                }
            }
            continue;
        }

        let qubits = current.qubits();
        if let Some(partner) = walk(gates, frontier, &current) {
            live[partner.index] = false;
            for (&q, pos) in qubits.iter().zip(partner.pos) {
                if let Some(pos) = pos {
                    frontier.remove(q, pos);
                }
            }
            match partner.merged {
                None => {
                    live[idx] = false;
                    removed += 2;
                    continue;
                }
                Some(rz) => {
                    gates[idx] = rz;
                    removed += 1;
                    merged += 1;
                }
            }
        }
        for q in qubits {
            frontier.push(q, idx as u32);
        }
    }
    (removed, merged)
}

/// Drops the gates marked dead, in place and in order.
fn compact(gates: &mut Vec<Gate>, live: &[bool]) {
    let mut kept = 0;
    for idx in 0..gates.len() {
        if live[idx] {
            gates[kept] = gates[idx];
            kept += 1;
        }
    }
    gates.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis;
    use marqsim_linalg::{Complex, Matrix};
    use marqsim_pauli::{PauliOp, PauliString};
    use quickprop::{check, Config, Gen};

    /// The pass before the frontier: every gate walks back over every
    /// earlier live gate, and each iteration re-collects `Option` slots.
    /// Kept as the oracle the frontier pass must match bit for bit.
    fn reference_cancel(circuit: &Circuit) -> (Vec<Gate>, CancellationReport) {
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
        (gates, report)
    }

    /// One linear scan: for each gate, walk backwards over commuting gates
    /// looking for a cancellation/merge partner; stop at the first blocking
    /// gate.
    fn single_pass(gates: &mut [Option<Gate>]) -> (usize, usize) {
        let len = gates.len();
        let mut removed = 0usize;
        let mut merged = 0usize;
        let mut phase_slot: Option<usize> = None;

        for idx in 0..len {
            let Some(current) = gates[idx] else {
                continue;
            };
            if let Gate::GlobalPhase(phi) = current {
                match phase_slot {
                    None => phase_slot = Some(idx),
                    Some(slot) => {
                        if let Some(Gate::GlobalPhase(prev)) = gates[slot] {
                            gates[slot] = Some(Gate::GlobalPhase(prev + phi));
                            gates[idx] = None;
                            removed += 1;
                        }
                    }
                }
                continue;
            }

            for j in (0..idx).rev() {
                let Some(prev) = gates[j] else {
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
        c.push(cx);
        c.push(cx);
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
        c.push(cx);
        c.push(Gate::Rz(1, 0.3));
        c.push(cx);
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
        c.push(cx);
        c.push(Gate::Rz(0, 0.3));
        c.push(cx);
        let (opt, _) = cancel_gates(&c);
        assert_eq!(opt.cnot_count(), 0);
        assert_eq!(opt.len(), 1);
        // The optimized circuit must implement the same unitary.
        assert!(unitary(&opt).approx_eq(
            &unitary(&{
                let mut orig = Circuit::new(2);
                orig.push(cx);
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
        c.push(a);
        c.push(b);
        c.push(a);
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

    /// Every gate variant on a 3-qubit register: the Clifford singles and
    /// rotations at 0, ±0.3 and π on each qubit, a global phase, and CNOT in
    /// all six orientations.
    fn every_gate_on_three_qubits() -> Vec<Gate> {
        let angles = [0.0, 0.3, -0.3, std::f64::consts::PI];
        let mut gates = Vec::new();
        for q in 0..3 {
            gates.extend([
                Gate::H(q),
                Gate::X(q),
                Gate::Y(q),
                Gate::Z(q),
                Gate::S(q),
                Gate::Sdg(q),
            ]);
            for &theta in &angles {
                gates.extend([Gate::Rx(q, theta), Gate::Ry(q, theta), Gate::Rz(q, theta)]);
            }
        }
        gates.push(Gate::GlobalPhase(0.4));
        for control in 0..3 {
            for target in 0..3 {
                if control != target {
                    gates.push(Gate::Cnot { control, target });
                }
            }
        }
        gates
    }

    #[test]
    fn commutation_relation_is_sound() {
        // Every pair the pass considers commuting must actually commute as
        // matrices on a 3-qubit register — the frontier's exactness rests
        // on it.
        let gates = every_gate_on_three_qubits();
        assert_eq!(gates.len(), 3 * (6 + 3 * 4) + 1 + 6);
        let mut commuting = 0;
        for a in &gates {
            for b in &gates {
                if commutes(a, b) {
                    commuting += 1;
                    let mut ab = Circuit::new(3);
                    ab.push(*a);
                    ab.push(*b);
                    let mut ba = Circuit::new(3);
                    ba.push(*b);
                    ba.push(*a);
                    assert!(
                        unitary(&ab).approx_eq(&unitary(&ba), 1e-10),
                        "{a} and {b} flagged as commuting but do not commute"
                    );
                }
            }
        }
        // Not vacuous: disjoint pairs alone commute, and so do some
        // overlapping ones (diagonal past a control, CNOTs sharing a target).
        assert!(commuting > gates.len() * gates.len() / 2, "{commuting}");
        let cx = |control, target| Gate::Cnot { control, target };
        assert!(commutes(&Gate::Rz(0, 0.3), &cx(0, 1)));
        assert!(commutes(&Gate::Rx(1, 0.3), &cx(0, 1)));
        assert!(commutes(&cx(1, 0), &cx(2, 0)));
        assert!(!commutes(&cx(0, 1), &cx(1, 2)));
    }

    /// `(kind, qubit or control, target or angle bits)` of a gate, so a
    /// comparison of gate lists compares angles with `to_bits`.
    fn gate_bits(g: &Gate) -> (u8, usize, u64) {
        match *g {
            Gate::H(q) => (0, q, 0),
            Gate::X(q) => (1, q, 0),
            Gate::Y(q) => (2, q, 0),
            Gate::Z(q) => (3, q, 0),
            Gate::S(q) => (4, q, 0),
            Gate::Sdg(q) => (5, q, 0),
            Gate::Rx(q, t) => (6, q, t.to_bits()),
            Gate::Ry(q, t) => (7, q, t.to_bits()),
            Gate::Rz(q, t) => (8, q, t.to_bits()),
            Gate::Cnot { control, target } => (9, control, target as u64),
            Gate::GlobalPhase(p) => (10, 0, p.to_bits()),
        }
    }

    /// A random circuit on 1–8 qubits: synthesized rotations over a small
    /// pool of Pauli strings (so facing CNOT ladders meet), random single
    /// gates and CNOTs, global phases, and `Rz` pairs whose sum lands just
    /// inside or just outside the `1e-15` cut.
    fn random_circuit(g: &mut Gen) -> Circuit {
        const OPS: [PauliOp; 4] = [PauliOp::I, PauliOp::X, PauliOp::Y, PauliOp::Z];
        const ANGLES: [f64; 6] = [0.0, 0.3, -0.3, 0.7, -0.7, 1.1];
        const CUT_OFFSETS: [f64; 8] = [0.0, 5e-16, -5e-16, 9e-16, -9e-16, 1.1e-15, -1.1e-15, 2e-15];
        let n = g.usize_in(1..9);
        let pool: Vec<PauliString> = (0..g.usize_in(1..4))
            .map(|_| PauliString::from_ops((0..n).map(|_| *g.choose(&OPS)).collect()))
            .collect();
        let mut c = Circuit::new(n);
        for _ in 0..g.usize_in(0..40) {
            let q = g.usize_in(0..n);
            match g.usize_in(0..6) {
                0 | 1 => {
                    let p = g.choose(&pool).clone();
                    synthesis::append_pauli_rotation(&mut c, &p, *g.choose(&ANGLES));
                }
                2 => {
                    let theta = *g.choose(&ANGLES);
                    let single = [
                        Gate::H(q),
                        Gate::X(q),
                        Gate::Y(q),
                        Gate::Z(q),
                        Gate::S(q),
                        Gate::Sdg(q),
                        Gate::Rx(q, theta),
                        Gate::Ry(q, theta),
                        Gate::Rz(q, theta),
                    ];
                    c.push(*g.choose(&single));
                }
                3 if n >= 2 => {
                    let target = (q + g.usize_in(1..n)) % n;
                    c.push(Gate::Cnot { control: q, target });
                }
                4 => c.push(Gate::GlobalPhase(*g.choose(&ANGLES))),
                _ => {
                    let a = g.f64_in(-1.5, 1.5);
                    c.push(Gate::Rz(q, a));
                    if g.bool(0.5) {
                        // Something the second rotation slides past.
                        c.push(Gate::Z(q));
                    }
                    c.push(Gate::Rz(q, -a + *g.choose(&CUT_OFFSETS)));
                }
            }
        }
        c
    }

    #[test]
    fn frontier_pass_matches_the_reference_pass() {
        // 300 cases by default; an explicit QUICKPROP_CASES (the CI soak)
        // wins.
        let config = if std::env::var_os("QUICKPROP_CASES").is_some() {
            Config::default()
        } else {
            Config::default().with_cases(300)
        };
        check(
            "frontier cancellation equals the reference pass",
            config.with_seed(0xCA7CE1),
            random_circuit,
            |circuit| {
                let (opt, report) = cancel_gates(circuit);
                let (want, want_report) = reference_cancel(circuit);
                if report != want_report {
                    return Err(format!("report {report:?}, reference {want_report:?}"));
                }
                let got: Vec<_> = opt.gates().iter().map(gate_bits).collect();
                let want: Vec<_> = want.iter().map(gate_bits).collect();
                if got != want {
                    return Err(format!("gates {got:?}\nreference {want:?}"));
                }
                if opt.num_qubits() != circuit.num_qubits() {
                    return Err("register size changed".into());
                }
                Ok(())
            },
        );
    }
}
