//! The circuit container.

use std::fmt;

use crate::{Gate, GateStats};

/// An ordered list of gates acting on a fixed number of qubits.
///
/// Gates are applied in list order: `circuit.gates()[0]` is the first gate
/// applied to the initial state.
///
/// # Example
///
/// ```
/// use marqsim_circuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H(0));
/// c.push(Gate::Cnot { control: 0, target: 1 });
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.cnot_count(), 1);
/// assert_eq!(c.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of gates (global phases included).
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit contains no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gates in application order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a qubit outside the register, or is a
    /// CNOT whose control is its target.
    pub fn push(&mut self, gate: Gate) {
        check_gate(self.num_qubits, &gate);
        self.gates.push(gate);
    }

    /// Appends every gate of `other` to this circuit.
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than this circuit.
    pub fn append(&mut self, other: &Circuit) {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot append a {}-qubit circuit to a {}-qubit circuit",
            other.num_qubits,
            self.num_qubits
        );
        self.gates.extend_from_slice(&other.gates);
    }

    /// Iterator over the gates.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Number of CNOT gates.
    pub fn cnot_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of single-qubit gates (global phases excluded).
    pub fn single_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_single_qubit()).count()
    }

    /// Number of `Rz` rotations.
    pub fn rz_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Rz(_, _)))
            .count()
    }

    /// Total gate count excluding global phases.
    pub fn gate_count(&self) -> usize {
        self.cnot_count() + self.single_qubit_count()
    }

    /// Circuit depth: the length of the longest chain of gates where each
    /// pair shares a qubit (global phases contribute no depth).
    pub fn depth(&self) -> usize {
        let mut per_qubit = vec![0usize; self.num_qubits];
        for g in &self.gates {
            let qs = g.qubits();
            if qs.is_empty() {
                continue;
            }
            let level = qs.iter().map(|&q| per_qubit[q]).max().unwrap_or(0) + 1;
            for q in qs {
                per_qubit[q] = level;
            }
        }
        per_qubit.into_iter().max().unwrap_or(0)
    }

    /// Gate-count and depth statistics.
    pub fn stats(&self) -> GateStats {
        GateStats {
            cnot: self.cnot_count(),
            single_qubit: self.single_qubit_count(),
            rz: self.rz_count(),
            total: self.gate_count(),
            depth: self.depth(),
        }
    }

    /// Consumes the circuit and returns the gate list.
    pub fn into_gates(self) -> Vec<Gate> {
        self.gates
    }

    /// Rebuilds a circuit from a gate list (used by optimization passes).
    /// The gates are validated in place and `gates` becomes the circuit's
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics if a gate addresses a qubit outside the register, or is a CNOT
    /// whose control is its target.
    pub fn from_gates(num_qubits: usize, gates: Vec<Gate>) -> Self {
        for g in &gates {
            check_gate(num_qubits, g);
        }
        Circuit { num_qubits, gates }
    }
}

/// The register check shared by [`Circuit::push`] and
/// [`Circuit::from_gates`]: every qubit in range, and a CNOT acts on two
/// distinct qubits.
fn check_gate(num_qubits: usize, gate: &Gate) {
    for q in gate.qubits() {
        assert!(
            q < num_qubits,
            "gate {gate} addresses qubit {q} but the circuit has {num_qubits} qubits"
        );
    }
    if let Gate::Cnot { control, target } = *gate {
        assert!(
            control != target,
            "gate {gate} addresses qubit {control} as both control and target"
        );
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit on {} qubits, {} gates:",
            self.num_qubits,
            self.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell_pair() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        c
    }

    #[test]
    fn counts_and_stats() {
        let c = bell_pair();
        assert_eq!(c.len(), 2);
        assert_eq!(c.cnot_count(), 1);
        assert_eq!(c.single_qubit_count(), 1);
        assert_eq!(c.rz_count(), 0);
        assert_eq!(c.gate_count(), 2);
        let stats = c.stats();
        assert_eq!(stats.total, 2);
        assert_eq!(stats.depth, 2);
    }

    #[test]
    fn depth_accounts_for_parallel_gates() {
        let mut c = Circuit::new(4);
        c.push(Gate::H(0));
        c.push(Gate::H(1));
        c.push(Gate::H(2));
        c.push(Gate::H(3));
        assert_eq!(c.depth(), 1);
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
        c.push(Gate::Cnot {
            control: 2,
            target: 3,
        });
        assert_eq!(c.depth(), 2);
        c.push(Gate::Cnot {
            control: 1,
            target: 2,
        });
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn global_phase_does_not_affect_depth_or_counts() {
        let mut c = bell_pair();
        c.push(Gate::GlobalPhase(0.3));
        assert_eq!(c.depth(), 2);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn append_concatenates() {
        let mut c = Circuit::new(3);
        c.append(&bell_pair());
        c.append(&bell_pair());
        assert_eq!(c.len(), 4);
        assert_eq!(c.cnot_count(), 2);
    }

    #[test]
    #[should_panic(expected = "addresses qubit")]
    fn push_rejects_out_of_range_qubits() {
        let mut c = Circuit::new(1);
        c.push(Gate::Cnot {
            control: 0,
            target: 1,
        });
    }

    #[test]
    #[should_panic(expected = "addresses qubit")]
    fn from_gates_rejects_out_of_range_qubits() {
        Circuit::from_gates(2, vec![Gate::H(0), Gate::Rz(2, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "as both control and target")]
    fn push_rejects_self_targeting_cnots() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot {
            control: 1,
            target: 1,
        });
    }

    #[test]
    #[should_panic(expected = "as both control and target")]
    fn from_gates_rejects_self_targeting_cnots() {
        Circuit::from_gates(
            3,
            vec![
                Gate::H(0),
                Gate::Cnot {
                    control: 2,
                    target: 2,
                },
            ],
        );
    }

    #[test]
    fn from_gates_round_trip() {
        let c = bell_pair();
        let rebuilt = Circuit::from_gates(2, c.clone().into_gates());
        assert_eq!(c, rebuilt);
    }

    #[test]
    fn empty_circuit_has_zero_depth() {
        let c = Circuit::new(5);
        assert!(c.is_empty());
        assert_eq!(c.depth(), 0);
        assert_eq!(c.stats().total, 0);
    }
}
