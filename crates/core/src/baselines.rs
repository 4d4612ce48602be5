//! Deterministic and randomized Trotter baselines (§3.1–3.2).
//!
//! These comparators are not part of MarQSim itself, but the paper motivates
//! the framework against them and the examples/benches use them to show
//! where each approach sits:
//!
//! * [`trotter_sequence`] — first-order Trotter with a fixed term order
//!   repeated `r` times (Equation (6)).
//! * [`random_order_trotter_sequence`] — Childs et al. style: a fresh random
//!   permutation of the terms in every Trotter step.
//!
//! Both return term-index sequences plus the per-term angles, in the same
//! format the MarQSim metrics consume, so gate statistics and fidelity can be
//! compared apples-to-apples.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use marqsim_pauli::{Hamiltonian, PauliString};

use crate::metrics::{rotation_fidelity, ReferenceCell};

/// A compiled baseline: the ordered rotations `(string, angle)` plus the
/// term-index sequence they came from.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Term indices in execution order (length `terms × steps`).
    pub sequence: Vec<usize>,
    /// Rotation angles, one per entry of `sequence`
    /// (`h_j · t / steps` for Trotter).
    pub angles: Vec<f64>,
    /// Number of Trotter steps used.
    pub steps: usize,
}

impl BaselineResult {
    /// The rotations as `(PauliString, angle)` pairs.
    pub fn rotation_sequence(&self, ham: &Hamiltonian) -> Vec<(PauliString, f64)> {
        self.sequence
            .iter()
            .zip(self.angles.iter())
            .map(|(&idx, &angle)| (ham.term(idx).string.clone(), angle))
            .collect()
    }
}

/// First-order Trotter with a caller-chosen term order, repeated `steps`
/// times: `(Π_j exp(i h_j H_j t / steps))^steps`.
///
/// # Panics
///
/// Panics if `steps == 0` or `order` is not a permutation of the term
/// indices.
pub fn trotter_sequence(
    ham: &Hamiltonian,
    t: f64,
    steps: usize,
    order: &[usize],
) -> BaselineResult {
    assert!(steps > 0, "need at least one Trotter step");
    assert_eq!(order.len(), ham.num_terms(), "order must cover every term");
    let mut seen = vec![false; ham.num_terms()];
    for &i in order {
        assert!(!seen[i], "order must be a permutation");
        seen[i] = true;
    }
    let mut sequence = Vec::with_capacity(steps * order.len());
    let mut angles = Vec::with_capacity(steps * order.len());
    for _ in 0..steps {
        for &idx in order {
            sequence.push(idx);
            angles.push(ham.term(idx).coefficient * t / steps as f64);
        }
    }
    BaselineResult {
        sequence,
        angles,
        steps,
    }
}

/// First-order Trotter in the Hamiltonian's natural term order.
pub fn trotter_sequence_natural(ham: &Hamiltonian, t: f64, steps: usize) -> BaselineResult {
    let order: Vec<usize> = (0..ham.num_terms()).collect();
    trotter_sequence(ham, t, steps, &order)
}

/// Randomized-order Trotter (Childs et al. [9]): every Trotter step uses a
/// fresh uniformly random permutation of the terms.
///
/// # Panics
///
/// Panics if `steps == 0`.
pub fn random_order_trotter_sequence(
    ham: &Hamiltonian,
    t: f64,
    steps: usize,
    seed: u64,
) -> BaselineResult {
    assert!(steps > 0, "need at least one Trotter step");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sequence = Vec::with_capacity(steps * ham.num_terms());
    let mut angles = Vec::with_capacity(steps * ham.num_terms());
    let mut order: Vec<usize> = (0..ham.num_terms()).collect();
    for _ in 0..steps {
        order.shuffle(&mut rng);
        for &idx in &order {
            sequence.push(idx);
            angles.push(ham.term(idx).coefficient * t / steps as f64);
        }
    }
    BaselineResult {
        sequence,
        angles,
        steps,
    }
}

/// Evaluates the unitary fidelity of a baseline result against the exact
/// evolution (the baseline analogue of
/// [`crate::metrics::evaluate_fidelity`]).
pub fn evaluate_baseline_fidelity(ham: &Hamiltonian, t: f64, baseline: &BaselineResult) -> f64 {
    let rotations = baseline
        .sequence
        .iter()
        .zip(baseline.angles.iter())
        .map(|(&idx, &angle)| (&ham.term(idx).string, angle));
    rotation_fidelity(ham, t, rotations, &ReferenceCell::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::sequence_stats;
    use marqsim_pauli::ordering;

    fn ham() -> Hamiltonian {
        Hamiltonian::parse("0.6 XZI + 0.4 ZYI + 0.3 XXZ + 0.2 IZZ").unwrap()
    }

    #[test]
    fn trotter_sequence_has_expected_shape() {
        let h = ham();
        let result = trotter_sequence_natural(&h, 0.5, 3);
        assert_eq!(result.sequence.len(), 12);
        assert_eq!(result.angles.len(), 12);
        // Angles of a given term are h_j t / steps.
        assert!((result.angles[0] - 0.6 * 0.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn trotter_fidelity_improves_with_more_steps() {
        let h = ham();
        let t = 0.8;
        let coarse = evaluate_baseline_fidelity(&h, t, &trotter_sequence_natural(&h, t, 1));
        let fine = evaluate_baseline_fidelity(&h, t, &trotter_sequence_natural(&h, t, 20));
        assert!(fine > coarse);
        assert!(fine > 0.999);
    }

    #[test]
    fn random_order_trotter_is_seeded_and_valid() {
        let h = ham();
        let a = random_order_trotter_sequence(&h, 0.5, 4, 7);
        let b = random_order_trotter_sequence(&h, 0.5, 4, 7);
        assert_eq!(a.sequence, b.sequence);
        let c = random_order_trotter_sequence(&h, 0.5, 4, 8);
        assert_ne!(a.sequence, c.sequence);
        // Every step is a permutation of the terms.
        for step in 0..4 {
            let mut slice: Vec<usize> = a.sequence[step * 4..(step + 1) * 4].to_vec();
            slice.sort_unstable();
            assert_eq!(slice, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn random_order_trotter_reaches_good_fidelity() {
        let h = ham();
        let t = 0.6;
        let result = random_order_trotter_sequence(&h, t, 25, 3);
        let f = evaluate_baseline_fidelity(&h, t, &result);
        assert!(f > 0.999, "fidelity {f}");
    }

    #[test]
    fn greedy_ordering_reduces_trotter_cnot_cost() {
        // A deterministic ordering chosen for cancellation should not be
        // worse than the natural order under the sequence metric.
        let h = Hamiltonian::parse(
            "0.9 ZZZZ + 0.8 ZZIZ + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY + 0.3 IZIZ + 0.2 YYII",
        )
        .unwrap();
        let natural = trotter_sequence_natural(&h, 0.5, 10);
        let greedy_order = ordering::greedy_cancellation(&h);
        let greedy = trotter_sequence(&h, 0.5, 10, &greedy_order);
        let natural_stats = sequence_stats(&h, &natural.sequence);
        let greedy_stats = sequence_stats(&h, &greedy.sequence);
        assert!(greedy_stats.cnot <= natural_stats.cnot);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn non_permutation_order_is_rejected() {
        let h = ham();
        let _ = trotter_sequence(&h, 0.5, 1, &[0, 0, 1, 2]);
    }
}
