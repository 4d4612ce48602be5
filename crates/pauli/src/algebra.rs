//! Pauli-algebra utilities above the level of single strings.
//!
//! Deterministic compilation approaches (§3.1) group mutually commutative
//! Pauli strings to reduce Trotter error or enable simultaneous
//! diagonalization. This module provides the commutation analysis those
//! orderings build on, plus the CNOT-count oracle shared by the MarQSim
//! min-cost-flow model and the gate-cancellation post-pass.

use crate::{Hamiltonian, PauliString};

/// Number of CNOT gates between the two `Rz` rotations when the circuit for
/// `exp(iθ P_next)` directly follows the circuit for `exp(iθ P_prev)` and the
/// CNOT-tree cancellation of Gui et al. (Fig. 6 of the paper) is applied.
///
/// Each Pauli-rotation circuit uses a CNOT ladder touching every qubit in the
/// string's support. When both strings apply the *same non-identity operator*
/// on a qubit, the trailing CNOT of the first circuit cancels with the
/// leading CNOT of the second on that qubit. Two identical strings therefore
/// cost `0` CNOTs between their rotations.
///
/// # Panics
///
/// Panics if the strings act on different numbers of qubits.
///
/// # Example
///
/// ```
/// use marqsim_pauli::algebra::cnot_count_between;
/// use marqsim_pauli::PauliString;
///
/// let zzzz: PauliString = "ZZZZ".parse().unwrap();
/// let xzxz: PauliString = "XZXZ".parse().unwrap();
/// // 3 CNOTs close the ZZZZ ladder + 3 open the XZXZ ladder, minus 2·2 cancelled.
/// assert_eq!(cnot_count_between(&zzzz, &xzxz), 2);
/// ```
pub fn cnot_count_between(prev: &PauliString, next: &PauliString) -> usize {
    assert_eq!(
        prev.num_qubits(),
        next.num_qubits(),
        "CNOT count requires equal qubit counts"
    );
    if prev == next {
        // Identical terms merge into a single rotation with doubled angle.
        return 0;
    }
    let ladder = |p: &PauliString| p.weight().saturating_sub(1);
    let matched = prev.matching_support(next);
    // Every qubit where the two strings apply the same non-identity operator
    // has its pair of facing CNOTs cancelled (Fig. 6), bounded by each
    // ladder's size.
    ladder(prev).saturating_sub(matched) + ladder(next).saturating_sub(matched)
}

/// Number of CNOT gates in a standalone Pauli-rotation circuit (both ladders,
/// no neighbour to cancel against).
pub fn cnot_count_standalone(p: &PauliString) -> usize {
    2 * p.weight().saturating_sub(1)
}

/// The symmetric commutation matrix of a Hamiltonian: entry `(i, j)` is
/// `true` iff terms `i` and `j` commute.
pub fn commutation_matrix(ham: &Hamiltonian) -> Vec<Vec<bool>> {
    let n = ham.num_terms();
    let mut m = vec![vec![false; n]; n];
    for i in 0..n {
        m[i][i] = true;
        for j in (i + 1)..n {
            let c = ham.term(i).string.commutes_with(&ham.term(j).string);
            m[i][j] = c;
            m[j][i] = c;
        }
    }
    m
}

/// Greedily partitions the Hamiltonian terms into groups of mutually
/// commutative strings (the grouping used by the "commuting groups" ordering
/// of Gui et al. \[22\] and van den Berg & Temme \[66\]).
///
/// Returns the groups as lists of term indices; every index appears in
/// exactly one group.
pub fn commuting_groups(ham: &Hamiltonian) -> Vec<Vec<usize>> {
    let comm = commutation_matrix(ham);
    let n = ham.num_terms();
    let mut assigned = vec![false; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        if assigned[i] {
            continue;
        }
        let mut group = vec![i];
        assigned[i] = true;
        for j in (i + 1)..n {
            if assigned[j] {
                continue;
            }
            if group.iter().all(|&g| comm[g][j]) {
                group.push(j);
                assigned[j] = true;
            }
        }
        groups.push(group);
    }
    groups
}

/// Fraction of term pairs that commute — a rough indicator of how much the
/// commuting-group optimizations can help on a given Hamiltonian.
pub fn commuting_fraction(ham: &Hamiltonian) -> f64 {
    let n = ham.num_terms();
    if n < 2 {
        return 1.0;
    }
    let comm = commutation_matrix(ham);
    let mut commuting = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += 1;
            if comm[i][j] {
                commuting += 1;
            }
        }
    }
    commuting as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ham(text: &str) -> Hamiltonian {
        Hamiltonian::parse(text).unwrap()
    }

    #[test]
    fn cnot_count_identical_terms_is_zero() {
        let p: PauliString = "XYZZ".parse().unwrap();
        assert_eq!(cnot_count_between(&p, &p), 0);
    }

    #[test]
    fn cnot_count_disjoint_support_has_no_cancellation() {
        let a: PauliString = "XXII".parse().unwrap();
        let b: PauliString = "IIZZ".parse().unwrap();
        assert_eq!(cnot_count_between(&a, &b), 2);
        assert_eq!(cnot_count_standalone(&a), 2);
    }

    #[test]
    fn cnot_count_paper_figure_6_example() {
        // ZZZZ followed by XZXZ share Z on two qubits.
        let a: PauliString = "ZZZZ".parse().unwrap();
        let b: PauliString = "XZXZ".parse().unwrap();
        let full = cnot_count_between(&a, &b);
        assert!(full < cnot_count_standalone(&a) / 2 + cnot_count_standalone(&b) / 2 + 1);
        assert_eq!(full, 2);
    }

    #[test]
    fn cnot_count_is_symmetric() {
        let strings = ["ZZZZ", "XZXZ", "XXYY", "IIIZ", "ZXZY"];
        for a in strings {
            for b in strings {
                let pa: PauliString = a.parse().unwrap();
                let pb: PauliString = b.parse().unwrap();
                assert_eq!(
                    cnot_count_between(&pa, &pb),
                    cnot_count_between(&pb, &pa),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn single_qubit_strings_need_no_cnots() {
        let a: PauliString = "IIXI".parse().unwrap();
        let b: PauliString = "IZII".parse().unwrap();
        assert_eq!(cnot_count_between(&a, &b), 0);
        assert_eq!(cnot_count_standalone(&a), 0);
    }

    #[test]
    fn commutation_matrix_is_symmetric_with_true_diagonal() {
        let h = ham("1.0 XX + 0.5 ZZ + 0.2 XZ + 0.1 ZX");
        let m = commutation_matrix(&h);
        for i in 0..h.num_terms() {
            assert!(m[i][i]);
            for j in 0..h.num_terms() {
                assert_eq!(m[i][j], m[j][i]);
            }
        }
        // XX and ZZ commute; XZ and ZX commute; XX and XZ anticommute.
        assert!(m[0][1]);
        assert!(m[2][3]);
        assert!(!m[0][2]);
    }

    #[test]
    fn commuting_groups_cover_all_terms_exactly_once() {
        let h = ham("1.0 XXI + 0.5 ZZI + 0.2 IXZ + 0.1 ZIX + 0.3 YYY");
        let groups = commuting_groups(&h);
        let mut seen = vec![false; h.num_terms()];
        for g in &groups {
            for &i in g {
                assert!(!seen[i], "term {i} appears twice");
                seen[i] = true;
            }
            // Every pair inside a group commutes.
            for (a_idx, &a) in g.iter().enumerate() {
                for &b in &g[a_idx + 1..] {
                    assert!(h.term(a).string.commutes_with(&h.term(b).string));
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn commuting_fraction_bounds() {
        let all_commute = ham("1.0 ZZ + 0.5 ZI + 0.2 IZ");
        assert!((commuting_fraction(&all_commute) - 1.0).abs() < 1e-12);
        let single = ham("1.0 ZZ");
        assert_eq!(commuting_fraction(&single), 1.0);
        let mixed = ham("1.0 XX + 0.5 ZZ + 0.2 XZ");
        let f = commuting_fraction(&mixed);
        assert!(f > 0.0 && f < 1.0);
    }
}
