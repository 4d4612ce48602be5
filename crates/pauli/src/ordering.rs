//! Deterministic Hamiltonian-term orderings.
//!
//! The deterministic compilation approaches of §3.1 fix one order of the
//! Hamiltonian terms inside a Trotter step and repeat it. This module
//! provides the orderings used by the baselines in the evaluation:
//!
//! * [`lexicographic`] — the lexical ordering explored by Hastings et al. and
//!   Gui et al. for gate cancellation.
//! * [`by_magnitude`] — terms sorted by descending `|h_j|`.
//! * [`greedy_cancellation`] — a nearest-neighbour ordering that greedily
//!   maximizes CNOT cancellation between consecutive terms (a
//!   travelling-salesperson-style heuristic as in Gui et al. \[22\]).
//! * [`commuting_groups_first`] — groups mutually commutative terms and
//!   concatenates the groups.

use crate::algebra::{cnot_count_between, commuting_groups};
use crate::Hamiltonian;

/// Lexicographic ordering of the Pauli-string text (ties broken by
/// descending coefficient magnitude).
pub fn lexicographic(ham: &Hamiltonian) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ham.num_terms()).collect();
    order.sort_by(|&a, &b| {
        let sa = ham.term(a).string.to_string();
        let sb = ham.term(b).string.to_string();
        sa.cmp(&sb).then_with(|| {
            ham.term(b)
                .coefficient
                .abs()
                .partial_cmp(&ham.term(a).coefficient.abs())
                .expect("coefficients are finite")
        })
    });
    order
}

/// Terms ordered by descending coefficient magnitude.
pub fn by_magnitude(ham: &Hamiltonian) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ham.num_terms()).collect();
    order.sort_by(|&a, &b| {
        ham.term(b)
            .coefficient
            .abs()
            .partial_cmp(&ham.term(a).coefficient.abs())
            .expect("coefficients are finite")
    });
    order
}

/// Greedy nearest-neighbour ordering minimizing the CNOT count between
/// consecutive terms. Starts from the term with the largest coefficient.
pub fn greedy_cancellation(ham: &Hamiltonian) -> Vec<usize> {
    let n = ham.num_terms();
    if n == 0 {
        return Vec::new();
    }
    let start = by_magnitude(ham)[0];
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    order.push(start);
    used[start] = true;
    while order.len() < n {
        let last = *order.last().expect("order is non-empty");
        let mut best: Option<(usize, usize)> = None;
        for j in 0..n {
            if used[j] {
                continue;
            }
            let cost = cnot_count_between(&ham.term(last).string, &ham.term(j).string);
            match best {
                None => best = Some((j, cost)),
                Some((_, best_cost)) if cost < best_cost => best = Some((j, cost)),
                _ => {}
            }
        }
        let (next, _) = best.expect("there is at least one unused term");
        order.push(next);
        used[next] = true;
    }
    order
}

/// Orders terms so that mutually commutative groups appear contiguously
/// (groups themselves ordered by total coefficient weight, descending).
pub fn commuting_groups_first(ham: &Hamiltonian) -> Vec<usize> {
    let mut groups = commuting_groups(ham);
    groups.sort_by(|a, b| {
        let wa: f64 = a.iter().map(|&i| ham.term(i).coefficient.abs()).sum();
        let wb: f64 = b.iter().map(|&i| ham.term(i).coefficient.abs()).sum();
        wb.partial_cmp(&wa).expect("weights are finite")
    });
    groups.into_iter().flatten().collect()
}

/// Total CNOT count between consecutive terms when the given order is
/// traversed once (the quantity the greedy ordering minimizes).
pub fn order_cnot_cost(ham: &Hamiltonian, order: &[usize]) -> usize {
    order
        .windows(2)
        .map(|w| cnot_count_between(&ham.term(w[0]).string, &ham.term(w[1]).string))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ham() -> Hamiltonian {
        Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY + 0.3 ZZII + 0.2 XXII")
            .unwrap()
    }

    fn assert_permutation(order: &[usize], n: usize) {
        let mut seen = vec![false; n];
        for &i in order {
            assert!(i < n);
            assert!(!seen[i], "index {i} repeated");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn all_orderings_are_permutations() {
        let h = ham();
        for order in [
            lexicographic(&h),
            by_magnitude(&h),
            greedy_cancellation(&h),
            commuting_groups_first(&h),
        ] {
            assert_permutation(&order, h.num_terms());
        }
    }

    #[test]
    fn lexicographic_sorts_by_string() {
        let h = ham();
        let order = lexicographic(&h);
        let strings: Vec<String> = order
            .iter()
            .map(|&i| h.term(i).string.to_string())
            .collect();
        let mut sorted = strings.clone();
        sorted.sort();
        assert_eq!(strings, sorted);
    }

    #[test]
    fn by_magnitude_is_descending() {
        let h = ham();
        let order = by_magnitude(&h);
        let mags: Vec<f64> = order.iter().map(|&i| h.term(i).coefficient.abs()).collect();
        for w in mags.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(order[0], 0, "largest coefficient term first");
    }

    #[test]
    fn greedy_is_no_worse_than_original_order_here() {
        let h = ham();
        let greedy = greedy_cancellation(&h);
        let original: Vec<usize> = (0..h.num_terms()).collect();
        assert!(order_cnot_cost(&h, &greedy) <= order_cnot_cost(&h, &original));
    }

    #[test]
    fn commuting_groups_first_keeps_groups_contiguous() {
        let h = ham();
        let order = commuting_groups_first(&h);
        assert_permutation(&order, h.num_terms());
    }

    #[test]
    fn order_cost_of_single_term_is_zero() {
        let h = Hamiltonian::parse("1.0 XX").unwrap();
        assert_eq!(order_cnot_cost(&h, &[0]), 0);
    }
}
