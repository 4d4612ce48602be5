//! The gate-cancellation transition matrix `P_gc` (§5.1–5.2, Algorithm 2).
//!
//! The min-cost-flow model routes one unit of probability mass through a
//! bipartite network whose outer-edge capacities are the stationary
//! distribution `π = |h| / λ` and whose inner-edge costs are the number of
//! CNOT gates left between consecutive Pauli-rotation circuits. Normalizing
//! each row of the optimal flow by `π_i` yields a transition matrix that (by
//! Theorem 5.1) preserves `π`, and whose sampled sequences minimize the
//! expected CNOT count (Proposition 5.1).
//!
//! Self-edges are excluded to rule out the trivial identity solution; any
//! term carrying more than half of the total weight is split in two first
//! (Appendix A.3), mirroring `Hamiltonian::split_dominant_terms`.

use marqsim_flow::bipartite::{self, BipartiteFlow};
use marqsim_flow::{SolverKind, SpanningBasis};
use marqsim_markov::TransitionMatrix;
use marqsim_pauli::algebra::cnot_count_between;
use marqsim_pauli::Hamiltonian;

use crate::CompileError;

/// The CNOT-count cost matrix used by the min-cost-flow model: entry
/// `(i, j)` is the number of CNOTs between the circuits of terms `i` and `j`
/// after pairwise cancellation.
pub fn cnot_cost_matrix(ham: &Hamiltonian) -> Vec<Vec<f64>> {
    let n = ham.num_terms();
    let mut costs = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                costs[i][j] = cnot_count_between(&ham.term(i).string, &ham.term(j).string) as f64;
            }
        }
    }
    costs
}

/// Solves the min-cost-flow model for a Hamiltonian with an arbitrary cost
/// matrix under the `solver` backend, optionally warm-started from a saved
/// basis, and returns the transition matrix, the optimal flow (whose
/// `cost` is the model's objective) and the basis the solve ends on
/// (`None` for backends without warm support).
///
/// The flow network's topology depends only on `π` and the excluded
/// diagonal, both fixed by the Hamiltonian, so any basis solved for `ham`
/// can warm-start a solve for `ham` under a different cost matrix — the
/// `P_rp` perturbed-cost shape. A mismatched basis or a backend without
/// warm support degrades to a cold solve ([`BipartiteFlow::warm_start`]
/// reports what happened); errors are classified identically either way.
///
/// # Errors
///
/// Returns [`CompileError::Flow`] if the transportation problem is
/// infeasible, or [`CompileError::Transition`] if the extracted matrix fails
/// validation.
pub fn matrix_from_costs(
    ham: &Hamiltonian,
    costs: &[Vec<f64>],
    solver: SolverKind,
    warm: Option<&SpanningBasis>,
) -> Result<(TransitionMatrix, BipartiteFlow, Option<SpanningBasis>), CompileError> {
    let pi = ham.stationary_distribution();
    let (flow, basis) = bipartite::solve(solver, &pi, costs, |i, j| i != j, warm)?;
    let matrix = matrix_from_flow(ham, &pi, &flow)?;
    Ok((matrix, flow, basis))
}

/// Converts an optimal bipartite flow into the transition matrix
/// `p_ij = f_ij / π_i` (§5.1.2), renormalizing each row against round-off.
fn matrix_from_flow(
    ham: &Hamiltonian,
    pi: &[f64],
    flow: &BipartiteFlow,
) -> Result<TransitionMatrix, CompileError> {
    let n = ham.num_terms();
    let mut rows = vec![vec![0.0; n]; n];
    for i in 0..n {
        let denom = pi[i];
        for j in 0..n {
            rows[i][j] = if denom > 0.0 {
                flow.flows[i][j] / denom
            } else {
                0.0
            };
        }
        // Guard against round-off: renormalize the row exactly.
        let sum: f64 = rows[i].iter().sum();
        if sum > 0.0 {
            for v in rows[i].iter_mut() {
                *v /= sum;
            }
        } else {
            rows[i][i] = 1.0;
        }
    }
    Ok(TransitionMatrix::new(rows)?)
}

/// Builds `P_gc` for a Hamiltonian (Algorithm 2) under the default solver
/// backend.
///
/// The Hamiltonian must not have a term with more than half the total weight;
/// call [`Hamiltonian::split_dominant_terms`] first if it does (the
/// [`crate::Compiler`] does this automatically).
///
/// # Errors
///
/// See [`matrix_from_costs`].
pub fn gate_cancellation_matrix(ham: &Hamiltonian) -> Result<TransitionMatrix, CompileError> {
    gate_cancellation_matrix_with(ham, SolverKind::default()).map(|(matrix, _, _)| matrix)
}

/// Builds `P_gc` under an explicit min-cost-flow backend: the CNOT-count
/// model solved cold by [`matrix_from_costs`]. Also returns the optimal
/// flow — by Proposition 5.1 its `cost` is the expected CNOT count per
/// transition under `(π, P_gc)` — and the backend's optimal basis (`None`
/// for `ssp`). The engine's transition cache persists that basis next to
/// `P_gc` so the `P_rp` perturbation samples — same network topology,
/// perturbed costs — can be solved as warm re-pivots.
///
/// # Errors
///
/// See [`matrix_from_costs`].
pub fn gate_cancellation_matrix_with(
    ham: &Hamiltonian,
    solver: SolverKind,
) -> Result<(TransitionMatrix, BipartiteFlow, Option<SpanningBasis>), CompileError> {
    matrix_from_costs(ham, &cnot_cost_matrix(ham), solver, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Hamiltonian {
        Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap()
    }

    #[test]
    fn paper_example_5_1_transition_matrix() {
        // Equation (14): the dominant term spreads over the rest proportional
        // to π, every other term returns to the dominant term.
        let p = gate_cancellation_matrix(&example()).unwrap();
        let expected = [
            [0.0, 0.5, 0.4, 0.1],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ];
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (p.prob(i, j) - expected[i][j]).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    p.prob(i, j),
                    expected[i][j]
                );
            }
        }
    }

    #[test]
    fn preserves_the_stationary_distribution() {
        let ham = example();
        let p = gate_cancellation_matrix(&ham).unwrap();
        assert!(p.preserves_distribution(&ham.stationary_distribution(), 1e-9));
    }

    #[test]
    fn diagonal_is_zero() {
        let ham = example();
        let p = gate_cancellation_matrix(&ham).unwrap();
        for i in 0..ham.num_terms() {
            assert!(p.prob(i, i).abs() < 1e-12);
        }
    }

    #[test]
    fn objective_equals_expected_cnot_count() {
        // Proposition 5.1: the MCFP objective equals E[CNOT] under (π, P_gc).
        let ham = example();
        let (p, flow, _) = gate_cancellation_matrix_with(&ham, SolverKind::default()).unwrap();
        let cost = flow.cost;
        let pi = ham.stationary_distribution();
        let costs = cnot_cost_matrix(&ham);
        let mut expectation = 0.0;
        for i in 0..ham.num_terms() {
            for j in 0..ham.num_terms() {
                expectation += pi[i] * p.prob(i, j) * costs[i][j];
            }
        }
        assert!((expectation - cost).abs() < 1e-9, "{expectation} vs {cost}");
    }

    #[test]
    fn gc_matrix_expected_cost_beats_qdrift_expected_cost() {
        // The whole point of P_gc: its expected transition cost is at most
        // qDRIFT's.
        let ham = Hamiltonian::parse(
            "0.9 ZZII + 0.8 ZIZI + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY + 0.3 IZIZ + 0.2 YYII",
        )
        .unwrap();
        let costs = cnot_cost_matrix(&ham);
        let pi = ham.stationary_distribution();
        let (p_gc, gc_flow, _) =
            gate_cancellation_matrix_with(&ham, SolverKind::default()).unwrap();
        let gc_cost = gc_flow.cost;
        assert!(p_gc.preserves_distribution(&pi, 1e-9));
        let mut qd_cost = 0.0;
        for i in 0..ham.num_terms() {
            for j in 0..ham.num_terms() {
                qd_cost += pi[i] * pi[j] * costs[i][j];
            }
        }
        assert!(
            gc_cost <= qd_cost + 1e-9,
            "gc expected cost {gc_cost} should not exceed qdrift expected cost {qd_cost}"
        );
    }

    #[test]
    fn dominant_term_requires_splitting() {
        // π_0 > 0.5 makes the flow infeasible unless the term is split.
        let ham = Hamiltonian::parse("3.0 XX + 0.5 ZZ + 0.5 XY").unwrap();
        assert!(gate_cancellation_matrix(&ham).is_err());
        let split = ham.split_dominant_terms();
        let p = gate_cancellation_matrix(&split).unwrap();
        assert!(p.preserves_distribution(&split.stationary_distribution(), 1e-9));
    }

    #[test]
    fn both_backends_build_equivalent_gc_matrices() {
        // The cross-backend guarantee at the P_gc level: equal optimal cost
        // and a valid (π-preserving) matrix from either backend.
        let ham = example();
        let pi = ham.stationary_distribution();
        let costs = cnot_cost_matrix(&ham);
        let (ssp, ssp_flow, _) =
            matrix_from_costs(&ham, &costs, SolverKind::SuccessiveShortestPath, None).unwrap();
        let (simplex, simplex_flow, _) =
            matrix_from_costs(&ham, &costs, SolverKind::NetworkSimplex, None).unwrap();
        assert!(
            (ssp_flow.cost - simplex_flow.cost).abs() < 1e-9,
            "ssp {} vs simplex {}",
            ssp_flow.cost,
            simplex_flow.cost
        );
        assert!(ssp.preserves_distribution(&pi, 1e-9));
        assert!(simplex.preserves_distribution(&pi, 1e-9));
    }

    #[test]
    fn cost_matrix_is_symmetric_with_zero_diagonal() {
        let ham = example();
        let costs = cnot_cost_matrix(&ham);
        for i in 0..4 {
            assert_eq!(costs[i][i], 0.0);
            for j in 0..4 {
                assert_eq!(costs[i][j], costs[j][i]);
            }
        }
    }
}
