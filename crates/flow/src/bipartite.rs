//! The MarQSim-shaped bipartite transportation network (§5.1).
//!
//! Given a marginal distribution `π` over `n` states and an `n × n` cost
//! matrix, this module builds the flow network
//!
//! ```text
//! S → Prev_i   (capacity π_i, cost 0)
//! Prev_i → Next_j  (capacity ∞, cost w_ij)   for allowed (i, j)
//! Next_j → T   (capacity π_j, cost 0)
//! ```
//!
//! routes one unit of flow, and reports the optimal flow `f_ij` between the
//! two layers. Dividing row `i` of the flow by `π_i` yields the transition
//! matrix (§5.1.2); that conversion lives in `marqsim-core`.

use crate::{FlowError, FlowNetwork, SolverKind, SpanningBasis};

/// Result of solving the bipartite transportation problem.
#[derive(Debug, Clone)]
pub struct BipartiteFlow {
    /// Optimal flow `f_ij` from `Prev_i` to `Next_j`.
    pub flows: Vec<Vec<f64>>,
    /// Total cost `Σ f_ij · w_ij` — by Proposition 5.1 this equals the
    /// expected CNOT count per transition when the flow is turned into a
    /// transition matrix.
    pub cost: f64,
    /// Name of the backend that solved the underlying network.
    pub solver: &'static str,
    /// Whether the backend skipped its Bellman–Ford potential bootstrap
    /// (the successive-shortest-path fast path — always taken here when the
    /// cost matrix is non-negative, e.g. for CNOT counts).
    pub bellman_ford_skipped: bool,
    /// Whether the solve re-pivoted from a caller-supplied
    /// [`SpanningBasis`] instead of building its basis from scratch.
    /// Always `false` on cold solves and on backends without warm
    /// support (`ssp`).
    pub warm_start: bool,
}

/// Errors produced by [`solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum BipartiteError {
    /// The marginal distribution is empty, has negative entries, or does not
    /// sum to one.
    InvalidMarginal {
        /// The sum of the provided marginal.
        sum: f64,
    },
    /// The cost matrix is not `n × n`.
    CostShapeMismatch {
        /// Number of states implied by the marginal.
        expected: usize,
    },
    /// The underlying min-cost-flow problem is infeasible (for example, every
    /// inner edge of some row excluded).
    Infeasible(FlowError),
}

impl std::fmt::Display for BipartiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BipartiteError::InvalidMarginal { sum } => {
                write!(
                    f,
                    "marginal distribution must be a probability vector (sum = {sum})"
                )
            }
            BipartiteError::CostShapeMismatch { expected } => {
                write!(f, "cost matrix must be {expected} x {expected}")
            }
            BipartiteError::Infeasible(e) => write!(f, "transportation problem infeasible: {e}"),
        }
    }
}

impl std::error::Error for BipartiteError {}

/// A very large capacity standing in for the paper's `∞` on inner edges.
const INF_CAPACITY: f64 = 1e18;

/// Solves the bipartite transportation problem with the `solver` backend,
/// optionally warm-started from a saved basis, and returns the optimal
/// flow with the basis the solve ends on (`None` for backends without warm
/// support).
///
/// `allow(i, j)` controls which inner edges exist; MarQSim's gate-cancellation
/// model excludes the diagonal (`i == j`) to rule out the trivial identity
/// transition matrix.
///
/// The network topology, and hence the basis fingerprint, depends only on
/// the marginal and the `allow` relation, so solves that differ only in
/// their cost matrix (the `P_rp` perturbation-sampling shape) can
/// warm-start from each other's bases. A `warm` basis that does not match
/// (different marginal or `allow` relation), or a backend without warm
/// support, degrades to a cold solve — [`BipartiteFlow::warm_start`]
/// reports what actually happened.
///
/// Every backend produces the same optimal cost and the same
/// [`BipartiteError`] classification, warm or cold; the flows themselves
/// may differ between backends when the optimum is not unique.
///
/// # Errors
///
/// Returns a [`BipartiteError`] if the inputs are malformed or the problem is
/// infeasible (e.g. a single state with its self-edge excluded).
pub fn solve<F>(
    solver: SolverKind,
    marginal: &[f64],
    costs: &[Vec<f64>],
    mut allow: F,
    warm: Option<&SpanningBasis>,
) -> Result<(BipartiteFlow, Option<SpanningBasis>), BipartiteError>
where
    F: FnMut(usize, usize) -> bool,
{
    let n = marginal.len();
    let sum: f64 = marginal.iter().sum();
    if n == 0 || marginal.iter().any(|&p| p < 0.0) || (sum - 1.0).abs() > 1e-9 {
        return Err(BipartiteError::InvalidMarginal { sum });
    }
    if costs.len() != n || costs.iter().any(|row| row.len() != n) {
        return Err(BipartiteError::CostShapeMismatch { expected: n });
    }

    // Node layout: 0 = S, 1..=n = Prev, n+1..=2n = Next, 2n+1 = T.
    let source = 0usize;
    let sink = 2 * n + 1;
    let prev = |i: usize| 1 + i;
    let next = |j: usize| 1 + n + j;

    let mut net = FlowNetwork::new(2 * n + 2);
    for (i, &pi) in marginal.iter().enumerate() {
        net.add_edge(source, prev(i), pi, 0.0);
        net.add_edge(next(i), sink, pi, 0.0);
    }
    let mut inner_ids = vec![vec![usize::MAX; n]; n];
    for i in 0..n {
        for j in 0..n {
            if allow(i, j) {
                inner_ids[i][j] = net.add_edge(prev(i), next(j), INF_CAPACITY, costs[i][j]);
            }
        }
    }

    let (result, basis) = net
        .solve(solver, source, sink, 1.0, warm)
        .map_err(BipartiteError::Infeasible)?;

    let mut flows = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            let id = inner_ids[i][j];
            if id != usize::MAX {
                flows[i][j] = result.edge_flows[id].max(0.0);
            }
        }
    }
    Ok((
        BipartiteFlow {
            flows,
            cost: result.cost,
            solver: result.solver,
            bellman_ford_skipped: result.bellman_ford_skipped,
            warm_start: result.warm_start,
        },
        basis,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Example 4.1 / Example 5.1 setup from the paper: π from the
    /// Hamiltonian `1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY`, with the CNOT
    /// costs between the Pauli strings as the cost matrix and the diagonal
    /// excluded.
    fn example_5_1() -> (Vec<f64>, Vec<Vec<f64>>) {
        let pi = vec![0.5, 0.25, 0.2, 0.05];
        // A CNOT-cost-style matrix for the strings IIIZ, IIZZ, XXYY, ZXZY.
        let costs = vec![
            vec![0.0, 1.0, 3.0, 3.0],
            vec![1.0, 0.0, 4.0, 3.0],
            vec![3.0, 4.0, 0.0, 4.0],
            vec![3.0, 3.0, 4.0, 0.0],
        ];
        (pi, costs)
    }

    #[test]
    fn marginals_are_matched_on_both_sides() {
        let (pi, costs) = example_5_1();
        let sol = solve(SolverKind::default(), &pi, &costs, |i, j| i != j, None)
            .unwrap()
            .0;
        for i in 0..4 {
            let row_sum: f64 = sol.flows[i].iter().sum();
            let col_sum: f64 = (0..4).map(|k| sol.flows[k][i]).sum();
            assert!(
                (row_sum - pi[i]).abs() < 1e-9,
                "row {i}: {row_sum} vs {}",
                pi[i]
            );
            assert!(
                (col_sum - pi[i]).abs() < 1e-9,
                "col {i}: {col_sum} vs {}",
                pi[i]
            );
        }
    }

    #[test]
    fn diagonal_exclusion_is_respected() {
        let (pi, costs) = example_5_1();
        let sol = solve(SolverKind::default(), &pi, &costs, |i, j| i != j, None)
            .unwrap()
            .0;
        for i in 0..4 {
            assert!(sol.flows[i][i].abs() < 1e-12);
        }
    }

    #[test]
    fn paper_example_5_1_flow_structure() {
        // Equation (13): the dominant term exchanges flow with the three
        // small terms; small terms route all their mass to the dominant term.
        let (pi, costs) = example_5_1();
        let sol = solve(SolverKind::default(), &pi, &costs, |i, j| i != j, None)
            .unwrap()
            .0;
        for j in 1..4 {
            assert!(
                (sol.flows[j][0] - pi[j]).abs() < 1e-9,
                "term {j} should send all its mass to term 0, got {}",
                sol.flows[j][0]
            );
            assert!((sol.flows[0][j] - pi[j]).abs() < 1e-9);
        }
        // Expected optimal cost: every transition crosses the cheap edges
        // (cost 1, 3, 3) twice: 2*(0.25*1 + 0.2*3 + 0.05*3) = 2*1.0.
        assert!((sol.cost - 2.0 * (0.25 + 0.6 + 0.15)).abs() < 1e-9);
    }

    #[test]
    fn allowing_the_diagonal_yields_the_trivial_zero_cost_solution() {
        let (pi, costs) = example_5_1();
        let sol = solve(SolverKind::default(), &pi, &costs, |_, _| true, None)
            .unwrap()
            .0;
        assert!(sol.cost.abs() < 1e-9);
        for i in 0..4 {
            assert!((sol.flows[i][i] - pi[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_marginal_rejected() {
        let costs = vec![vec![0.0; 2]; 2];
        assert!(matches!(
            solve(
                SolverKind::default(),
                &[0.5, 0.6],
                &costs,
                |_, _| true,
                None
            )
            .unwrap_err(),
            BipartiteError::InvalidMarginal { .. }
        ));
        assert!(matches!(
            solve(SolverKind::default(), &[], &[], |_, _| true, None).unwrap_err(),
            BipartiteError::InvalidMarginal { .. }
        ));
    }

    #[test]
    fn cost_shape_mismatch_rejected() {
        let costs = vec![vec![0.0; 3]; 2];
        assert!(matches!(
            solve(
                SolverKind::default(),
                &[0.5, 0.5],
                &costs,
                |_, _| true,
                None
            )
            .unwrap_err(),
            BipartiteError::CostShapeMismatch { .. }
        ));
    }

    #[test]
    fn single_state_without_self_edge_is_infeasible() {
        let costs = vec![vec![0.0]];
        assert!(matches!(
            solve(SolverKind::default(), &[1.0], &costs, |i, j| i != j, None).unwrap_err(),
            BipartiteError::Infeasible(_)
        ));
    }

    #[test]
    fn error_classification_is_backend_agnostic() {
        // Malformed inputs and infeasible networks map to the same
        // BipartiteError variant whichever backend solves them.
        for kind in SolverKind::ALL {
            let costs = vec![vec![0.0; 2]; 2];
            assert!(
                matches!(
                    solve(kind, &[0.5, 0.6], &costs, |_, _| true, None).unwrap_err(),
                    BipartiteError::InvalidMarginal { .. }
                ),
                "{kind}"
            );
            let ragged = vec![vec![0.0; 3]; 2];
            assert!(
                matches!(
                    solve(kind, &[0.5, 0.5], &ragged, |_, _| true, None).unwrap_err(),
                    BipartiteError::CostShapeMismatch { .. }
                ),
                "{kind}"
            );
            let single = vec![vec![0.0]];
            assert!(
                matches!(
                    solve(kind, &[1.0], &single, |i, j| i != j, None).unwrap_err(),
                    BipartiteError::Infeasible(_)
                ),
                "{kind}"
            );
        }
    }

    #[test]
    fn both_backends_find_the_paper_example_optimum() {
        let (pi, costs) = example_5_1();
        let ssp = solve(SolverKind::default(), &pi, &costs, |i, j| i != j, None)
            .unwrap()
            .0;
        let simplex = solve(SolverKind::NetworkSimplex, &pi, &costs, |i, j| i != j, None)
            .unwrap()
            .0;
        assert!(
            (ssp.cost - simplex.cost).abs() < 1e-9,
            "ssp {} vs simplex {}",
            ssp.cost,
            simplex.cost
        );
        // Marginals are matched by both solutions.
        for i in 0..pi.len() {
            let row: f64 = simplex.flows[i].iter().sum();
            assert!((row - pi[i]).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn uniform_marginal_with_uniform_costs_is_feasible() {
        let n = 6;
        let pi = vec![1.0 / n as f64; n];
        let costs = vec![vec![1.0; n]; n];
        let sol = solve(SolverKind::default(), &pi, &costs, |i, j| i != j, None)
            .unwrap()
            .0;
        assert!((sol.cost - 1.0).abs() < 1e-9);
        let total: f64 = sol.flows.iter().flatten().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn warm_restarts_match_cold_solves_under_recosted_instances() {
        // Property (both backends): solving a re-costed instance warm from
        // the original instance's basis reaches the same optimal cost as a
        // cold solve of the re-costed instance (≤ 1e-9 relative), with the
        // marginals still conserved. For ssp the warm entry point is a
        // documented cold fallback, so the property is trivially its own
        // regression test there; for the network simplex it exercises the
        // re-price + re-pivot path.
        quickprop::check(
            "bipartite warm == cold",
            quickprop::Config::default().with_cases(30),
            |g| {
                // n ≥ 3 with raw weights in [0.5, 1.0] keeps every π_i below
                // half the total mass, so the diagonal-excluded problem is
                // always feasible (Hall's condition).
                let n = g.usize_in(3..8);
                let raw: Vec<f64> = (0..n).map(|_| g.f64_in(0.5, 1.0)).collect();
                let costs_a: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..n).map(|_| g.f64_in(0.0, 20.0).round()).collect())
                    .collect();
                let costs_b: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..n).map(|_| g.f64_in(0.0, 20.0).round()).collect())
                    .collect();
                (raw, costs_a, costs_b)
            },
            |(raw, costs_a, costs_b)| {
                let total: f64 = raw.iter().sum();
                let pi: Vec<f64> = raw.iter().map(|x| x / total).collect();
                let n = pi.len();
                for kind in SolverKind::ALL {
                    let (_, basis) = solve(kind, &pi, costs_a, |i, j| i != j, None)
                        .map_err(|e| format!("{kind}: seed solve failed: {e}"))?;
                    let (cold, _) = solve(kind, &pi, costs_b, |i, j| i != j, None)
                        .map_err(|e| format!("{kind}: cold solve failed: {e}"))?;
                    let warm = match basis {
                        Some(basis) => {
                            let (warm, _) = solve(kind, &pi, costs_b, |i, j| i != j, Some(&basis))
                                .map_err(|e| format!("{kind}: warm solve failed: {e}"))?;
                            if !warm.warm_start {
                                return Err(format!(
                                    "{kind}: matching basis was not reused for the warm solve"
                                ));
                            }
                            warm
                        }
                        // ssp exports no basis; its warm path is the cold
                        // fallback by contract.
                        None => cold.clone(),
                    };
                    let scale = cold.cost.abs().max(1.0);
                    if (warm.cost - cold.cost).abs() > 1e-9 * scale {
                        return Err(format!(
                            "{kind}: warm cost {} != cold cost {}",
                            warm.cost, cold.cost
                        ));
                    }
                    for i in 0..n {
                        let row: f64 = warm.flows[i].iter().sum();
                        let col: f64 = (0..n).map(|k| warm.flows[k][i]).sum();
                        if (row - pi[i]).abs() > 1e-7 || (col - pi[i]).abs() > 1e-7 {
                            return Err(format!(
                                "{kind}: warm solve broke marginal {i}: row {row} col {col} vs {}",
                                pi[i]
                            ));
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn larger_random_instance_satisfies_marginals() {
        // Deterministic pseudo-random instance with 25 states.
        let n = 25;
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 + 0.01
        };
        let raw: Vec<f64> = (0..n).map(|_| next()).collect();
        let total: f64 = raw.iter().sum();
        let pi: Vec<f64> = raw.iter().map(|x| x / total).collect();
        let costs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| (next() * 10.0).round()).collect())
            .collect();
        let sol = solve(SolverKind::default(), &pi, &costs, |i, j| i != j, None)
            .unwrap()
            .0;
        for i in 0..n {
            let row_sum: f64 = sol.flows[i].iter().sum();
            assert!((row_sum - pi[i]).abs() < 1e-7);
        }
        assert!(sol.cost >= 0.0);
    }
}
