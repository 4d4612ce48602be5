//! The random-perturbation transition matrix `P_rp` (§5.5).
//!
//! Adding a small random perturbation to the min-cost-flow edge costs and
//! averaging the resulting transition matrices spreads the eigenvectors of
//! the combined matrix, pushing its sub-dominant eigenvalues down (Fig. 15)
//! and therefore reducing the sampling variance — without touching the
//! capacity constraints that guarantee correctness.
//!
//! Following §6.1, each perturbation adds `+1` to the CNOT cost of an edge
//! independently with probability `1/2`, and `P_rp` is the average over a
//! configurable number of perturbed solutions (100 in the paper).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use marqsim_markov::combine::combine;
use marqsim_markov::TransitionMatrix;
use marqsim_pauli::Hamiltonian;

use marqsim_flow::bipartite::BipartiteFlow;
use marqsim_flow::SpanningBasis;

use crate::gate_cancel::{cnot_cost_matrix, matrix_from_costs};
use crate::{CompileError, SolverKind};

/// Configuration of the random-perturbation matrix construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbationConfig {
    /// Number of independently perturbed min-cost-flow problems to average.
    pub samples: usize,
    /// Magnitude added to an edge cost when it is perturbed.
    pub magnitude: f64,
    /// Probability that any given edge cost is perturbed.
    pub probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PerturbationConfig {
    fn default() -> Self {
        PerturbationConfig {
            samples: 20,
            magnitude: 1.0,
            probability: 0.5,
            seed: 0,
        }
    }
}

impl PerturbationConfig {
    /// Checks the configuration before any flow network is built: at least
    /// one sample, and a finite magnitude (an infinite or NaN magnitude
    /// would put a non-finite cost on a flow edge). Every `P_rp`
    /// construction — the GC-RP builder and [`perturbed_matrix_sample`] —
    /// runs this check first.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), CompileError> {
        let reason = if self.samples == 0 {
            "perturbation samples must be at least 1".to_string()
        } else if !self.magnitude.is_finite() {
            format!("perturbation magnitude {} is not finite", self.magnitude)
        } else {
            return Ok(());
        };
        Err(CompileError::InvalidConfig { reason })
    }
}

/// Perturbs every off-diagonal cost in place: each entry gains
/// `config.magnitude` independently with probability `config.probability`,
/// drawing from `rng` in row-major order.
fn perturb_costs(costs: &mut [Vec<f64>], rng: &mut StdRng, config: &PerturbationConfig) {
    for (i, row) in costs.iter_mut().enumerate() {
        for (j, value) in row.iter_mut().enumerate() {
            if i != j && rng.gen::<f64>() < config.probability {
                *value += config.magnitude;
            }
        }
    }
}

/// Builds `P_rp`: the average of transition matrices obtained from randomly
/// perturbed min-cost-flow problems, under the default solver backend.
///
/// One RNG stream threads through all samples (sample `i`'s perturbation
/// depends on the draws of samples `0..i`), so this construction is
/// inherently serial. The parallel path — used by the engine's
/// `PerturbAverageWorkload` — seeds each sample independently via
/// [`perturbation_sample_seed`] / [`perturbed_matrix_sample`] instead; the
/// two constructions are both deterministic but produce *different*
/// (equally valid) matrices.
///
/// # Errors
///
/// Returns [`CompileError::InvalidConfig`] for a configuration
/// [`PerturbationConfig::validate`] rejects; propagates failures of the
/// underlying flow solves or of the final averaging step.
pub fn random_perturbation_matrix(
    ham: &Hamiltonian,
    config: &PerturbationConfig,
) -> Result<TransitionMatrix, CompileError> {
    random_perturbation_matrix_with(ham, config, SolverKind::default(), None)
        .map(|(matrix, _)| matrix)
}

/// Like [`random_perturbation_matrix`] with an explicit min-cost-flow
/// backend, solving the perturbed problems as warm re-pivots from a
/// [`SpanningBasis`]. The perturbation only changes edge costs — the
/// network topology is fixed by the Hamiltonian — so every sample can
/// reuse one basis:
///
/// * with `gc_basis = Some(..)` (the engine path: the basis saved by the
///   `P_gc` solve) every sample warm-starts from it;
/// * with `gc_basis = None` the first sample solves cold and exports its
///   basis, and the remaining `samples - 1` warm-start from that.
///
/// Also returns how many solves actually re-pivoted a basis (always `0`
/// for backends without warm support, which export no basis and so solve
/// every sample cold). Determinism is preserved: the result is a pure
/// function of `(ham, config, solver, gc_basis)`, and `gc_basis` itself
/// is a pure function of `(ham, solver)` when derived from the `P_gc`
/// solve — so cached and cache-disabled runs build identical matrices.
///
/// # Errors
///
/// Same contract as [`random_perturbation_matrix`].
pub fn random_perturbation_matrix_with(
    ham: &Hamiltonian,
    config: &PerturbationConfig,
    solver: SolverKind,
    gc_basis: Option<&SpanningBasis>,
) -> Result<(TransitionMatrix, u64), CompileError> {
    config.validate()?;
    let base_costs = cnot_cost_matrix(ham);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut matrices = Vec::with_capacity(config.samples);
    let mut warm_starts = 0u64;
    let mut first_basis: Option<SpanningBasis> = None;
    for _ in 0..config.samples {
        let mut costs = base_costs.clone();
        perturb_costs(&mut costs, &mut rng, config);
        let warm = gc_basis.or(first_basis.as_ref());
        let (matrix, flow, exported) = matrix_from_costs(ham, &costs, solver, warm)?;
        warm_starts += u64::from(flow.warm_start);
        // Without a `P_gc` basis, the first sample's basis seeds the rest.
        first_basis = first_basis.or(exported);
        matrices.push(matrix);
    }
    let weights = vec![1.0 / config.samples as f64; config.samples];
    let averaged = combine(&matrices, &weights).map_err(CompileError::Combine)?;
    Ok((averaged, warm_starts))
}

/// The RNG seed of the `index`-th sample in the *parallel* `P_rp`
/// construction: a SplitMix64-style spread of `config.seed`, so each sample
/// owns an independent stream and any scheduler that solves sample `index`
/// with this seed produces the identical matrix.
pub fn perturbation_sample_seed(config: &PerturbationConfig, index: usize) -> u64 {
    config
        .seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1))
}

/// Solves one independently seeded perturbed min-cost-flow problem — the
/// unit of work of the parallel `P_rp` average — under the `solver`
/// backend, optionally warm-started from a basis saved by an earlier solve
/// for the same Hamiltonian (the perturbation only changes costs, never
/// the network topology, so any basis for `ham` matches). Returns the
/// sample matrix, the optimal flow ([`BipartiteFlow::warm_start`] says
/// whether the basis was actually re-pivoted) and the basis the solve
/// ends on; see [`matrix_from_costs`].
///
/// The matrix depends only on `(ham, config, index, solver, warm)`, never
/// on scheduling order; averaging samples `0..config.samples` with equal
/// weights yields the parallel `P_rp`. The engine's parallel workload
/// solves sample `0` cold and re-pivots samples `1..` from its basis,
/// which keeps the average deterministic because that basis is itself a
/// pure function of `(ham, config, solver)`.
///
/// # Errors
///
/// Returns [`CompileError::InvalidConfig`] for a configuration
/// [`PerturbationConfig::validate`] rejects; propagates the flow-solve
/// failure — warm and cold solves classify errors identically.
pub fn perturbed_matrix_sample(
    ham: &Hamiltonian,
    config: &PerturbationConfig,
    index: usize,
    solver: SolverKind,
    warm: Option<&SpanningBasis>,
) -> Result<(TransitionMatrix, BipartiteFlow, Option<SpanningBasis>), CompileError> {
    config.validate()?;
    let mut costs = cnot_cost_matrix(ham);
    let mut rng = StdRng::seed_from_u64(perturbation_sample_seed(config, index));
    perturb_costs(&mut costs, &mut rng, config);
    matrix_from_costs(ham, &costs, solver, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate_cancel::gate_cancellation_matrix;
    use crate::qdrift::qdrift_matrix;
    use marqsim_markov::combine::combine;
    use marqsim_markov::spectra::spectrum;

    fn example() -> Hamiltonian {
        // Example 5.3 of the paper.
        Hamiltonian::parse("1.0 IIIZY + 1.0 XXIII + 0.7 ZXZYI + 0.5 IIZZX + 0.3 XXYYZ").unwrap()
    }

    #[test]
    fn preserves_the_stationary_distribution() {
        let ham = example();
        let p_rp = random_perturbation_matrix(&ham, &PerturbationConfig::default()).unwrap();
        assert!(p_rp.preserves_distribution(&ham.stationary_distribution(), 1e-8));
    }

    #[test]
    fn is_deterministic_given_a_seed() {
        let ham = example();
        let config = PerturbationConfig {
            samples: 5,
            seed: 9,
            ..Default::default()
        };
        let a = random_perturbation_matrix(&ham, &config).unwrap();
        let b = random_perturbation_matrix(&ham, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn differs_from_the_unperturbed_gate_cancellation_matrix() {
        let ham = example();
        let p_gc = gate_cancellation_matrix(&ham).unwrap();
        let p_rp = random_perturbation_matrix(
            &ham,
            &PerturbationConfig {
                samples: 10,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let max_diff = (0..ham.num_terms())
            .flat_map(|i| (0..ham.num_terms()).map(move |j| (i, j)))
            .map(|(i, j)| (p_gc.prob(i, j) - p_rp.prob(i, j)).abs())
            .fold(0.0, f64::max);
        assert!(max_diff > 1e-3, "perturbation should change the matrix");
    }

    #[test]
    fn parallel_samples_are_independent_and_deterministic() {
        let ham = example();
        let config = PerturbationConfig {
            samples: 4,
            seed: 21,
            ..Default::default()
        };
        // Distinct samples get distinct seeds; the same sample twice is
        // bit-identical (the property the engine's parallel average rests
        // on), and averaging preserves the stationary distribution exactly
        // like the serial construction.
        assert_ne!(
            perturbation_sample_seed(&config, 0),
            perturbation_sample_seed(&config, 1)
        );
        let solver = SolverKind::default();
        let (a, _, _) = perturbed_matrix_sample(&ham, &config, 2, solver, None).unwrap();
        let (b, _, _) = perturbed_matrix_sample(&ham, &config, 2, solver, None).unwrap();
        assert_eq!(a, b);
        let matrices: Vec<_> = (0..config.samples)
            .map(|i| {
                perturbed_matrix_sample(&ham, &config, i, solver, None)
                    .unwrap()
                    .0
            })
            .collect();
        let weights = vec![1.0 / config.samples as f64; config.samples];
        let averaged = combine(&matrices, &weights).unwrap();
        assert!(averaged.preserves_distribution(&ham.stationary_distribution(), 1e-8));
    }

    #[test]
    fn perturbed_combination_has_smaller_subdominant_mass() {
        // The §6.4 observation: replacing part of the P_gc weight with P_rp
        // lowers the sub-dominant spectrum (faster convergence).
        let ham = example();
        let pi = ham.stationary_distribution();
        let p_qd = qdrift_matrix(&ham);
        let p_gc = gate_cancellation_matrix(&ham).unwrap();
        let p_rp = random_perturbation_matrix(
            &ham,
            &PerturbationConfig {
                samples: 30,
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let without = combine(&[p_qd.clone(), p_gc.clone()], &[0.4, 0.6]).unwrap();
        let with = combine(&[p_qd, p_gc, p_rp], &[0.4, 0.3, 0.3]).unwrap();
        assert!(without.preserves_distribution(&pi, 1e-8));
        assert!(with.preserves_distribution(&pi, 1e-8));
        let mass_without = spectrum(&without).subdominant_mass();
        let mass_with = spectrum(&with).subdominant_mass();
        assert!(
            mass_with <= mass_without + 1e-9,
            "perturbation should not increase the sub-dominant mass ({mass_with} vs {mass_without})"
        );
    }

    #[test]
    fn zero_samples_and_non_finite_magnitudes_are_invalid_configs() {
        use crate::htt::HttGraph;
        use crate::TransitionStrategy;

        let ham = example();
        let bad = [
            PerturbationConfig {
                samples: 0,
                ..Default::default()
            },
            PerturbationConfig {
                magnitude: f64::INFINITY,
                ..Default::default()
            },
            PerturbationConfig {
                magnitude: f64::NAN,
                ..Default::default()
            },
        ];
        for config in bad {
            let gc_rp = TransitionStrategy::GateCancellationRandomPerturbation {
                qdrift_weight: 0.4,
                gc_weight: 0.3,
                perturbation: config,
            };
            let combined = TransitionStrategy::Combined {
                qdrift_weight: 0.4,
                gc_weight: 0.3,
                rp_weight: 0.3,
                perturbation: config,
            };
            for strategy in [gc_rp, combined] {
                for solver in SolverKind::ALL {
                    let err = HttGraph::build_with_solver(&ham, &strategy, solver).unwrap_err();
                    assert!(
                        matches!(err, CompileError::InvalidConfig { .. }),
                        "{strategy:?} on {solver}: {err}"
                    );
                }
            }
            for solver in SolverKind::ALL {
                let err = perturbed_matrix_sample(&ham, &config, 0, solver, None).unwrap_err();
                assert!(
                    matches!(err, CompileError::InvalidConfig { .. }),
                    "{config:?} on {solver}: {err}"
                );
            }
            assert!(random_perturbation_matrix(&ham, &config).is_err());
        }
    }
}
