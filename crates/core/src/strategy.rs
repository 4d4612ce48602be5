//! Transition-matrix strategies (the experimental configurations of §6.1).

use crate::perturb::PerturbationConfig;
use crate::CompileError;

/// How the compiler builds the transition matrix it samples from.
///
/// The three named variants correspond to the paper's experimental
/// configurations; [`TransitionStrategy::Combined`] exposes the general
/// convex combination of Theorem 5.2 for ablations (Fig. 14).
#[derive(Debug, Clone, PartialEq)]
pub enum TransitionStrategy {
    /// `P = P_qd`: vanilla qDRIFT (the paper's *Baseline*, which additionally
    /// applies gate cancellation to the sampled sequence — the sequence-level
    /// metrics in [`crate::metrics`] always do).
    QDrift,
    /// `P = θ·P_qd + (1−θ)·P_gc` (*MarQSim-GC*; the paper uses `θ = 0.4`).
    GateCancellation {
        /// The qDRIFT weight `θ`.
        qdrift_weight: f64,
    },
    /// `P = θ_qd·P_qd + θ_gc·P_gc + θ_rp·P_rp` (*MarQSim-GC-RP*; the paper
    /// uses `0.4 / 0.3 / 0.3`).
    GateCancellationRandomPerturbation {
        /// Weight of the qDRIFT component.
        qdrift_weight: f64,
        /// Weight of the gate-cancellation component.
        gc_weight: f64,
        /// Configuration of the random-perturbation component (its weight is
        /// `1 − qdrift_weight − gc_weight`).
        perturbation: PerturbationConfig,
    },
    /// An arbitrary convex combination `Σ θ_i P_i` of the three component
    /// matrices `(P_qd, P_gc, P_rp)`; weights must sum to one.
    Combined {
        /// Weight of `P_qd`.
        qdrift_weight: f64,
        /// Weight of `P_gc`.
        gc_weight: f64,
        /// Weight of `P_rp`.
        rp_weight: f64,
        /// Configuration of the random-perturbation component.
        perturbation: PerturbationConfig,
    },
}

impl TransitionStrategy {
    /// The paper's *Baseline* configuration.
    pub fn baseline() -> Self {
        TransitionStrategy::QDrift
    }

    /// The paper's *MarQSim-GC* configuration (`0.4 P_qd + 0.6 P_gc`).
    pub fn marqsim_gc() -> Self {
        TransitionStrategy::GateCancellation { qdrift_weight: 0.4 }
    }

    /// The paper's *MarQSim-GC-RP* configuration
    /// (`0.4 P_qd + 0.3 P_gc + 0.3 P_rp`).
    pub fn marqsim_gc_rp() -> Self {
        TransitionStrategy::GateCancellationRandomPerturbation {
            qdrift_weight: 0.4,
            gc_weight: 0.3,
            perturbation: PerturbationConfig::default(),
        }
    }

    /// A short human-readable label used by the experiment drivers.
    pub fn label(&self) -> String {
        match self {
            TransitionStrategy::QDrift => "Baseline".to_string(),
            TransitionStrategy::GateCancellation { qdrift_weight } => {
                format!(
                    "MarQSim-GC ({qdrift_weight:.1} Pqd + {:.1} Pgc)",
                    1.0 - qdrift_weight
                )
            }
            TransitionStrategy::GateCancellationRandomPerturbation {
                qdrift_weight,
                gc_weight,
                ..
            } => format!(
                "MarQSim-GC-RP ({qdrift_weight:.1} Pqd + {gc_weight:.1} Pgc + {:.1} Prp)",
                1.0 - qdrift_weight - gc_weight
            ),
            TransitionStrategy::Combined {
                qdrift_weight,
                gc_weight,
                rp_weight,
                ..
            } => format!("Combined ({qdrift_weight:.2}/{gc_weight:.2}/{rp_weight:.2})"),
        }
    }

    /// Checks the strategy before any flow network is built: the weights
    /// form a valid convex combination and the perturbation component, if
    /// any, passes [`PerturbationConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidConfig`] describing the first problem.
    pub fn validate(&self) -> Result<(), CompileError> {
        if !self.weights_are_valid() {
            return Err(CompileError::InvalidConfig {
                reason: format!("invalid combination weights in {self:?}"),
            });
        }
        match self {
            TransitionStrategy::GateCancellationRandomPerturbation { perturbation, .. }
            | TransitionStrategy::Combined { perturbation, .. } => perturbation.validate(),
            TransitionStrategy::QDrift | TransitionStrategy::GateCancellation { .. } => Ok(()),
        }
    }

    /// Returns `true` if the weights form a valid convex combination.
    pub fn weights_are_valid(&self) -> bool {
        let in_unit = |x: f64| (0.0..=1.0 + 1e-12).contains(&x);
        match *self {
            TransitionStrategy::QDrift => true,
            TransitionStrategy::GateCancellation { qdrift_weight } => in_unit(qdrift_weight),
            TransitionStrategy::GateCancellationRandomPerturbation {
                qdrift_weight,
                gc_weight,
                ..
            } => {
                in_unit(qdrift_weight)
                    && in_unit(gc_weight)
                    && in_unit(1.0 - qdrift_weight - gc_weight)
            }
            TransitionStrategy::Combined {
                qdrift_weight,
                gc_weight,
                rp_weight,
                ..
            } => {
                in_unit(qdrift_weight)
                    && in_unit(gc_weight)
                    && in_unit(rp_weight)
                    && (qdrift_weight + gc_weight + rp_weight - 1.0).abs() < 1e-9
            }
        }
    }
}

impl Default for TransitionStrategy {
    fn default() -> Self {
        TransitionStrategy::marqsim_gc_rp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_configurations_match_the_paper() {
        assert_eq!(TransitionStrategy::baseline(), TransitionStrategy::QDrift);
        match TransitionStrategy::marqsim_gc() {
            TransitionStrategy::GateCancellation { qdrift_weight } => {
                assert!((qdrift_weight - 0.4).abs() < 1e-12)
            }
            other => panic!("unexpected {other:?}"),
        }
        match TransitionStrategy::marqsim_gc_rp() {
            TransitionStrategy::GateCancellationRandomPerturbation {
                qdrift_weight,
                gc_weight,
                ..
            } => {
                assert!((qdrift_weight - 0.4).abs() < 1e-12);
                assert!((gc_weight - 0.3).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn labels_are_distinct_and_informative() {
        assert_eq!(TransitionStrategy::baseline().label(), "Baseline");
        assert!(TransitionStrategy::marqsim_gc().label().contains("GC"));
        assert!(TransitionStrategy::marqsim_gc_rp().label().contains("RP"));
    }

    #[test]
    fn weight_validation() {
        assert!(TransitionStrategy::marqsim_gc().weights_are_valid());
        assert!(!TransitionStrategy::GateCancellation { qdrift_weight: 1.5 }.weights_are_valid());
        assert!(!TransitionStrategy::Combined {
            qdrift_weight: 0.5,
            gc_weight: 0.4,
            rp_weight: 0.3,
            perturbation: PerturbationConfig::default(),
        }
        .weights_are_valid());
    }
}
