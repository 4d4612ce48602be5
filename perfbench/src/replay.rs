//! The traced replay: a workload's inputs pushed one call at a time
//! through each layer's public functions, every call timed from outside.
//!
//! [`compile`] and [`fidelity`] repeat, step for step, what
//! `Compiler::compile_with_htt` and `metrics::evaluate_fidelity` do, so
//! their outputs can be compared bit for bit with the engine's.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use marqsim_circuit::{cancellation, synthesis, Circuit, GateStats};
use marqsim_core::metrics::{merge_consecutive, sequence_stats, SequenceStats};
use marqsim_core::{CompileError, CompilerConfig, HttGraph, SolverKind, TransitionStrategy};
use marqsim_engine::hamiltonian_fingerprint;
use marqsim_markov::sample::ChainSampler;
use marqsim_pauli::Hamiltonian;
use marqsim_sim::{exact, fidelity as sim_fidelity, UnitaryAccumulator};

/// Busy time and counts per layer, accumulated over one replay.
#[derive(Debug, Default)]
pub struct Layers {
    seconds: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
    busy: f64,
    exact_seen: HashSet<(u64, u64)>,
}

impl Layers {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let dt = start.elapsed().as_secs_f64();
        *self.seconds.entry(layer).or_default() += dt;
        self.busy += dt;
        out
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_default() += n as f64;
    }

    /// Seconds charged to `layer`.
    pub fn seconds(&self, layer: &str) -> f64 {
        self.seconds.get(layer).copied().unwrap_or(0.0)
    }

    /// Value of counter `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total timed time across every layer.
    pub fn busy(&self) -> f64 {
        self.busy
    }
}

/// Builds the HTT graph as the engine does on a cache miss: the engine's
/// default backend, resolved for the Hamiltonian's size. Time is charged
/// to `core.htt_build_s.le100` or `.gt100` by the `auto` switch point.
pub fn build_htt(
    layers: &mut Layers,
    ham: &Hamiltonian,
    strategy: &TransitionStrategy,
    default_solver: SolverKind,
) -> Result<HttGraph, CompileError> {
    let solver = default_solver.resolve_for_strings(ham.num_terms());
    let layer = if ham.num_terms() <= SolverKind::AUTO_SSP_MAX_STRINGS {
        "core.htt_build_s.le100"
    } else {
        "core.htt_build_s.gt100"
    };
    layers.add("core.htt_builds", 1);
    layers.time(layer, || HttGraph::build_with_solver(ham, strategy, solver))
}

/// One replayed compile.
#[derive(Debug)]
pub struct Replayed {
    pub num_samples: usize,
    pub lambda: f64,
    pub sequence: Vec<usize>,
    pub stats: SequenceStats,
    pub circuit: Option<(Circuit, GateStats)>,
}

/// Steps 2–4 of Algorithm 1 against a built graph.
pub fn compile(layers: &mut Layers, htt: &HttGraph, cfg: &CompilerConfig) -> Replayed {
    let working = htt.hamiltonian();
    let lambda = working.lambda();
    let num_samples = cfg
        .sample_count_override
        .unwrap_or_else(|| {
            ((2.0 * lambda * lambda * cfg.time * cfg.time) / cfg.epsilon).ceil() as usize
        })
        .max(1);
    let angle_per_sample = lambda * cfg.time / num_samples as f64;

    let sequence = layers.time("markov.sample_s", || {
        ChainSampler::new(htt.transition_matrix(), htt.stationary_distribution())
            .sample_trajectory_seeded(num_samples, cfg.seed)
    });
    layers.add("markov.samples", num_samples);
    let merged = layers.time("core.count_s", || merge_consecutive(&sequence));
    let stats = layers.time("core.count_s", || sequence_stats(working, &sequence));

    let circuit = cfg.synthesize_circuit.then(|| {
        let mut circuit = layers.time("circuit.synth_s", || Circuit::new(working.num_qubits()));
        for &(idx, mult) in &merged {
            let term = working.term(idx);
            let angle = term.coefficient.signum() * angle_per_sample * mult as f64;
            layers.time("circuit.synth_s", || {
                synthesis::append_pauli_rotation(&mut circuit, &term.string, angle)
            });
        }
        layers.add("circuit.gates_emitted", circuit.len());
        if cfg.optimize_circuit {
            circuit = layers.time("circuit.cancel_s", || {
                cancellation::cancel_gates(&circuit).0
            });
        }
        layers.add("circuit.gates_kept", circuit.len());
        let stats = layers.time("circuit.cancel_s", || circuit.stats());
        (circuit, stats)
    });

    Replayed {
        num_samples,
        lambda,
        sequence,
        stats,
        circuit,
    }
}

/// Unitary fidelity of a sampled sequence against `exp(iHt)`, as
/// `evaluate_fidelity` computes it. Also counts how many exact-unitary
/// calls repeat an `(H, t)` this replay has already seen.
pub fn fidelity(layers: &mut Layers, ham: &Hamiltonian, t: f64, sequence: &[usize]) -> f64 {
    let lambda = ham.lambda();
    let tau = lambda * t / sequence.len().max(1) as f64;
    let merged = layers.time("core.count_s", || merge_consecutive(sequence));
    layers.add("sim.rotations", merged.len());
    let mut acc = layers.time("sim.accumulate_s", || {
        UnitaryAccumulator::new(ham.num_qubits())
    });
    for (idx, mult) in merged {
        let term = ham.term(idx);
        let angle = term.coefficient.signum() * tau * mult as f64;
        layers.time("sim.accumulate_s", || {
            acc.apply_pauli_rotation(&term.string, angle)
        });
    }
    if !layers
        .exact_seen
        .insert((hamiltonian_fingerprint(ham), t.to_bits()))
    {
        layers.add("sim.exact_repeats", 1);
    }
    layers.add("sim.exact_calls", 1);
    let exact_u = layers.time("sim.exact_s", || exact::exact_unitary(ham, t));
    layers.time("sim.fidelity_s", || {
        sim_fidelity::fidelity_with_matrix(&acc, &exact_u)
    })
}
