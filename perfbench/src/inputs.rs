//! Seeded input generators for the three workloads, and digests of what
//! they generate.
//!
//! Only the contents of a workload are drawn from the seed: sampling seeds
//! and small perturbations of Hamiltonian coefficients, which give every
//! run Hamiltonians no cache has seen. The shape (sizes, Pauli strings,
//! strategies, sample counts, job counts and order) is fixed per
//! [`Scale`], so runs with different seeds do the same amount of work and
//! their timings are comparable.

use std::f64::consts::FRAC_PI_4;

use marqsim_core::experiment::{SweepConfig, DEFAULT_EPSILONS};
use marqsim_core::{CompilerConfig, TransitionStrategy};
use marqsim_engine::{hamiltonian_fingerprint, CompileRequest};
use marqsim_hamlib::random::{random_hamiltonian, RandomHamiltonianParams};
use marqsim_hamlib::suite::{benchmark_by_name, SuiteScale};
use marqsim_pauli::{Hamiltonian, Term};
use marqsim_serve::{compile_params, Json};

/// The seed whose outputs are recorded in `expected/outputs.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Workload size: the measured configuration, or a short one that only
/// exercises every code path (used by `run.py --quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

impl Scale {
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Quick => "quick",
        }
    }
}

/// splitmix64: a well-mixed 64-bit value for `(seed, stream)`, so every
/// generated item gets an independent seed derived from the run's seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a over the canonical fields of inputs and outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hamiltonian(&mut self, ham: &Hamiltonian) {
        self.u64(hamiltonian_fingerprint(ham));
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

// ---------------------------------------------------------------------------
// fidelity_sweep
// ---------------------------------------------------------------------------

/// One Fig. 12-shaped sweep: BeH2 (froze) at reduced scale under GC.
#[derive(Debug, Clone)]
pub struct SweepInputs {
    pub hamiltonian: Hamiltonian,
    pub strategy: TransitionStrategy,
    pub config: SweepConfig,
}

impl SweepInputs {
    pub fn generate(seed: u64, scale: Scale) -> SweepInputs {
        let bench = benchmark_by_name("BeH2 (froze)", SuiteScale::Reduced)
            .expect("BeH2 (froze) is a Table 1 benchmark");
        let (mut epsilons, repeats) = match scale {
            Scale::Full => (DEFAULT_EPSILONS.to_vec(), 2),
            Scale::Quick => (DEFAULT_EPSILONS[..2].to_vec(), 1),
        };
        // Smallest ε (most samples) first: the engine queues points in
        // order, so the largest start first and the two workers finish
        // close together instead of one idling behind the last big point.
        epsilons.reverse();
        SweepInputs {
            hamiltonian: bench.hamiltonian,
            strategy: TransitionStrategy::marqsim_gc(),
            config: SweepConfig {
                time: bench.time,
                epsilons,
                repeats,
                base_seed: derive(seed, 1),
                evaluate_fidelity: true,
            },
        }
    }

    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        d.hamiltonian(&self.hamiltonian);
        d.str(&self.strategy.label());
        d.f64(self.config.time);
        for &eps in &self.config.epsilons {
            d.f64(eps);
        }
        d.u64(self.config.repeats as u64);
        d.u64(self.config.base_seed);
        d
    }
}

// ---------------------------------------------------------------------------
// gate_compile
// ---------------------------------------------------------------------------

/// Table 2-shaped compiles with gate-level output: fresh random 20-qubit
/// Hamiltonians on both sides of the `auto` flow backend's switch point,
/// each compiled under GC and GC-RP with synthesis and cancellation on.
#[derive(Debug, Clone)]
pub struct GateInputs {
    pub requests: Vec<CompileRequest>,
}

/// Evolution time of the `gate_compile` compiles.
pub const GATE_TIME: f64 = FRAC_PI_4;

/// The precision at which `ham` compiles to exactly `samples` sampling
/// steps (`N = ⌈2λ²t²/ε⌉`, Algorithm 1). Workloads fix `N` per job instead
/// of `ε`, so a job's sampling and circuit work does not move with the
/// seed-drawn coefficients of its Hamiltonian.
pub fn epsilon_for_samples(ham: &Hamiltonian, time: f64, samples: usize) -> f64 {
    let lambda = ham.lambda();
    // Same operation order as the compiler's sample-count formula.
    let numerator = 2.0 * lambda * lambda * time * time;
    let mut epsilon = numerator / samples as f64;
    // Rounding can leave the quotient a hair above `samples`; step ε up
    // by one ulp at a time until the ceiling lands on it.
    while (numerator / epsilon).ceil() > samples as f64 {
        epsilon = f64::from_bits(epsilon.to_bits() + 1);
    }
    epsilon
}

impl GateInputs {
    /// Sampling steps of a `gate_compile` compile of `strings` strings:
    /// `0.6·n²`, which is what `ε = 0.5` gives on average at `t = π/4`.
    pub fn samples(strings: usize) -> usize {
        strings * strings * 3 / 5
    }

    pub fn string_counts(scale: Scale) -> &'static [usize] {
        match scale {
            // Largest first, for the same reason as the sweep's ε order.
            Scale::Full => &[250, 150, 60],
            Scale::Quick => &[110, 30],
        }
    }

    pub fn generate(seed: u64, scale: Scale) -> GateInputs {
        let mut requests = Vec::new();
        for (i, &terms) in GateInputs::string_counts(scale).iter().enumerate() {
            let ham = fresh_random(terms, derive(seed, 100 + i as u64));
            for (k, strategy) in [
                TransitionStrategy::marqsim_gc(),
                TransitionStrategy::marqsim_gc_rp(),
            ]
            .into_iter()
            .enumerate()
            {
                let epsilon = epsilon_for_samples(&ham, GATE_TIME, GateInputs::samples(terms));
                let config = CompilerConfig::new(GATE_TIME, epsilon)
                    .with_strategy(strategy.clone())
                    .with_seed(derive(seed, 200 + (2 * i + k) as u64));
                requests.push(CompileRequest::new(
                    format!("gate-{terms}-{}", strategy.label()),
                    ham.clone(),
                    config,
                ));
            }
        }
        GateInputs { requests }
    }

    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for r in &self.requests {
            d.str(&r.label);
            d.hamiltonian(&r.hamiltonian);
            d.str(&r.config.strategy.label());
            d.f64(r.config.time);
            d.f64(r.config.epsilon);
            d.u64(r.config.seed);
        }
        d
    }
}

// ---------------------------------------------------------------------------
// routed_mix
// ---------------------------------------------------------------------------

/// What a `routed_mix` job stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// A warm compile of a reduced Table 1 Hamiltonian: serve-bound.
    Small,
    /// A cold GC or GC-RP compile of a fresh 20-qubit Hamiltonian:
    /// flow-bound.
    Cold,
    /// A compile with `evaluate_fidelity` on a fresh 8-qubit Hamiltonian:
    /// sim-bound, never repeating an `(H, t)`.
    Fidelity,
}

/// One `compile` submit of the mix.
#[derive(Debug, Clone)]
pub struct MixJob {
    pub class: JobClass,
    pub label: String,
    pub hamiltonian: Hamiltonian,
    pub strategy: TransitionStrategy,
    pub time: f64,
    pub epsilon: f64,
    pub seed: u64,
    pub fidelity: bool,
}

impl MixJob {
    /// The `params` object of the job's `compile` submit.
    pub fn params(&self) -> Json {
        compile_params(
            &self.hamiltonian.to_string(),
            &self.strategy,
            self.time,
            self.epsilon,
            self.seed,
            self.fidelity,
        )
    }

    /// The same job as an in-process engine request, configured as the
    /// serve registry decodes a `compile` submit.
    pub fn request(&self) -> CompileRequest {
        let config = CompilerConfig::new(self.time, self.epsilon)
            .with_strategy(self.strategy.clone())
            .with_seed(self.seed)
            .without_circuit();
        let request = CompileRequest::new(self.label.clone(), self.hamiltonian.clone(), config);
        if self.fidelity {
            request.with_fidelity()
        } else {
            request
        }
    }
}

/// Merges `minor` into `major` at evenly spaced positions, keeping the
/// order within each.
fn spread<T>(major: Vec<T>, minor: Vec<T>) -> Vec<T> {
    let n = major.len() + minor.len();
    let b = minor.len();
    let (mut major, mut minor) = (major.into_iter(), minor.into_iter());
    (0..n)
        .filter_map(|p| {
            if (p + 1) * b / n > p * b / n {
                minor.next()
            } else {
                major.next()
            }
        })
        .collect()
}

/// The serving mix: a seeded job list dealt round-robin to the closed-loop
/// clients.
#[derive(Debug, Clone)]
pub struct MixInputs {
    pub clients: Vec<Vec<MixJob>>,
}

/// Closed-loop client connections of `routed_mix`.
pub const MIX_CLIENTS: usize = 2;

/// Reduced Table 1 Hamiltonians the small jobs draw from.
pub const SMALL_BENCHMARKS: [&str; 4] = ["Na+", "Cl-", "Ar", "SYK model 1"];

/// Reduced (8-qubit) Table 1 Hamiltonians the fidelity jobs perturb.
pub const FIDELITY_BENCHMARKS: [&str; 4] = ["OH-", "HF", "LiH (froze)", "LiH"];

/// Sampling steps of each cold compile and of each fidelity compile.
pub const COLD_SAMPLES: usize = 20_000;
pub const FIDELITY_SAMPLES: usize = 1_000;

struct MixShape {
    small: usize,
    cold_strings: &'static [usize],
    fidelity: usize,
}

fn mix_shape(scale: Scale) -> MixShape {
    match scale {
        Scale::Full => MixShape {
            small: 84,
            cold_strings: &[40, 70, 100, 130, 160, 200],
            fidelity: 4,
        },
        Scale::Quick => MixShape {
            small: 16,
            cold_strings: &[40],
            fidelity: 1,
        },
    }
}

/// `ham` with every coefficient scaled by a seeded factor within ±0.1%: a
/// distinct Hamiltonian (a distinct fingerprint, so a cache miss and a
/// fresh exact unitary) with nearly the same physics, so its fidelity does
/// not move with the seed.
fn perturbed(ham: &Hamiltonian, seed: u64) -> Hamiltonian {
    let terms = ham
        .terms()
        .iter()
        .enumerate()
        .map(|(k, t)| {
            let u = (derive(seed, k as u64) >> 11) as f64 / (1u64 << 53) as f64;
            Term::new(t.coefficient * (1.0 + 2e-3 * (u - 0.5)), t.string.clone())
        })
        .collect();
    Hamiltonian::new(terms).expect("a perturbed Hamiltonian keeps its terms")
}

/// A random 20-qubit Hamiltonian of `terms` strings that no cache has seen:
/// the Table 2 generator's draw for a fixed per-size seed, perturbed by
/// `seed`. Its strings and coefficient scale, and so its flow and circuit
/// work, are the same in every run; its fingerprint is new in each.
fn fresh_random(terms: usize, seed: u64) -> Hamiltonian {
    let base = random_hamiltonian(&RandomHamiltonianParams {
        qubits: 20,
        terms,
        identity_bias: 0.6,
        seed: derive(0x7AB1E2, terms as u64),
    });
    perturbed(&base, seed)
}

impl MixInputs {
    pub fn generate(seed: u64, scale: Scale) -> MixInputs {
        let shape = mix_shape(scale);
        let small: Vec<(Hamiltonian, f64)> = SMALL_BENCHMARKS
            .iter()
            .map(|name| {
                let b = benchmark_by_name(name, SuiteScale::Reduced)
                    .expect("small-job benchmarks are Table 1 names");
                (b.hamiltonian, b.time)
            })
            .collect();
        let mut jobs = Vec::new();
        for i in 0..shape.small {
            let (ham, time) = &small[i % small.len()];
            let epsilon = DEFAULT_EPSILONS[i % DEFAULT_EPSILONS.len()];
            jobs.push(MixJob {
                class: JobClass::Small,
                label: format!("small-{i}"),
                hamiltonian: ham.clone(),
                strategy: TransitionStrategy::marqsim_gc(),
                time: *time,
                epsilon,
                seed: derive(seed, 2000 + i as u64),
                fidelity: false,
            });
        }
        for (i, &terms) in shape.cold_strings.iter().enumerate() {
            let ham = fresh_random(terms, derive(seed, 3000 + i as u64));
            for (k, strategy) in [
                TransitionStrategy::marqsim_gc(),
                TransitionStrategy::marqsim_gc_rp(),
            ]
            .into_iter()
            .enumerate()
            {
                jobs.push(MixJob {
                    class: JobClass::Cold,
                    label: format!("cold-{terms}-{}", strategy.label()),
                    hamiltonian: ham.clone(),
                    strategy,
                    time: FRAC_PI_4,
                    epsilon: epsilon_for_samples(&ham, FRAC_PI_4, COLD_SAMPLES),
                    seed: derive(seed, 4000 + (2 * i + k) as u64),
                    fidelity: false,
                });
            }
        }
        for (i, name) in FIDELITY_BENCHMARKS.iter().take(shape.fidelity).enumerate() {
            let b = benchmark_by_name(name, SuiteScale::Reduced)
                .expect("fidelity-job benchmarks are Table 1 names");
            let ham = perturbed(&b.hamiltonian, derive(seed, 5000 + i as u64));
            jobs.push(MixJob {
                class: JobClass::Fidelity,
                label: format!("fidelity-{i}"),
                epsilon: epsilon_for_samples(&ham, b.time, FIDELITY_SAMPLES),
                hamiltonian: ham,
                strategy: TransitionStrategy::marqsim_gc(),
                time: b.time,
                seed: derive(seed, 6000 + i as u64),
                fidelity: true,
            });
        }
        // A fixed order, so runs queue alike and only contents come from
        // the seed. Each client gets half the small jobs; one spreads the
        // fidelity jobs evenly among its share, the other the cold ones.
        // Two fidelity jobs (the largest allocations) never overlap.
        let (small, heavy): (Vec<_>, Vec<_>) =
            jobs.into_iter().partition(|j| j.class == JobClass::Small);
        let (cold, fidelity): (Vec<_>, Vec<_>) =
            heavy.into_iter().partition(|j| j.class == JobClass::Cold);
        let (small_a, small_b): (Vec<_>, Vec<_>) = small
            .into_iter()
            .enumerate()
            .partition(|(i, _)| i % MIX_CLIENTS == 0);
        let strip = |v: Vec<(usize, MixJob)>| v.into_iter().map(|(_, j)| j).collect();
        MixInputs {
            clients: vec![
                spread(strip(small_a), fidelity),
                spread(strip(small_b), cold),
            ],
        }
    }

    pub fn jobs(&self) -> impl Iterator<Item = &MixJob> {
        self.clients.iter().flatten()
    }

    pub fn len(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for (c, jobs) in self.clients.iter().enumerate() {
            d.u64(c as u64);
            for job in jobs {
                d.str(&job.label);
                d.hamiltonian(&job.hamiltonian);
                d.str(&job.strategy.label());
                d.f64(job.time);
                d.f64(job.epsilon);
                d.u64(job.seed);
                d.u64(u64::from(job.fidelity));
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_are_deterministic_for_a_seed() {
        for scale in [Scale::Full, Scale::Quick] {
            assert_eq!(
                SweepInputs::generate(7, scale).digest().finish(),
                SweepInputs::generate(7, scale).digest().finish()
            );
            assert_eq!(
                GateInputs::generate(7, scale).digest().finish(),
                GateInputs::generate(7, scale).digest().finish()
            );
            assert_eq!(
                MixInputs::generate(7, scale).digest().finish(),
                MixInputs::generate(7, scale).digest().finish()
            );
        }
    }

    #[test]
    fn two_seeds_give_different_inputs() {
        for scale in [Scale::Full, Scale::Quick] {
            assert_ne!(
                SweepInputs::generate(1, scale).digest().finish(),
                SweepInputs::generate(2, scale).digest().finish()
            );
            assert_ne!(
                GateInputs::generate(1, scale).digest().finish(),
                GateInputs::generate(2, scale).digest().finish()
            );
            assert_ne!(
                MixInputs::generate(1, scale).digest().finish(),
                MixInputs::generate(2, scale).digest().finish()
            );
        }
    }

    #[test]
    fn cold_hamiltonians_have_distinct_fingerprints() {
        // Every cold Hamiltonian must be a cache miss: no fingerprint may
        // repeat within a run, nor collide with a warm small-job one.
        let gate = GateInputs::generate(DEFAULT_SEED, Scale::Full);
        let gate_prints: HashSet<u64> = gate
            .requests
            .iter()
            .map(|r| hamiltonian_fingerprint(&r.hamiltonian))
            .collect();
        assert_eq!(
            gate_prints.len(),
            GateInputs::string_counts(Scale::Full).len()
        );

        let mix = MixInputs::generate(DEFAULT_SEED, Scale::Full);
        let prints = |class| -> Vec<u64> {
            mix.jobs()
                .filter(|j| j.class == class)
                .map(|j| hamiltonian_fingerprint(&j.hamiltonian))
                .collect()
        };
        let cold: HashSet<u64> = prints(JobClass::Cold).into_iter().collect();
        assert_eq!(cold.len(), mix_shape(Scale::Full).cold_strings.len());
        let fidelity = prints(JobClass::Fidelity);
        let distinct: HashSet<u64> = fidelity.iter().copied().collect();
        assert_eq!(distinct.len(), fidelity.len(), "fidelity jobs repeat an H");
        let small: HashSet<u64> = prints(JobClass::Small).into_iter().collect();
        assert!(small.len() <= SMALL_BENCHMARKS.len());
        assert!(cold.is_disjoint(&small) && distinct.is_disjoint(&small));
        assert!(cold.is_disjoint(&distinct));
    }

    #[test]
    fn mix_shape_is_fixed_and_seed_only_moves_contents() {
        for seed in [1, 2, 99] {
            let mix = MixInputs::generate(seed, Scale::Full);
            assert_eq!(mix.clients.len(), MIX_CLIENTS);
            assert_eq!(mix.len(), 100);
            let count = |class| mix.jobs().filter(|j| j.class == class).count();
            assert_eq!(count(JobClass::Small), 84);
            assert_eq!(count(JobClass::Cold), 12);
            assert_eq!(count(JobClass::Fidelity), 4);
        }
    }

    #[test]
    fn spread_interleaves_evenly_and_keeps_everything() {
        let out = spread(vec![0; 6], vec![1; 3]);
        assert_eq!(out, vec![0, 0, 1, 0, 0, 1, 0, 0, 1]);
        assert_eq!(spread(vec![0; 2], Vec::new()), vec![0, 0]);
        assert_eq!(spread(Vec::new(), vec![1; 2]), vec![1, 1]);
    }

    #[test]
    fn work_per_job_is_fixed_by_sample_counts() {
        // N = ⌈2λ²t²/ε⌉ must land on the fixed count whatever the seed.
        let n = |ham: &Hamiltonian, t: f64, eps: f64| {
            let l = ham.lambda();
            ((2.0 * l * l * t * t) / eps).ceil() as usize
        };
        for seed in [1, 2, 3, 42] {
            for r in GateInputs::generate(seed, Scale::Full).requests {
                let strings = r.hamiltonian.num_terms();
                assert_eq!(
                    n(&r.hamiltonian, r.config.time, r.config.epsilon),
                    GateInputs::samples(strings)
                );
            }
            for job in MixInputs::generate(seed, Scale::Full).jobs() {
                let want = match job.class {
                    JobClass::Cold => COLD_SAMPLES,
                    JobClass::Fidelity => FIDELITY_SAMPLES,
                    JobClass::Small => continue,
                };
                assert_eq!(
                    n(&job.hamiltonian, job.time, job.epsilon),
                    want,
                    "{}",
                    job.label
                );
            }
        }
    }

    #[test]
    fn hamiltonian_text_round_trips_exactly() {
        // Remote jobs ship Hamiltonians as text; the in-process reference
        // must see the same bits.
        let mix = MixInputs::generate(DEFAULT_SEED, Scale::Full);
        for job in mix.jobs() {
            let parsed = Hamiltonian::parse(&job.hamiltonian.to_string()).unwrap();
            assert_eq!(
                hamiltonian_fingerprint(&parsed),
                hamiltonian_fingerprint(&job.hamiltonian)
            );
        }
    }
}
