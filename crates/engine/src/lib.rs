//! # marqsim-engine — the parallel compilation engine
//!
//! MarQSim's evaluation loop recompiles the same Hamiltonian dozens of
//! times — once per `(strategy, ε, seed)` point — and every compile with a
//! gate-cancellation strategy re-solves the same min-cost-flow problem from
//! scratch. This crate turns that loop into a subsystem:
//!
//! * **[`ThreadPool`]** (`pool`) — a priority-aware thread-pool executor
//!   over `std::thread` with a shared injector queue (dynamic load
//!   balancing), three scheduling lanes ([`Priority`]), and per-task panic
//!   isolation.
//! * **[`TransitionCache`]** (`cache`) — validated HTT graphs keyed by a
//!   structural Hamiltonian fingerprint plus a strategy key, so the
//!   MCFP-derived `P_gc` — the dominant compile cost — is solved once and
//!   shared across all shots and sweep points of a benchmark (and, at the
//!   component level, across the GC and GC-RP strategies). The cache is
//!   sharded by fingerprint over per-mutex shards (`shard`), bounded by a
//!   per-shard LRU entry cap, and can persist solved `P_gc` matrices to
//!   disk in a versioned binary format with full-Hamiltonian
//!   re-verification on load. [`CacheStats`] exposes
//!   hit/miss/eviction/flow-solve/disk counters.
//! * **The open job API** (`workload`) — the [`Workload`] trait: anything
//!   with a label, a unit count, and a `run` body is submittable. A running
//!   workload is handed a [`WorkloadCtx`] (shared cache, pool fan-out,
//!   cancellation checkpoint, throttled progress sink); submission is
//!   parameterized by a typed [`SubmitOptions`] builder (priority,
//!   admission bound, progress cadence). Built-ins: [`CompileWorkload`],
//!   [`SweepWorkload`], [`PerturbAverageWorkload`] (parallel `P_rp`
//!   averaging), and [`BenchmarkSuiteWorkload`] (multi-Hamiltonian ×
//!   multi-strategy sweep grids).
//! * **Asynchronous submission** (`job`) — [`Engine::submit`] returns a
//!   [`JobHandle`] carrying an engine-unique [`JobId`], cooperative
//!   cancellation ([`CancelToken`]), a live progress snapshot, and blocking
//!   ([`JobHandle::collect`]) or non-blocking ([`JobHandle::try_collect`])
//!   outcome collection. This is the layer the `marqsim-serve` TCP
//!   front-end multiplexes client connections onto.
//!
//! # Job model
//!
//! Every run goes through [`Workload::run`] with a [`WorkloadCtx`]. The
//! built-in compile and sweep workloads hand the context a *batch* of one
//! job kind — compiles or sweeps, never mixed — which runs in two phases:
//! the engine first resolves one HTT graph per job (through the cache,
//! builds running concurrently on the pool), then expands every job into
//! *point-level tasks* — one task per compile request, one per
//! `(ε, repetition)` sweep point — on a single work queue. Tasks from
//! different jobs interleave, so many small sweeps load-balance exactly as
//! well as one large one. Custom workloads get the same pool through
//! [`WorkloadCtx::map`].
//!
//! # Determinism
//!
//! Parallel execution is bit-identical to serial execution. Two mechanisms
//! guarantee this:
//!
//! 1. **Deterministic per-job seed streams.** A task's RNG seed comes from
//!    its position in the request (`experiment::point_seed` — the same
//!    formula the serial driver uses), never from scheduling order.
//! 2. **Pure tasks, indexed reassembly.** Each task's output is a pure
//!    function of its request, and outputs are reassembled by index, not by
//!    completion order.
//!
//! Consequently `Engine::run_sweep` with any thread count (including via
//! the `MARQSIM_THREADS` override) returns byte-identical `SweepResult`
//! data to `marqsim_core::experiment::run_sweep`, and neither caching nor
//! scheduling priority can change results — only latency. (Every engine
//! caches: a lookup confirms full Hamiltonian equality, so a cached graph
//! is the graph a fresh build would produce.)
//!
//! # Environment
//!
//! [`Engine::from_env`] reads four variables; unset or empty means "use
//! the default", and any unparsable value is a hard
//! [`EngineError::InvalidConfig`] naming the offending setting — never a
//! silent fallback.
//!
//! * `MARQSIM_THREADS=N` — worker count (positive integer); unset means
//!   all available cores.
//! * `MARQSIM_CACHE_CAP=N` — LRU entry cap per cache shard
//!   (`0` = unbounded; default [`cache::DEFAULT_CACHE_CAP`]).
//! * `MARQSIM_CACHE_DIR=PATH` — persist solved `P_gc` matrices under
//!   `PATH` and reload them in later processes.
//! * `MARQSIM_FLOW_SOLVER=ssp|network_simplex|auto` — default min-cost-flow
//!   backend ([`SolverKind`]; default `auto`, which picks `ssp` up to
//!   [`SolverKind::AUTO_SSP_MAX_STRINGS`] strings and `network_simplex`
//!   above); per-job override via [`SubmitOptions::with_flow_solver`].
//!
//! # Example
//!
//! ```
//! use marqsim_engine::{Engine, EngineConfig, SweepRequest, SweepWorkload};
//! use marqsim_core::experiment::{run_sweep, SweepConfig};
//! use marqsim_core::TransitionStrategy;
//! use marqsim_pauli::Hamiltonian;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ham = Hamiltonian::parse("0.9 ZZZZ + 0.7 XXII + 0.5 IYYI + 0.3 IIZZ")?;
//! let config = SweepConfig::quick(0.5);
//! let strategy = TransitionStrategy::marqsim_gc();
//!
//! let engine = Engine::new(EngineConfig::default().with_threads(4));
//! let workload = SweepWorkload::new(SweepRequest::new(
//!     "example",
//!     ham.clone(),
//!     strategy.clone(),
//!     config.clone(),
//! ));
//! let parallel = engine.run_workload(&workload)?.into_swept();
//! let serial = run_sweep(&ham, &strategy, &config)?;
//! for (p, s) in parallel.points.iter().zip(&serial.points) {
//!     assert_eq!(p.seed, s.seed);
//!     assert_eq!(p.stats, s.stats);
//! }
//! # Ok(())
//! # }
//! ```

mod engine;
mod error;
mod persist;

pub mod cache;
pub mod job;
pub mod pool;
pub mod shard;
pub mod workload;

pub use cache::{
    hamiltonian_fingerprint, CacheConfig, CacheKey, CacheStats, StrategyKey, TransitionCache,
};
pub use engine::{CompileOutcome, CompileRequest, Engine, EngineConfig, Progress, SweepRequest};
pub use error::EngineError;
pub use job::{CancelToken, JobControl, JobHandle, JobId};
/// Re-export of the min-cost-flow backend selector, so engine/serve callers
/// pick a backend without a direct `marqsim-flow` dependency.
pub use marqsim_core::SolverKind;
pub use pool::{Priority, ThreadPool};
pub use shard::ShardedLru;
pub use workload::{
    BenchmarkSuiteResult, BenchmarkSuiteWorkload, CompileWorkload, PerturbAverageResult,
    PerturbAverageWorkload, ProgressCadence, SubmitOptions, SuiteCase, SuiteCaseResult,
    SweepWorkload, Workload, WorkloadCtx, WorkloadOutput,
};

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_core::experiment::{run_sweep, SweepConfig};
    use marqsim_core::perturb::{perturbed_matrix_sample, PerturbationConfig};
    use marqsim_core::{CompilerConfig, TransitionStrategy};
    use marqsim_markov::combine::combine;
    use marqsim_pauli::Hamiltonian;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    fn ham() -> Hamiltonian {
        Hamiltonian::parse(
            "0.9 ZZZZ + 0.8 ZZIZ + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY + 0.3 IZIZ + 0.2 YYII",
        )
        .unwrap()
    }

    fn sweep_workload(
        label: &str,
        strategy: TransitionStrategy,
        config: SweepConfig,
    ) -> SweepWorkload {
        SweepWorkload::new(SweepRequest::new(label, ham(), strategy, config))
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_serial() {
        let config = SweepConfig {
            time: 0.5,
            epsilons: vec![0.1, 0.05],
            repeats: 4,
            base_seed: 9,
            evaluate_fidelity: false,
        };
        for strategy in [
            TransitionStrategy::QDrift,
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
        ] {
            let serial = run_sweep(&ham(), &strategy, &config).unwrap();
            for threads in [1, 4] {
                let engine = Engine::new(EngineConfig::default().with_threads(threads));
                let parallel = engine.run_sweep(&ham(), &strategy, &config).unwrap();
                assert_eq!(parallel.label, serial.label);
                assert_eq!(parallel.points.len(), serial.points.len());
                for (p, s) in parallel.points.iter().zip(&serial.points) {
                    assert_eq!(p.seed, s.seed, "{strategy:?} @ {threads} threads");
                    assert_eq!(p.epsilon.to_bits(), s.epsilon.to_bits());
                    assert_eq!(p.num_samples, s.num_samples);
                    assert_eq!(p.stats, s.stats);
                    assert_eq!(
                        p.fidelity.map(f64::to_bits),
                        s.fidelity.map(f64::to_bits),
                        "fidelity must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_points_hit_the_transition_cache() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();
        engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let first = engine.cache().stats();
        assert_eq!(first.misses, 1, "one graph build for the whole sweep");

        // A second identical sweep is answered entirely from the cache and
        // returns the identical transition matrix.
        let graph_a = engine.cache().get_or_build(&ham(), &strategy).unwrap();
        engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let graph_b = engine.cache().get_or_build(&ham(), &strategy).unwrap();
        assert!(Arc::ptr_eq(&graph_a, &graph_b));
        let second = engine.cache().stats();
        assert_eq!(second.misses, 1, "no further builds");
        assert!(second.hits >= 3);
    }

    #[test]
    fn benchmark_suite_workload_matches_single_sweeps_and_shares_pgc() {
        let sweep_config = SweepConfig {
            time: 0.5,
            epsilons: vec![0.1],
            repeats: 2,
            base_seed: 4,
            evaluate_fidelity: false,
        };
        let strategies = [
            TransitionStrategy::QDrift,
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
        ];
        let reference = Engine::new(EngineConfig::default().with_threads(3));
        let expected: Vec<_> = strategies
            .iter()
            .map(|s| reference.run_sweep(&ham(), s, &sweep_config))
            .collect();

        let engine = Engine::new(EngineConfig::default().with_threads(3));
        let suite = BenchmarkSuiteWorkload::new("suite").grid(
            vec![("bench".to_string(), ham())],
            &strategies,
            |_| sweep_config.clone(),
        );
        assert_eq!(suite.len(), 3);
        assert_eq!(suite.total_units(), 3 * 2);
        let result: BenchmarkSuiteResult = engine
            .run_workload(&suite)
            .unwrap()
            .downcast()
            .expect("suite output");
        assert_eq!(result.cases.len(), 3);
        for (case, expected) in result.cases.iter().zip(&expected) {
            let expected = expected.as_ref().unwrap();
            assert_eq!(case.benchmark, "bench");
            assert_eq!(case.sweep.label, expected.label);
            for (a, b) in case.sweep.points.iter().zip(&expected.points) {
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.stats, b.stats);
            }
        }
        assert!(result.sweep("bench", "Baseline").is_some());
        assert!(result.sweep("bench", "nope").is_none());

        // The GC and GC-RP cases shared one P_gc component, exactly like
        // the old closed-enum batch did.
        assert_eq!(engine.cache().stats().component_hits, 1);
    }

    #[test]
    fn duplicate_jobs_in_one_batch_build_exactly_once() {
        // Same (Hamiltonian, strategy) four times plus GC-RP once: dedup
        // happens before dispatch, so the counts are exact on any machine —
        // no racing same-key misses (and GC-RP reuses GC's P_gc because
        // same-fingerprint keys build sequentially in one pool task).
        let engine = Engine::new(EngineConfig::default().with_threads(4));
        let config = SweepConfig {
            time: 0.5,
            epsilons: vec![0.1],
            repeats: 1,
            base_seed: 2,
            evaluate_fidelity: false,
        };
        let mut suite = BenchmarkSuiteWorkload::new("dup");
        for i in 0..4 {
            suite = suite.case(
                format!("dup/{i}"),
                ham(),
                TransitionStrategy::marqsim_gc(),
                config.clone(),
            );
        }
        suite = suite.case(
            "dup/gc-rp",
            ham(),
            TransitionStrategy::marqsim_gc_rp(),
            config,
        );
        assert!(engine.run_workload(&suite).is_ok());
        let stats = engine.cache().stats();
        assert_eq!(stats.misses, 2, "one build per distinct key");
        assert_eq!(stats.graphs, 2);
        assert_eq!(stats.components, 1);
        assert_eq!(stats.component_hits, 1, "GC-RP reused GC's P_gc");
    }

    #[test]
    fn compile_errors_carry_the_job_label() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let outcomes = engine.compile_many(vec![
            CompileRequest::new(
                "jobs/good",
                ham(),
                CompilerConfig::new(0.5, 0.1).with_seed(1),
            ),
            CompileRequest::new(
                "jobs/bad-epsilon",
                ham(),
                CompilerConfig::new(0.5, -1.0).with_seed(1),
            ),
        ]);
        assert!(outcomes[0].is_ok());
        let err = outcomes[1].as_ref().unwrap_err();
        assert_eq!(err.label(), "jobs/bad-epsilon");
        assert!(err.to_string().contains("precision"));
    }

    #[test]
    fn engine_map_runs_arbitrary_work() {
        let engine = Engine::new(EngineConfig::default().with_threads(3));
        let squares = engine.map("squares", (0..20u64).collect(), |_, x| x * x);
        for (i, result) in squares.iter().enumerate() {
            assert_eq!(*result.as_ref().unwrap(), (i * i) as u64);
        }
    }

    #[test]
    fn engine_map_panics_carry_the_label() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let out = engine.map("labelled", vec![1u32, 2, 3], |_, x| {
            if x == 2 {
                panic!("boom {x}");
            }
            x
        });
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.label(), "labelled");
        assert!(matches!(err, EngineError::WorkerPanic { .. }));
        assert!(err.to_string().contains("boom 2"));
    }

    #[test]
    fn env_config_parses_thread_override() {
        // Not a full env-var round trip (the suite runs multi-threaded and
        // env vars are process-global); parsing goes through
        // `EngineConfig::from_values`, the pure core of `from_env`.
        let config = EngineConfig::default();
        assert_eq!(config.threads, 0, "0 means auto");
        assert_eq!(config.with_threads(3).threads, 3);

        let parsed = EngineConfig::from_values(Some("6"), None, None, None).unwrap();
        assert_eq!(parsed.threads, 6);
    }

    #[test]
    fn invalid_thread_overrides_are_hard_errors() {
        // MARQSIM_THREADS=0 and garbage used to silently fall back to
        // "auto"; both must now produce a clear InvalidConfig.
        for bad in ["0", "garbage", "-2", "1.5"] {
            let err = EngineConfig::from_values(Some(bad), None, None, None).unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidConfig { .. }),
                "MARQSIM_THREADS={bad}"
            );
            assert!(err.to_string().contains("MARQSIM_THREADS"), "{err}");
        }
    }

    #[test]
    fn invalid_cache_switches_and_caps_are_hard_errors() {
        let err = EngineConfig::from_values(None, Some("lots"), None, None).unwrap_err();
        assert!(err.to_string().contains("MARQSIM_CACHE_CAP"));
    }

    #[test]
    fn cache_cap_and_dir_reach_the_cache_config() {
        let config =
            EngineConfig::from_values(None, Some("17"), Some("/tmp/marqsim-cc"), None).unwrap();
        assert_eq!(config.cache.cap_per_shard, 17);
        assert_eq!(
            config.cache.persist_dir.as_deref(),
            Some(std::path::Path::new("/tmp/marqsim-cc"))
        );
        let engine = Engine::new(config.with_threads(1));
        assert_eq!(engine.cache().cap_per_shard(), 17);
        assert!(engine.cache().persist_dir().is_some());
    }

    #[test]
    fn bounded_cache_sweeps_stay_bit_identical_to_serial() {
        // A one-entry-per-shard cache evicts constantly across the three
        // strategies; results must still match the uncached serial driver
        // bit for bit, and the cap must hold throughout.
        let config = SweepConfig {
            time: 0.5,
            epsilons: vec![0.1, 0.05],
            repeats: 3,
            base_seed: 11,
            evaluate_fidelity: false,
        };
        let cache_config = CacheConfig::default().with_shards(1).with_cap(1);
        let engine = Engine::new(
            EngineConfig::default()
                .with_threads(4)
                .with_cache_config(cache_config),
        );
        for strategy in [
            TransitionStrategy::QDrift,
            TransitionStrategy::marqsim_gc(),
            TransitionStrategy::marqsim_gc_rp(),
        ] {
            let serial = run_sweep(&ham(), &strategy, &config).unwrap();
            let bounded = engine.run_sweep(&ham(), &strategy, &config).unwrap();
            for (p, s) in bounded.points.iter().zip(&serial.points) {
                assert_eq!(p.seed, s.seed, "{strategy:?}");
                assert_eq!(p.stats, s.stats, "{strategy:?}");
            }
            assert!(
                engine
                    .cache()
                    .graph_shard_lens()
                    .iter()
                    .all(|&len| len <= 1),
                "cap exceeded"
            );
        }
        assert!(engine.cache().stats().evictions >= 2);
    }

    #[test]
    fn submitted_jobs_carry_unique_ids_and_match_synchronous_results() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();
        let serial = run_sweep(&ham(), &strategy, &config).unwrap();

        let handles: Vec<_> = (0..3)
            .map(|i| {
                engine.submit(sweep_workload(
                    &format!("async/{i}"),
                    strategy.clone(),
                    config.clone(),
                ))
            })
            .collect();
        let mut ids: Vec<u64> = handles.iter().map(|h| h.id().0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 3, "ids are unique");
        assert_eq!(ids, vec![1, 2, 3], "ids increase in submission order");

        for handle in handles {
            assert_eq!(handle.label().len(), "async/0".len());
            let swept = handle.collect().unwrap().into_swept();
            for (p, s) in swept.points.iter().zip(&serial.points) {
                assert_eq!(p.seed, s.seed);
                assert_eq!(p.stats, s.stats);
            }
        }
        assert_eq!(engine.active_jobs(), 0, "all coordinators retired");
    }

    #[test]
    fn try_collect_is_none_while_running_and_some_exactly_once() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let mut handle = engine.submit(sweep_workload(
            "async/poll",
            TransitionStrategy::QDrift,
            SweepConfig::quick(0.5),
        ));
        // Poll until the outcome arrives; every pre-completion poll is None.
        let outcome = loop {
            match handle.try_collect() {
                Some(outcome) => break outcome,
                None => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        };
        assert_eq!(outcome.unwrap().into_swept().points.len(), 6);
        assert!(
            handle.try_collect().is_none(),
            "the outcome is delivered exactly once"
        );
        assert!(handle.progress().completed == handle.progress().total);
    }

    #[test]
    fn cancelled_jobs_resolve_to_the_cancelled_error() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(1)));
        // Cancel before submission is observable: the job is cancelled on
        // the handle immediately, so at the latest the first task boundary
        // (and at best the pre-run check) stops it.
        let handle = engine.submit(sweep_workload(
            "async/cancelled",
            TransitionStrategy::QDrift,
            SweepConfig {
                time: 0.5,
                epsilons: vec![0.1; 8],
                repeats: 8,
                base_seed: 1,
                evaluate_fidelity: false,
            },
        ));
        handle.cancel();
        let control = handle.control();
        match handle.collect() {
            Err(EngineError::Cancelled { label }) => assert_eq!(label, "async/cancelled"),
            // The race where the sweep finished before the flag was seen is
            // legal but essentially impossible for a 64-point sweep on one
            // worker; treat it as a failure so a broken cancellation path
            // cannot hide behind it.
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert!(control.is_cancelled());
        assert!(control.is_finished());
    }

    #[test]
    fn submitted_job_progress_reaches_the_callback() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let handle = engine.submit_with_options(
            sweep_workload(
                "async/progress",
                TransitionStrategy::QDrift,
                SweepConfig::quick(0.5),
            ),
            SubmitOptions::default(),
            move |progress| {
                seen.fetch_add(1, Ordering::Relaxed);
                assert!(progress.completed <= progress.total);
            },
        );
        handle.collect().unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 6, "one call per point");
    }

    #[test]
    fn progress_cadence_coalesces_events_but_keeps_the_final_one() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let events = Arc::new(Mutex::new(Vec::<Progress>::new()));
        let sink = Arc::clone(&events);
        let handle = engine.submit_with_options(
            sweep_workload(
                "async/throttled",
                TransitionStrategy::QDrift,
                SweepConfig {
                    time: 0.5,
                    epsilons: vec![0.1, 0.05],
                    repeats: 6,
                    base_seed: 1,
                    evaluate_fidelity: false,
                },
            ),
            SubmitOptions::new().with_progress_every(ProgressCadence::every(5)),
            move |progress| sink.lock().unwrap().push(progress),
        );
        handle.collect().unwrap();
        let events = events.lock().unwrap();
        assert!(
            events.len() <= 4,
            "12 points at cadence 5 must coalesce, got {} events",
            events.len()
        );
        let last = events.last().expect("final event always delivered");
        assert_eq!((last.completed, last.total), (12, 12));
        for pair in events.windows(2) {
            assert!(pair[0].completed < pair[1].completed, "monotone events");
        }
    }

    #[test]
    fn perturb_average_workload_is_deterministic_across_thread_counts() {
        let config = PerturbationConfig {
            samples: 6,
            seed: 13,
            ..Default::default()
        };
        // The reference: serial combination of the independently seeded
        // samples the workload is specified to average.
        let matrices: Vec<_> = (0..config.samples)
            .map(|i| {
                perturbed_matrix_sample(&ham(), &config, i, SolverKind::default(), None)
                    .unwrap()
                    .0
            })
            .collect();
        let weights = vec![1.0 / config.samples as f64; config.samples];
        let expected = combine(&matrices, &weights).unwrap();

        for threads in [1, 4] {
            let engine = Engine::new(EngineConfig::default().with_threads(threads));
            let result: PerturbAverageResult = engine
                .run_workload(&PerturbAverageWorkload::new("prp", ham(), config))
                .unwrap()
                .downcast()
                .expect("perturb output");
            assert_eq!(result.samples, config.samples);
            assert_eq!(result.matrix, expected, "{threads} threads");
            assert!(result
                .matrix
                .preserves_distribution(&ham().stationary_distribution(), 1e-8));
        }
    }

    #[test]
    fn perturb_average_workload_warm_starts_from_one_cold_solve() {
        let config = PerturbationConfig {
            samples: 6,
            seed: 13,
            ..Default::default()
        };
        // Simplex backend: sample 0 solves cold and exports its basis, the
        // other samples re-pivot — the stats window must read exactly
        // flow_solves = 1, warm_starts = samples - 1.
        let cache_config = CacheConfig::default().with_flow_solver(SolverKind::NetworkSimplex);
        let mut results = Vec::new();
        for threads in [1, 4] {
            let engine = Engine::new(
                EngineConfig::default()
                    .with_threads(threads)
                    .with_cache_config(cache_config.clone()),
            );
            let before = engine.cache().stats();
            let result: PerturbAverageResult = engine
                .run_workload(&PerturbAverageWorkload::new("prp-warm", ham(), config))
                .unwrap()
                .downcast()
                .expect("perturb output");
            let delta = engine.cache().stats().delta_since(&before);
            assert_eq!(delta.flow_solves, 1, "{threads} threads: one cold solve");
            assert_eq!(delta.flow_solves_simplex, 1, "{threads} threads");
            assert_eq!(
                delta.warm_starts,
                config.samples as u64 - 1,
                "{threads} threads: every other sample re-pivots"
            );
            assert!(result
                .matrix
                .preserves_distribution(&ham().stationary_distribution(), 1e-8));
            results.push(result.matrix);
        }
        assert_eq!(
            results[0], results[1],
            "warm averaging is deterministic across thread counts"
        );

        // The default backend has no warm support: every sample solves
        // cold and is attributed as a plain flow solve.
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let before = engine.cache().stats();
        engine
            .run_workload(&PerturbAverageWorkload::new("prp-cold", ham(), config))
            .unwrap();
        let delta = engine.cache().stats().delta_since(&before);
        assert_eq!(delta.flow_solves, config.samples as u64);
        assert_eq!(delta.warm_starts, 0);
    }

    #[test]
    fn high_priority_submissions_produce_identical_results() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();
        let normal = engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let handle = engine.submit_with_options(
            sweep_workload("async/high", strategy, config),
            SubmitOptions::new().with_priority(Priority::High),
            |_| {},
        );
        let high = handle.collect().unwrap().into_swept();
        for (a, b) in high.points.iter().zip(&normal.points) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn panicking_custom_workloads_resolve_as_worker_panics() {
        struct Bomb;
        impl Workload for Bomb {
            fn label(&self) -> &str {
                "bomb"
            }
            fn total_units(&self) -> usize {
                1
            }
            fn run(&self, _ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
                panic!("workload body exploded");
            }
        }
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(1)));
        let handle = engine.submit(Bomb);
        match handle.collect() {
            Err(EngineError::WorkerPanic { label, message }) => {
                assert_eq!(label, "bomb");
                assert!(message.contains("exploded"));
            }
            other => panic!("expected a worker panic, got {other:?}"),
        }
        assert_eq!(engine.active_jobs(), 0, "accounting survives the panic");
        // The engine still runs jobs afterwards.
        engine
            .run_sweep(
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
    }

    #[test]
    fn flow_solver_env_values_parse_strictly() {
        let parsed = EngineConfig::from_values(None, None, None, Some("network_simplex")).unwrap();
        assert_eq!(parsed.cache.flow_solver, SolverKind::NetworkSimplex);
        let parsed = EngineConfig::from_values(None, None, None, Some("ssp")).unwrap();
        assert_eq!(parsed.cache.flow_solver, SolverKind::SuccessiveShortestPath);
        let err = EngineConfig::from_values(None, None, None, Some("dijkstra")).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig { .. }));
        assert!(err.to_string().contains("MARQSIM_FLOW_SOLVER"), "{err}");
        assert!(err.to_string().contains("network_simplex"), "{err}");
    }

    #[test]
    fn flow_solver_selection_is_cached_and_attributed_per_backend() {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
        assert_eq!(engine.flow_solver(), SolverKind::Auto);
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();

        // `Auto` resolves the tiny test Hamiltonian to the SSP backend, so
        // the solve is attributed there.
        engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let stats = engine.cache().stats();
        assert_eq!(stats.flow_solves_ssp, 1);
        assert_eq!(stats.flow_solves_simplex, 0);
        assert_eq!(stats.flow_solves, 1);

        // Per-job override: its own cache entry, attributed to the simplex
        // backend.
        let ns_options = SubmitOptions::new().with_flow_solver(SolverKind::NetworkSimplex);
        let handle = engine.submit_with_options(
            sweep_workload("async/ns", strategy.clone(), config.clone()),
            ns_options.clone(),
            |_| {},
        );
        let swept = handle.collect().unwrap().into_swept();
        assert_eq!(swept.points.len(), 6);
        let stats = engine.cache().stats();
        assert_eq!(stats.flow_solves_simplex, 1);
        assert_eq!(stats.flow_solves, 2);
        assert_eq!(stats.misses, 2, "the backend is part of the cache key");

        // Repeats under the same override are pure cache hits.
        let handle = engine.submit_with_options(
            sweep_workload("async/ns2", strategy, config),
            ns_options,
            |_| {},
        );
        handle.collect().unwrap();
        let stats = engine.cache().stats();
        assert_eq!(stats.flow_solves, 2, "no further solves");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn network_simplex_engine_sweeps_are_deterministic_across_thread_counts() {
        // The alternate backend has the same determinism contract as the
        // default: the sweep outcome is a pure function of the request.
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();
        let cache_config = CacheConfig::default().with_flow_solver(SolverKind::NetworkSimplex);
        let reference = Engine::new(
            EngineConfig::default()
                .with_threads(1)
                .with_cache_config(cache_config.clone()),
        );
        assert_eq!(reference.flow_solver(), SolverKind::NetworkSimplex);
        let expected = reference.run_sweep(&ham(), &strategy, &config).unwrap();
        for threads in [2, 4] {
            let engine = Engine::new(
                EngineConfig::default()
                    .with_threads(threads)
                    .with_cache_config(cache_config.clone()),
            );
            let swept = engine.run_sweep(&ham(), &strategy, &config).unwrap();
            for (a, b) in swept.points.iter().zip(&expected.points) {
                assert_eq!(a.seed, b.seed, "{threads} threads");
                assert_eq!(a.stats, b.stats, "{threads} threads");
            }
            assert_eq!(engine.cache().stats().flow_solves_simplex, 1);
        }
    }

    #[test]
    fn cache_stats_delta_isolates_one_window() {
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let config = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();
        engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let warm = engine.cache().stats();
        assert_eq!(warm.flow_solves, 1);

        engine.run_sweep(&ham(), &strategy, &config).unwrap();
        let delta = engine.cache().stats().delta_since(&warm);
        assert_eq!(delta.flow_solves, 0, "second sweep solved nothing");
        assert_eq!(delta.misses, 0);
        assert!(delta.hits >= 1);
        assert_eq!(delta.graphs, 1, "gauges keep the later snapshot");
    }

    #[test]
    fn persistent_engines_share_flow_solves_across_processes() {
        // Two engines with the same persistence directory model two
        // processes: the second performs zero min-cost-flow solves.
        let dir =
            std::env::temp_dir().join(format!("marqsim-engine-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            EngineConfig::default()
                .with_threads(2)
                .with_cache_config(CacheConfig::default().with_persist_dir(&dir))
        };
        let sweep = SweepConfig::quick(0.5);
        let strategy = TransitionStrategy::marqsim_gc();

        let first = Engine::new(config());
        let warm = first.run_sweep(&ham(), &strategy, &sweep).unwrap();
        assert_eq!(first.cache().stats().flow_solves, 1);
        assert_eq!(first.cache().stats().disk_writes, 1);

        let second = Engine::new(config());
        let reloaded = second.run_sweep(&ham(), &strategy, &sweep).unwrap();
        let stats = second.cache().stats();
        assert_eq!(stats.flow_solves, 0, "P_gc loaded from disk");
        assert_eq!(stats.disk_hits, 1);
        for (a, b) in warm.points.iter().zip(&reloaded.points) {
            assert_eq!(a.stats, b.stats, "disk-loaded sweep is identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
