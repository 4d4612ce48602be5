//! End-to-end tests of the parallel compilation engine through the facade:
//! determinism of parallel sweeps against the serial driver, transition-cache
//! behaviour, and a multi-benchmark batch across all three strategies.

use std::sync::Arc;

use marqsim::core::experiment::{run_sweep, SweepConfig};
use marqsim::core::TransitionStrategy;
use marqsim::engine::{BenchmarkSuiteResult, BenchmarkSuiteWorkload, Engine, EngineConfig};
use marqsim::hamlib::suite::{table1_names, table1_suite, SuiteScale};
use marqsim::pauli::Hamiltonian;

fn benchmark_hamiltonian() -> Hamiltonian {
    Hamiltonian::parse(
        "0.9 ZZZZ + 0.8 ZZIZ + 0.7 XXII + 0.6 IYYI + 0.5 IIZZ + 0.4 XYXY + 0.3 IZIZ + 0.2 YYII",
    )
    .unwrap()
}

#[test]
fn parallel_sweep_reproduces_the_serial_sweep_bit_for_bit() {
    let ham = benchmark_hamiltonian();
    let config = SweepConfig {
        time: 0.5,
        epsilons: vec![0.1, 0.05, 0.033],
        repeats: 3,
        base_seed: 17,
        evaluate_fidelity: true,
    };
    let strategy = TransitionStrategy::marqsim_gc();
    let serial = run_sweep(&ham, &strategy, &config).unwrap();
    let engine = Engine::new(EngineConfig::default().with_threads(4));
    let parallel = engine.run_sweep(&ham, &strategy, &config).unwrap();

    assert_eq!(parallel.label, serial.label);
    assert_eq!(parallel.points.len(), serial.points.len());
    for (p, s) in parallel.points.iter().zip(&serial.points) {
        assert_eq!(p.epsilon.to_bits(), s.epsilon.to_bits());
        assert_eq!(p.seed, s.seed);
        assert_eq!(p.num_samples, s.num_samples);
        assert_eq!(p.stats, s.stats);
        assert_eq!(p.fidelity.map(f64::to_bits), s.fidelity.map(f64::to_bits));
    }
    // Derived aggregates therefore agree exactly as well.
    let (serial_clusters, parallel_clusters) =
        (serial.cluster_summaries(), parallel.cluster_summaries());
    assert_eq!(serial_clusters, parallel_clusters);
}

#[test]
fn fidelity_sweeps_match_the_serial_driver_bit_for_bit_at_any_thread_count() {
    // Two sweeps of one Hamiltonian in one batch share the cached graph but
    // not their exact unitary: each scores against exp(iHt) at its own t.
    let ham = benchmark_hamiltonian();
    let strategy = TransitionStrategy::marqsim_gc();
    let configs: Vec<SweepConfig> = [0.5, 0.8]
        .into_iter()
        .map(|time| SweepConfig {
            time,
            epsilons: vec![0.1, 0.05],
            repeats: 2,
            base_seed: 29,
            evaluate_fidelity: true,
        })
        .collect();
    let serial: Vec<_> = configs
        .iter()
        .map(|config| run_sweep(&ham, &strategy, config).unwrap())
        .collect();
    for threads in [1, 3] {
        let engine = Engine::new(EngineConfig::default().with_threads(threads));
        let suite = configs
            .iter()
            .fold(BenchmarkSuiteWorkload::new("fidelity"), |suite, config| {
                suite.case("fidelity", ham.clone(), strategy.clone(), config.clone())
            });
        let result: BenchmarkSuiteResult = engine
            .run_workload(&suite)
            .unwrap()
            .downcast()
            .expect("suite output");
        for (parallel, serial) in result.sweeps().zip(&serial) {
            assert_eq!(parallel.points.len(), serial.points.len());
            for (p, s) in parallel.points.iter().zip(&serial.points) {
                assert_eq!(p.stats, s.stats, "{threads} threads");
                assert!(p.fidelity.is_some());
                assert_eq!(
                    p.fidelity.map(f64::to_bits),
                    s.fidelity.map(f64::to_bits),
                    "{threads} threads, seed {}",
                    p.seed
                );
            }
        }
    }
}

#[test]
fn repeated_compiles_of_one_benchmark_hit_the_cache() {
    let ham = benchmark_hamiltonian();
    let strategy = TransitionStrategy::marqsim_gc();
    let engine = Engine::new(EngineConfig::default().with_threads(2));

    let first = engine.cache().get_or_build(&ham, &strategy).unwrap();
    let second = engine.cache().get_or_build(&ham, &strategy).unwrap();
    assert!(Arc::ptr_eq(&first, &second), "hit returns the cached graph");
    assert_eq!(
        first.transition_matrix().rows(),
        second.transition_matrix().rows(),
        "and therefore the identical transition matrix"
    );
    let stats = engine.cache().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // A whole sweep over the same benchmark adds no further builds.
    engine
        .run_sweep(&ham, &strategy, &SweepConfig::quick(0.5))
        .unwrap();
    assert_eq!(engine.cache().stats().misses, 1);
}

#[test]
fn multi_benchmark_batch_across_all_three_strategies() {
    let engine = Engine::new(EngineConfig::default().with_threads(4));
    let names = &table1_names()[..2];
    let strategies = [
        TransitionStrategy::QDrift,
        TransitionStrategy::marqsim_gc(),
        TransitionStrategy::marqsim_gc_rp(),
    ];
    let suite: Vec<_> = table1_suite(SuiteScale::Reduced)
        .into_iter()
        .filter(|b| names.contains(&b.name))
        .collect();
    assert_eq!(suite.len(), 2);

    let config = SweepConfig {
        time: 0.5,
        epsilons: vec![0.1],
        repeats: 2,
        base_seed: 5,
        evaluate_fidelity: false,
    };
    let workload = BenchmarkSuiteWorkload::new("batch").grid(
        suite
            .iter()
            .map(|bench| (bench.name.to_string(), bench.hamiltonian.clone())),
        &strategies,
        |_| config.clone(),
    );
    let outcomes: BenchmarkSuiteResult = engine
        .run_workload(&workload)
        .expect("sweep succeeds")
        .downcast()
        .expect("suite output");
    assert_eq!(outcomes.cases.len(), suite.len() * strategies.len());
    for sweep in outcomes.sweeps() {
        assert_eq!(sweep.points.len(), 2);
        for point in &sweep.points {
            assert!(point.num_samples > 0);
            assert!(point.stats.cnot > 0);
        }
    }

    let stats = engine.cache().stats();
    assert_eq!(stats.graphs, 6, "one graph per (benchmark, strategy)");
    assert_eq!(
        stats.components, 2,
        "one P_gc per benchmark, shared by GC and GC-RP"
    );
    assert_eq!(stats.component_hits, 2);
}

#[test]
fn bounded_persistent_engine_matches_serial_and_skips_resolves_on_reload() {
    // The full cache subsystem through the facade: a sharded one-entry
    // cache with persistence produces serial-identical sweeps, honours the
    // per-shard cap, and a second engine on the same directory (a simulated
    // new process) performs zero min-cost-flow solves.
    use marqsim::engine::CacheConfig;

    let dir = std::env::temp_dir().join(format!("marqsim-it-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ham = benchmark_hamiltonian();
    let config = SweepConfig {
        time: 0.5,
        epsilons: vec![0.1, 0.05],
        repeats: 2,
        base_seed: 3,
        evaluate_fidelity: false,
    };
    let strategy = TransitionStrategy::marqsim_gc();
    let serial = run_sweep(&ham, &strategy, &config).unwrap();

    let make_engine = || {
        Engine::new(
            EngineConfig::default().with_threads(3).with_cache_config(
                CacheConfig::default()
                    .with_shards(2)
                    .with_cap(1)
                    .with_persist_dir(&dir),
            ),
        )
    };
    let first = make_engine();
    let swept = first.run_sweep(&ham, &strategy, &config).unwrap();
    for (p, s) in swept.points.iter().zip(&serial.points) {
        assert_eq!(p.seed, s.seed);
        assert_eq!(p.stats, s.stats);
    }
    assert!(first.cache().graph_shard_lens().iter().all(|&len| len <= 1));
    let stats = first.cache().stats();
    assert_eq!(stats.flow_solves, 1);
    assert_eq!(stats.disk_writes, 1);

    let second = make_engine();
    let reloaded = second.run_sweep(&ham, &strategy, &config).unwrap();
    for (p, s) in reloaded.points.iter().zip(&serial.points) {
        assert_eq!(p.stats, s.stats, "disk-reloaded sweep is serial-identical");
    }
    let stats = second.cache().stats();
    assert_eq!(stats.flow_solves, 0, "P_gc served from MARQSIM_CACHE_DIR");
    assert_eq!(stats.disk_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compile_batches_match_the_serial_compiler_bit_for_bit_at_any_thread_count() {
    use marqsim::core::metrics::evaluate_fidelity;
    use marqsim::core::{Compiler, CompilerConfig, HttGraph};
    use marqsim::engine::CompileRequest;

    // Two Hamiltonians × {GC, GC-RP}, one duplicated request and one
    // fidelity request in a single batch.
    let hamiltonians = [
        benchmark_hamiltonian(),
        Hamiltonian::parse("0.8 XXZI + 0.6 ZIZI + 0.5 IYYX + 0.4 ZZII + 0.3 IXIX + 0.2 YIYI")
            .unwrap(),
    ];
    let strategies = [
        TransitionStrategy::marqsim_gc(),
        TransitionStrategy::marqsim_gc_rp(),
    ];
    let mut requests = Vec::new();
    for (h, ham) in hamiltonians.iter().enumerate() {
        for (s, strategy) in strategies.iter().enumerate() {
            let config = CompilerConfig::new(0.5, 0.1)
                .with_strategy(strategy.clone())
                .with_seed(7 + (2 * h + s) as u64);
            requests.push(CompileRequest::new(
                format!("batch/{h}/{s}"),
                ham.clone(),
                config,
            ));
        }
    }
    requests.push(requests[1].clone());
    requests.push(
        CompileRequest::new(
            "batch/fidelity",
            hamiltonians[1].clone(),
            CompilerConfig::new(0.5, 0.1)
                .with_strategy(TransitionStrategy::marqsim_gc())
                .with_seed(3),
        )
        .with_fidelity(),
    );

    for threads in [1, 3] {
        let engine = Engine::new(EngineConfig::default().with_threads(threads));
        let outcomes = engine.compile_many(requests.clone());
        assert_eq!(outcomes.len(), requests.len());
        for (outcome, request) in outcomes.iter().zip(&requests) {
            let outcome = outcome.as_ref().expect("compile succeeds");
            let graph = HttGraph::build_with_solver(
                &request.hamiltonian,
                &request.config.strategy,
                engine.flow_solver(),
            )
            .unwrap();
            let serial = Compiler::new(request.config.clone())
                .compile_with_htt(&graph)
                .unwrap();
            let fidelity = request.evaluate_fidelity.then(|| {
                evaluate_fidelity(&serial.hamiltonian, request.config.time, &serial.sequence)
            });
            let context = format!("{} @ {threads} threads", request.label);
            assert_eq!(outcome.label, request.label);
            assert_eq!(outcome.result.sequence, serial.sequence, "{context}");
            assert_eq!(outcome.result.stats, serial.stats, "{context}");
            assert_eq!(
                outcome.result.circuit_stats, serial.circuit_stats,
                "{context}"
            );
            assert_eq!(
                outcome.fidelity.map(f64::to_bits),
                fidelity.map(f64::to_bits),
                "{context}"
            );
        }
        assert!(outcomes
            .last()
            .unwrap()
            .as_ref()
            .unwrap()
            .fidelity
            .is_some());
        assert_eq!(
            engine.cache().stats().misses,
            4,
            "one graph build per distinct (Hamiltonian, strategy)"
        );
    }
}
