//! The parallel compilation engine on a Fig. 12-style sweep: compiles the
//! BeH2 (froze) benchmark over the paper's ε sweep three ways —
//!
//! 1. the pre-engine loop (the transition matrix, including its
//!    min-cost-flow solve, is rebuilt for every sweep point),
//! 2. the serial driver (`run_sweep`, one build per sweep), and
//! 3. the engine (`Engine::run_sweep`: cached build + worker pool,
//!    `MARQSIM_THREADS` applies)
//!
//! — verifies all three produce identical data, and prints the wall-clock
//! times.
//!
//! ```sh
//! cargo run --release --example engine_sweep
//! ```

use std::time::Instant;

use marqsim::core::experiment::{
    compile_point, point_seed, run_sweep, ExperimentPoint, SweepConfig, SweepResult,
    DEFAULT_EPSILONS,
};
use marqsim::core::metrics::ReferenceCell;
use marqsim::core::{Compiler, CompilerConfig, HttGraph, TransitionStrategy};
use marqsim::engine::Engine;
use marqsim::hamlib::suite::{benchmark_by_name, SuiteScale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = benchmark_by_name("BeH2 (froze)", SuiteScale::Reduced).expect("benchmark");
    let strategy = TransitionStrategy::marqsim_gc();
    let config = SweepConfig {
        time: bench.time,
        epsilons: DEFAULT_EPSILONS.to_vec(),
        repeats: 5,
        base_seed: 12,
        evaluate_fidelity: false,
    };
    let points = config.epsilons.len() * config.repeats;
    println!(
        "benchmark: {} ({} qubits, {} Pauli strings), {} sweep points",
        bench.name, bench.qubits, bench.pauli_strings, points
    );

    // 1. Pre-engine behaviour: every point rebuilds the transition matrix.
    let start = Instant::now();
    let mut rebuilt_points: Vec<ExperimentPoint> = Vec::new();
    for (eps_idx, &epsilon) in config.epsilons.iter().enumerate() {
        for rep in 0..config.repeats {
            let seed = point_seed(&config, eps_idx, rep);
            let compiler_config = CompilerConfig::new(config.time, epsilon)
                .with_strategy(strategy.clone())
                .with_seed(seed)
                .without_circuit();
            let result = Compiler::new(compiler_config).compile(&bench.hamiltonian)?;
            rebuilt_points.push(ExperimentPoint {
                epsilon,
                seed,
                num_samples: result.num_samples,
                stats: result.stats,
                fidelity: None,
            });
        }
    }
    let rebuilt = SweepResult {
        label: strategy.label(),
        points: rebuilt_points,
    };
    let t_rebuild = start.elapsed().as_secs_f64();

    // Sanity: the per-point rebuild is the same computation compile_point
    // performs against a shared graph.
    let htt = HttGraph::build(&bench.hamiltonian, &strategy)?;
    let check = compile_point(
        &htt,
        &config,
        config.epsilons[0],
        point_seed(&config, 0, 0),
        &ReferenceCell::new(),
    )?;
    assert_eq!(check.stats, rebuilt.points[0].stats);

    // 2. Serial driver: one transition-matrix build per sweep.
    let start = Instant::now();
    let serial = run_sweep(&bench.hamiltonian, &strategy, &config)?;
    let t_serial = start.elapsed().as_secs_f64();

    // 3. The engine: cached build + worker pool.
    let engine = Engine::from_env()?;
    let start = Instant::now();
    let engine_sweep = engine.run_sweep(&bench.hamiltonian, &strategy, &config)?;
    let t_engine = start.elapsed().as_secs_f64();

    for (a, b) in serial.points.iter().zip(&engine_sweep.points) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.num_samples, b.num_samples);
        assert_eq!(a.stats, b.stats);
    }
    for (a, b) in serial.points.iter().zip(&rebuilt.points) {
        assert_eq!(a.stats, b.stats);
    }
    println!("all three paths produce identical sweep data");
    println!();
    println!(
        "per-point matrix rebuild (seed behaviour): {t_rebuild:>7.2} s  ({} flow solves)",
        points
    );
    println!("serial run_sweep (shared graph):           {t_serial:>7.2} s  (1 flow solve)");
    println!(
        "engine ({} threads, warm-capable cache):    {t_engine:>7.2} s  (1 flow solve, pooled points)",
        engine.threads()
    );
    println!();
    println!(
        "speedup vs per-point rebuild: {:.1}x (serial), {:.1}x (engine)",
        t_rebuild / t_serial,
        t_rebuild / t_engine
    );
    let stats = engine.cache().stats();
    println!(
        "engine cache: {} shard(s) x cap {}, hits={} misses={} flow_solves={}",
        engine.cache().shard_count(),
        engine.cache().cap_per_shard(),
        stats.hits,
        stats.misses,
        stats.flow_solves
    );
    Ok(())
}
