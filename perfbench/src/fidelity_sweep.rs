//! `fidelity_sweep`: the Fig. 12 shape. One GC sweep over BeH2 (froze) at
//! reduced scale with fidelity evaluation on, on a 2-thread engine. The
//! simulator does almost all of the work, and every point repeats the same
//! exact-unitary `(H, t)`.

use std::time::Instant;

use marqsim_core::experiment::{point_seed, ExperimentPoint, SweepResult};
use marqsim_core::CompilerConfig;
use marqsim_engine::{Engine, EngineError, SweepRequest, SweepWorkload, WorkloadOutput};

use crate::harness::{self, Report, Rounds, RssSampler};
use crate::inputs::{derive, Digest, Scale, SweepInputs, DEFAULT_SEED};
use crate::outputs;
use crate::replay::{self, Layers};
use crate::telemetry::Reading;

pub const NAME: &str = "fidelity_sweep";
const THREADS: usize = 2;
/// Points re-derived through the layer functions after every timed run.
const SPOT_CHECKS: usize = 2;

fn run_sweep(engine: &Engine, inputs: &SweepInputs) -> Result<SweepResult, EngineError> {
    engine
        .run_workload(&SweepWorkload::new(SweepRequest::new(
            NAME,
            inputs.hamiltonian.clone(),
            inputs.strategy.clone(),
            inputs.config.clone(),
        )))
        .map(WorkloadOutput::into_swept)
}

fn digest(sweep: &SweepResult) -> Digest {
    let mut d = Digest::default();
    for p in &sweep.points {
        outputs::point(&mut d, p);
    }
    d
}

/// The `(ε index, repetition)` of every point, in the engine's output order.
fn point_grid(inputs: &SweepInputs) -> Vec<(usize, usize)> {
    (0..inputs.config.epsilons.len())
        .flat_map(|e| (0..inputs.config.repeats).map(move |r| (e, r)))
        .collect()
}

/// One sweep point re-derived through the layer functions.
fn replay_point(
    layers: &mut Layers,
    htt: &marqsim_core::HttGraph,
    inputs: &SweepInputs,
    (eps_idx, rep): (usize, usize),
) -> ExperimentPoint {
    let config = &inputs.config;
    let epsilon = config.epsilons[eps_idx];
    let seed = point_seed(config, eps_idx, rep);
    let cfg = CompilerConfig::new(config.time, epsilon)
        .with_seed(seed)
        .without_circuit();
    let compiled = replay::compile(layers, htt, &cfg);
    let fidelity = replay::fidelity(layers, htt.hamiltonian(), config.time, &compiled.sequence);
    ExperimentPoint {
        epsilon,
        seed,
        num_samples: compiled.num_samples,
        stats: compiled.stats,
        fidelity: Some(fidelity),
    }
}

fn same_point(a: &ExperimentPoint, b: &ExperimentPoint) -> bool {
    outputs::same(a, b, outputs::point)
}

pub fn run(seed: u64, seconds: f64, scale: Scale, trace: bool) -> Report {
    let mut report = Report::default();
    let inputs = SweepInputs::generate(seed, scale);
    let solver = harness::default_flow_solver();
    report.note(format!(
        "config: threads={THREADS} cache=memory flow_backend[BeH2 (froze), {} strings]={} points={}",
        inputs.hamiltonian.num_terms(),
        solver.resolve_for_strings(inputs.hamiltonian.num_terms()).as_str(),
        inputs.config.epsilons.len() * inputs.config.repeats,
    ));
    report.note(format!("inputs digest: {}", inputs.digest().hex()));
    if trace {
        traced(&mut report, &inputs);
    } else {
        end_to_end(&mut report, seed, seconds, scale);
    }
    report
}

fn check_points(report: &mut Report, inputs: &SweepInputs, sweep: &SweepResult) {
    let grid = point_grid(inputs);
    report.check(sweep.points.len() == grid.len(), || {
        format!("{} points, expected {}", sweep.points.len(), grid.len())
    });
    for (p, &(e, r)) in sweep.points.iter().zip(&grid) {
        let ok = p.epsilon.to_bits() == inputs.config.epsilons[e].to_bits()
            && p.seed == point_seed(&inputs.config, e, r)
            && p.num_samples > 0
            && p.stats.cnot > 0
            && p.fidelity.is_some_and(|f| f > 0.0 && f <= 1.0 + 1e-9);
        report.check(ok, || format!("implausible point {p:?}"));
    }
}

fn end_to_end(report: &mut Report, seed: u64, seconds: f64, scale: Scale) {
    let started = Instant::now();
    let mut rounds = Rounds::default();
    let mut first: Option<(u64, SweepResult)> = None;
    while rounds.another(started, seconds) {
        rounds.sample_setup(
            || (SweepInputs::generate(seed, scale), harness::engine(THREADS)),
            drop,
        );
        harness::release_freed_memory();
        let t0 = Instant::now();
        let inputs = SweepInputs::generate(seed, scale);
        let engine = harness::engine(THREADS);
        let setup = t0.elapsed().as_secs_f64();
        let rss = RssSampler::start();
        let t1 = Instant::now();
        let result = run_sweep(&engine, &inputs);
        let wall = t1.elapsed().as_secs_f64();
        let rss = rss.stop();
        drop(engine);
        rounds.push(setup, wall, rss, &[wall * 1e3]);
        // Each sweep point is one operation.
        for _ in 0..point_grid(&inputs).len() {
            report.tally.record(result.is_ok());
        }
        match result {
            Ok(sweep) => {
                let d = digest(&sweep).finish();
                match &first {
                    None => first = Some((d, sweep)),
                    Some((d0, _)) => report.check(d == *d0, || {
                        format!("round {} differs from round 1", rounds.len())
                    }),
                }
            }
            Err(e) => report.note(format!("sweep failed: {e}")),
        }
    }

    // Output checks, outside the timed rounds.
    let inputs = SweepInputs::generate(seed, scale);
    let (mut cnot_total, mut fidelity_mean) = (0.0, 0.0);
    if let Some((_, sweep)) = &first {
        check_points(report, &inputs, sweep);
        let htt = replay::build_htt(
            &mut Layers::default(),
            &inputs.hamiltonian,
            &inputs.strategy,
            harness::default_flow_solver(),
        )
        .expect("the sweep built this graph");
        let grid = point_grid(&inputs);
        for k in 0..SPOT_CHECKS {
            let i = (derive(seed, 50 + k as u64) % grid.len() as u64) as usize;
            let replayed = replay_point(&mut Layers::default(), &htt, &inputs, grid[i]);
            report.check(same_point(&replayed, &sweep.points[i]), || {
                format!("point {i}: layer replay differs from the engine")
            });
        }
        let d = digest(sweep);
        report.note(format!("outputs digest: {}", d.hex()));
        if seed == DEFAULT_SEED {
            if let Some(ok) = outputs::matches_expected(NAME, scale, &d) {
                report.check(ok, || "outputs differ from expected/outputs.json".into());
            }
        }
        cnot_total = sweep.points.iter().map(|p| p.stats.cnot as f64).sum();
        let fidelities: Vec<f64> = sweep.points.iter().filter_map(|p| p.fidelity).collect();
        fidelity_mean = fidelities.iter().sum::<f64>() / fidelities.len().max(1) as f64;
    }
    harness::end_to_end(report, &rounds, cnot_total, fidelity_mean);
}

fn traced(report: &mut Report, inputs: &SweepInputs) {
    let engine = harness::engine(THREADS);
    let before = Reading::now();
    let result = run_sweep(&engine, inputs);
    let engine_delta = Reading::now().since(&before);
    for _ in 0..point_grid(inputs).len() {
        report.tally.record(result.is_ok());
    }
    let sweep = match result {
        Ok(sweep) => sweep,
        Err(e) => {
            report.note(format!("sweep failed: {e}"));
            SweepResult {
                label: NAME.into(),
                points: Vec::new(),
            }
        }
    };
    check_points(report, inputs, &sweep);

    let mut layers = Layers::default();
    let before = Reading::now();
    let t = Instant::now();
    let htt = replay::build_htt(
        &mut layers,
        &inputs.hamiltonian,
        &inputs.strategy,
        harness::default_flow_solver(),
    );
    let mut replayed = Vec::new();
    if let Ok(htt) = &htt {
        for cell in point_grid(inputs) {
            replayed.push(replay_point(&mut layers, htt, inputs, cell));
        }
    }
    let replay_wall = t.elapsed().as_secs_f64();
    let flow_delta = Reading::now().since(&before);

    report.check(replayed.len() == sweep.points.len(), || {
        "replay and engine produced different point counts".into()
    });
    for (i, (a, b)) in replayed.iter().zip(&sweep.points).enumerate() {
        report.check(same_point(a, b), || {
            format!("point {i}: layer replay differs from the engine")
        });
    }
    harness::per_layer(
        report,
        &layers,
        replay_wall,
        &flow_delta,
        &engine_delta,
        None,
    );
}
