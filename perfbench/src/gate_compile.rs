//! `gate_compile`: the Table 2 shape with gate-level output. One
//! `Engine::compile_many` call over fresh random 20-qubit Hamiltonians on
//! both sides of the `auto` flow switch point, each under GC and GC-RP,
//! with circuit synthesis and cancellation on. The only workload where the
//! circuit layer works, and every flow solve is cold.

use std::time::Instant;

use marqsim_engine::{CompileOutcome, CompileRequest, EngineError};

use crate::harness::{self, Report, Rounds, RssSampler};
use crate::inputs::{derive, Digest, GateInputs, Scale, DEFAULT_SEED};
use crate::outputs;
use crate::replay::{self, Layers, Replayed};
use crate::telemetry::Reading;

pub const NAME: &str = "gate_compile";
const THREADS: usize = 2;

type Outcomes = Vec<Result<CompileOutcome, EngineError>>;

fn digest_one(d: &mut Digest, o: &CompileOutcome) {
    d.str(&o.label);
    d.u64(o.result.num_samples as u64);
    d.f64(o.result.lambda);
    outputs::sequence_stats(d, &o.result.stats);
    outputs::gate_stats(d, &o.result.circuit_stats);
    outputs::circuit(d, &o.result.circuit);
}

fn digest(outcomes: &[CompileOutcome]) -> Digest {
    let mut d = Digest::default();
    for o in outcomes {
        digest_one(&mut d, o);
    }
    d
}

/// Whether a replayed compile equals the engine's outcome bit for bit.
fn same(label: &str, replayed: &Replayed, o: &CompileOutcome) -> bool {
    let Some((circuit, circuit_stats)) = &replayed.circuit else {
        return false;
    };
    let mut d = Digest::default();
    d.str(label);
    d.u64(replayed.num_samples as u64);
    d.f64(replayed.lambda);
    outputs::sequence_stats(&mut d, &replayed.stats);
    outputs::gate_stats(&mut d, circuit_stats);
    outputs::circuit(&mut d, circuit);
    let mut e = Digest::default();
    digest_one(&mut e, o);
    d.finish() == e.finish() && replayed.sequence == o.result.sequence
}

fn replay_request(
    layers: &mut Layers,
    r: &CompileRequest,
    solver: marqsim_core::SolverKind,
) -> Option<Replayed> {
    let htt = replay::build_htt(layers, &r.hamiltonian, &r.config.strategy, solver).ok()?;
    Some(replay::compile(layers, &htt, &r.config))
}

pub fn run(seed: u64, seconds: f64, scale: Scale, trace: bool) -> Report {
    let mut report = Report::default();
    let inputs = GateInputs::generate(seed, scale);
    let solver = harness::default_flow_solver();
    let backends: Vec<String> = GateInputs::string_counts(scale)
        .iter()
        .map(|&n| format!("{n} strings={}", solver.resolve_for_strings(n).as_str()))
        .collect();
    report.note(format!(
        "config: threads={THREADS} cache=memory compiles={} flow_backend[{}]",
        inputs.requests.len(),
        backends.join(", ")
    ));
    report.note(format!("inputs digest: {}", inputs.digest().hex()));
    if trace {
        traced(&mut report, &inputs);
    } else {
        end_to_end(&mut report, seed, seconds, scale);
    }
    report
}

/// Splits the outcomes into successes, counting one operation per request.
fn tally(report: &mut Report, outcomes: Outcomes) -> Vec<CompileOutcome> {
    let mut ok = Vec::new();
    for o in outcomes {
        report.tally.record(o.is_ok());
        match o {
            Ok(o) => ok.push(o),
            Err(e) => report.note(format!("compile failed: {e}")),
        }
    }
    ok
}

fn check_outcomes(report: &mut Report, inputs: &GateInputs, outcomes: &[CompileOutcome]) {
    report.check(outcomes.len() == inputs.requests.len(), || {
        format!(
            "{} outcomes for {} requests",
            outcomes.len(),
            inputs.requests.len()
        )
    });
    for (o, r) in outcomes.iter().zip(&inputs.requests) {
        let c = &o.result.circuit;
        let ok = o.label == r.label
            && o.result.num_samples > 0
            && o.result.stats.cnot > 0
            && c.num_qubits() == r.hamiltonian.num_qubits()
            && !c.is_empty()
            && o.result.circuit_stats == c.stats()
            && o.result.circuit_stats.cnot == c.cnot_count();
        report.check(ok, || format!("{}: implausible output", o.label));
    }
}

/// Checks round 1's outcomes: plausibility, a seeded spot replay through the
/// layers, and the seed-1 digest. Returns the outcomes' CNOT total.
fn check_first_round(
    report: &mut Report,
    seed: u64,
    scale: Scale,
    inputs: &GateInputs,
    outcomes: &[CompileOutcome],
) -> f64 {
    check_outcomes(report, inputs, outcomes);
    let i = (derive(seed, 60) % inputs.requests.len() as u64) as usize;
    let r = &inputs.requests[i];
    let replayed = replay_request(&mut Layers::default(), r, harness::default_flow_solver());
    report.check(
        outcomes
            .get(i)
            .is_some_and(|o| replayed.is_some_and(|p| same(&r.label, &p, o))),
        || format!("{}: layer replay differs from the engine", r.label),
    );
    let d = digest(outcomes);
    report.note(format!("outputs digest: {}", d.hex()));
    if seed == DEFAULT_SEED {
        if let Some(ok) = outputs::matches_expected(NAME, scale, &d) {
            report.check(ok, || "outputs differ from expected/outputs.json".into());
        }
    }
    outcomes
        .iter()
        .map(|o| o.result.circuit_stats.cnot as f64)
        .sum()
}

fn end_to_end(report: &mut Report, seed: u64, seconds: f64, scale: Scale) {
    let started = Instant::now();
    let mut rounds = Rounds::default();
    // Round 1's digest and CNOT total. Its outcomes are checked as soon as
    // the round ends and dropped before the next round is sampled, so no
    // round's peak RSS includes circuits the harness holds.
    let mut first: Option<(u64, f64)> = None;
    while rounds.another(started, seconds) {
        rounds.sample_setup(
            || (GateInputs::generate(seed, scale), harness::engine(THREADS)),
            drop,
        );
        harness::release_freed_memory();
        let t0 = Instant::now();
        let inputs = GateInputs::generate(seed, scale);
        let engine = harness::engine(THREADS);
        let setup = t0.elapsed().as_secs_f64();
        let requests = inputs.requests.clone();
        let rss = RssSampler::start();
        let t1 = Instant::now();
        let outcomes = engine.compile_many(requests);
        let wall = t1.elapsed().as_secs_f64();
        let rss = rss.stop();
        drop(engine);
        // Every request's result reaches the caller when the call returns.
        rounds.push(setup, wall, rss, &vec![wall * 1e3; outcomes.len()]);
        let ok = tally(report, outcomes);
        let d = digest(&ok).finish();
        match first {
            None => {
                let cnot_total = check_first_round(report, seed, scale, &inputs, &ok);
                first = Some((d, cnot_total));
            }
            Some((d0, _)) => report.check(d == d0, || {
                format!("round {} differs from round 1", rounds.len())
            }),
        }
    }
    report
        .note("fidelity_mean: not applicable (gate_compile evaluates no fidelity); reported as 1");
    let cnot_total = first.map_or(0.0, |(_, cnot_total)| cnot_total);
    harness::end_to_end(report, &rounds, cnot_total, 1.0);
}

fn traced(report: &mut Report, inputs: &GateInputs) {
    let engine = harness::engine(THREADS);
    let before = Reading::now();
    let outcomes = engine.compile_many(inputs.requests.clone());
    let engine_delta = Reading::now().since(&before);
    let outcomes = tally(report, outcomes);
    check_outcomes(report, inputs, &outcomes);

    // Each request is replayed and compared before the next, so only one
    // replayed circuit is alive at a time; comparisons are not timed.
    let mut layers = Layers::default();
    let mut replay_wall = 0.0;
    let before = Reading::now();
    for (i, r) in inputs.requests.iter().enumerate() {
        let t = Instant::now();
        let replayed = replay_request(&mut layers, r, harness::default_flow_solver());
        replay_wall += t.elapsed().as_secs_f64();
        let ok = replayed
            .zip(outcomes.get(i))
            .is_some_and(|(p, o)| same(&r.label, &p, o));
        report.check(ok, || {
            format!("{}: layer replay differs from the engine", r.label)
        });
    }
    let flow_delta = Reading::now().since(&before);

    harness::per_layer(
        report,
        &layers,
        replay_wall,
        &flow_delta,
        &engine_delta,
        None,
    );
}
