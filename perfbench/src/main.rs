//! `perfbench`: the MarQSim workspace benchmark.
//!
//! ```text
//! perfbench --workload <fidelity_sweep|gate_compile|routed_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! With `--trace 0` the workload's fixed job set is run in rounds for about
//! `--seconds` seconds, each round on freshly set-up engines, and the
//! end-to-end metrics are reported. With `--trace 1` the job set runs once
//! through the engine (or fleet) and is then replayed layer by layer, and
//! the per-layer metrics are reported. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--quick` shrinks every workload to a few seconds, for schema checks.
//! See `README.md` next to this crate for what each metric means.

mod fidelity_sweep;
mod gate_compile;
mod harness;
mod inputs;
mod outputs;
mod replay;
mod routed_mix;
mod stats;
mod telemetry;

use marqsim_serve::Json;

use crate::harness::Report;
use crate::inputs::Scale;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = [fidelity_sweep::NAME, gate_compile::NAME, routed_mix::NAME];

/// Environment overrides the program reads. They are cleared before any
/// engine exists, so every run sees the same configuration.
const PINNED_ENV: [&str; 8] = [
    "MARQSIM_THREADS",
    "MARQSIM_CACHE",
    "MARQSIM_CACHE_CAP",
    "MARQSIM_CACHE_DIR",
    "MARQSIM_FLOW_SOLVER",
    "MARQSIM_TRACE",
    "MARQSIM_SCALE",
    "MARQSIM_SERVE_TOKEN",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.scale = Scale::Quick;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value for {flag}: {value:?}")) };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => match value.parse() {
                Ok(seed) => args.seed = seed,
                Err(_) => bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => args.seconds = s,
                _ => bad(),
            },
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => bad(),
            },
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

/// Clears every `MARQSIM_*` variable and reports the ones that were set.
fn pin_environment() -> Vec<String> {
    let mut cleared = Vec::new();
    let others = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MARQSIM_"));
    let names: Vec<String> = PINNED_ENV
        .iter()
        .map(|s| s.to_string())
        .chain(others)
        .collect();
    for name in names {
        if std::env::var_os(&name).is_some() {
            cleared.push(name.clone());
        }
        // Single-threaded here: no engine, server or pool exists yet.
        std::env::remove_var(&name);
    }
    cleared.sort();
    cleared.dedup();
    cleared
}

fn result_line(report: &Report) -> String {
    let metrics = Json::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("correct", (report.tally.failed == 0).into()),
        ("attempted", report.tally.attempted.into()),
        ("failed", report.tally.failed.into()),
        ("metrics", metrics),
    ])
    .encode()
}

fn main() {
    let cleared = pin_environment();
    let args = parse_args();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} scale={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale.as_str()
    );
    println!(
        "# environment: cleared {}",
        if cleared.is_empty() {
            "nothing (no MARQSIM_* variable was set)".to_string()
        } else {
            cleared.join(", ")
        }
    );
    let run: fn(u64, f64, Scale, bool) -> Report = match args.workload.as_str() {
        fidelity_sweep::NAME => fidelity_sweep::run,
        gate_compile::NAME => gate_compile::run,
        _ => routed_mix::run,
    };
    let report = run(args.seed, args.seconds, args.scale, args.trace);
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("# metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&report));
}
