//! What every workload shares: the round loop, the result record, and the
//! assembly of the end-to-end and per-layer metric sets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use marqsim_engine::{Engine, EngineConfig};

use crate::replay::Layers;
use crate::stats::{median, percentile, quartiles, tail_percentile, Tally};
use crate::telemetry::Reading;

/// Rounds a run makes even when they overrun its time budget, so every
/// reported median has at least this many samples.
pub const MIN_ROUNDS: usize = 3;

/// Set-ups timed before each round on top of the round's own.
pub const SETUP_SAMPLES: usize = 3;

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result: operations attempted and failed, the metrics, and
/// human-readable lines printed ahead of the JSON result.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records the outcome of one output check; a failed check fails one
    /// already-counted operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.tally.fail_checked();
            self.note(format!("CHECK FAILED: {}", what()));
        }
    }
}

/// An engine as the workloads run it: defaults, an explicit worker count,
/// an in-memory cache and no persistence directory, so every engine starts
/// cold.
pub fn engine(threads: usize) -> Engine {
    Engine::new(EngineConfig::default().with_threads(threads))
}

/// The flow backend such an engine uses by default (`auto`: resolved per
/// instance by string count).
pub fn default_flow_solver() -> marqsim_core::SolverKind {
    EngineConfig::default().cache.flow_solver
}

/// Per-round samples of the timed loop.
#[derive(Debug, Default)]
pub struct Rounds {
    setup: Vec<f64>,
    wall: Vec<f64>,
    latencies_ms: Vec<f64>,
    jobs_per_round: usize,
    rss_mb: Vec<f64>,
}

impl Rounds {
    /// Whether to start another round: always until [`MIN_ROUNDS`], then
    /// only while one more typical round still fits in `budget` seconds.
    pub fn another(&self, started: Instant, budget: f64) -> bool {
        self.wall.len() < MIN_ROUNDS
            || started.elapsed().as_secs_f64() + median(&self.wall) <= budget
    }

    /// Times [`SETUP_SAMPLES`] extra set-ups, each torn down at once. Called
    /// before every round, so `setup_s` is a median over many samples spread
    /// across the whole run, not one burst at its start.
    pub fn sample_setup<T>(&mut self, mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) {
        for _ in 0..SETUP_SAMPLES {
            let t = Instant::now();
            let state = setup();
            self.setup.push(t.elapsed().as_secs_f64());
            teardown(state);
        }
    }

    /// Records one round: its set-up and job-set times in seconds, its
    /// peak resident set in MiB, and the latency of each of its jobs in
    /// milliseconds.
    pub fn push(&mut self, setup: f64, wall: f64, rss_mb: f64, job_latencies_ms: &[f64]) {
        self.setup.push(setup);
        self.wall.push(wall);
        self.rss_mb.push(rss_mb);
        self.latencies_ms.extend_from_slice(job_latencies_ms);
        self.jobs_per_round = job_latencies_ms.len();
    }

    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// The tail percentile: the rule of [`tail_percentile`] applied to the
    /// smallest sample a run can have ([`MIN_ROUNDS`] rounds), so every run
    /// of a workload reports the same percentile. `None` when that sample
    /// is too small for any percentile; the tail is then the median.
    fn tail_percentile(&self) -> Option<f64> {
        tail_percentile(MIN_ROUNDS * self.jobs_per_round)
    }

    /// Adds the timing metrics: medians over rounds of set-up and job-set
    /// time, and the median and tail of every job's latency pooled over
    /// the rounds.
    pub fn report(&self, report: &mut Report) {
        report.note(format!(
            "rounds: {}  wall_s: {:?}  setup_s ({} samples): {:?}",
            self.len(),
            self.wall,
            self.setup.len(),
            self.setup
        ));
        if self.len() >= 2 {
            report.note(format!(
                "wall_s quartiles over rounds: {:?}",
                quartiles(&self.wall)
            ));
        }
        report.note(format!("peak RSS of each round (MiB): {:?}", self.rss_mb));
        let p = self.tail_percentile();
        report.note(format!(
            "job latencies: {} samples ({} jobs x {} rounds); job_tail_ms is {}",
            self.latencies_ms.len(),
            self.jobs_per_round,
            self.len(),
            p.map_or(
                "the median (too few jobs for a tail percentile)".into(),
                |p| { format!("p{p}") }
            )
        ));
        // A run whose set-up failed has no samples; it reports zeros and
        // its failures.
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        report.metric("setup_s", med(&self.setup), "s");
        report.metric("wall_s", med(&self.wall), "s");
        report.metric("job_p50_ms", med(&self.latencies_ms), "ms");
        let tail = match p {
            Some(p) if !self.latencies_ms.is_empty() => percentile(&self.latencies_ms, p),
            _ => med(&self.latencies_ms),
        };
        report.metric("job_tail_ms", tail, "ms");
        report.metric("peak_rss_mb", med(&self.rss_mb), "MB");
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory the previous round freed back to the OS (glibc keeps it
/// resident in its arenas otherwise), so every round's peak RSS is
/// measured from the same floor, as in a fresh process. Called between
/// rounds, outside every timed region.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only returns free heap pages to the OS; it
    // takes a plain padding size and has no other precondition.
    unsafe {
        malloc_trim(0);
    }
}

/// Reads the process's resident set every few milliseconds on a helper
/// thread while a round runs, and reports its maximum. Per-round peaks,
/// unlike the process-wide `VmHWM`, are not pinned by one round in which
/// the allocator happened to keep more memory.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<f64>,
}

impl RssSampler {
    const PERIOD: Duration = Duration::from_millis(5);

    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = vm_rss_mb();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Self::PERIOD);
                peak = peak.max(vm_rss_mb());
            }
            peak
        });
        RssSampler { stop, thread }
    }

    /// Stops sampling; returns the peak in MiB.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let last = vm_rss_mb();
        self.thread
            .join()
            .expect("RSS sampler thread panicked")
            .max(last)
    }
}

/// The process's current resident set (`VmRSS`) in MiB.
fn vm_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload reports after its timed rounds.
pub fn end_to_end(report: &mut Report, rounds: &Rounds, cnot_total: f64, fidelity_mean: f64) {
    rounds.report(report);
    report.metric("cnot_total", cnot_total, "count");
    report.metric("fidelity_mean", fidelity_mean, "1");
    report.note(format!(
        "failed_ratio: {} ({} of {} operations)",
        report.tally.failed_ratio(),
        report.tally.failed,
        report.tally.attempted
    ));
    report.metric("ok_ratio", report.tally.ok_ratio(), "1");
}

/// Registry deltas and client timings of a traced `routed_mix` run.
#[derive(Debug, Default)]
pub struct ServeLayer {
    pub fleet: Reading,
    pub direct_p50_ms: f64,
    pub routed_p50_ms: f64,
    pub routed_max_share: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run.
///
/// * `layers` / `replay_wall`: the replay's timed calls and its wall time;
/// * `flow`: registry delta over the replay (its graph builds are the only
///   flow solves in it);
/// * `engine`: registry delta over the engine (or fleet) pass;
/// * `serve`: the fleet measurements, for `routed_mix` only.
pub fn per_layer(
    report: &mut Report,
    layers: &Layers,
    replay_wall: f64,
    flow: &Reading,
    engine: &Reading,
    serve: Option<&ServeLayer>,
) {
    let l = layers;
    report.metric("sim.exact_s", l.seconds("sim.exact_s"), "s");
    report.metric("sim.exact_calls", l.count("sim.exact_calls"), "count");
    report.metric(
        "sim.exact_repeat_share",
        ratio(l.count("sim.exact_repeats"), l.count("sim.exact_calls")),
        "ratio",
    );
    report.metric("sim.accumulate_s", l.seconds("sim.accumulate_s"), "s");
    report.metric("sim.rotations", l.count("sim.rotations"), "count");
    report.metric("sim.fidelity_s", l.seconds("sim.fidelity_s"), "s");

    let emitted = l.count("circuit.gates_emitted");
    let kept = l.count("circuit.gates_kept");
    report.metric("circuit.synth_s", l.seconds("circuit.synth_s"), "s");
    report.metric("circuit.gates_emitted", emitted, "count");
    report.metric("circuit.cancel_s", l.seconds("circuit.cancel_s"), "s");
    report.metric("circuit.gates_kept", kept, "count");
    report.metric(
        "circuit.cancel_ratio",
        ratio(emitted - kept, emitted),
        "ratio",
    );

    let le100 = l.seconds("core.htt_build_s.le100");
    let gt100 = l.seconds("core.htt_build_s.gt100");
    report.metric("core.htt_build_s", le100 + gt100, "s");
    report.metric("core.htt_build_s.le100", le100, "s");
    report.metric("core.htt_build_s.gt100", gt100, "s");
    report.metric("core.htt_builds", l.count("core.htt_builds"), "count");
    report.metric(
        "flow.solve_s",
        flow.sum("marqsim_flow_solve_seconds_sum"),
        "s",
    );
    report.metric(
        "flow.repivot_s",
        flow.sum("marqsim_flow_repivot_seconds_sum"),
        "s",
    );
    report.metric(
        "flow.solves",
        flow.sum("marqsim_flow_solves_total"),
        "count",
    );
    report.metric(
        "flow.warm_starts",
        flow.sum("marqsim_flow_warm_starts_total"),
        "count",
    );
    report.metric(
        "flow.pivots",
        flow.sum("marqsim_flow_pivots_total"),
        "count",
    );

    report.metric("markov.sample_s", l.seconds("markov.sample_s"), "s");
    report.metric("markov.samples", l.count("markov.samples"), "count");
    report.metric("core.count_s", l.seconds("core.count_s"), "s");

    let hits = engine.sum("marqsim_cache_hits_total");
    let misses = engine.sum("marqsim_cache_misses_total");
    let wait_ms = |q| {
        engine
            .histogram_quantile("marqsim_pool_queue_wait_seconds", q)
            .map_or(0.0, |s| s * 1e3)
    };
    report.metric(
        "engine.tasks",
        engine.sum("marqsim_pool_tasks_total"),
        "count",
    );
    report.metric("engine.queue_wait_p50_ms", wait_ms(0.5), "ms");
    report.metric("engine.queue_wait_p99_ms", wait_ms(0.99), "ms");
    report.metric("engine.cache_hits", hits, "count");
    report.metric("engine.cache_misses", misses, "count");
    report.metric(
        "engine.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );

    let none = ServeLayer::default();
    let s = serve.unwrap_or(&none);
    let polls = s.fleet.sum("marqsim_net_polls_total");
    let events = s.fleet.sum("marqsim_net_events_total");
    report.metric("serve.direct_p50_ms", s.direct_p50_ms, "ms");
    report.metric("serve.codec_s", l.seconds("serve.codec_s"), "s");
    report.metric(
        "serve.requests",
        s.fleet.sum("marqsim_serve_requests_total"),
        "count",
    );
    report.metric(
        "serve.bytes_read",
        s.fleet.sum("marqsim_serve_bytes_read_total"),
        "bytes",
    );
    report.metric(
        "serve.bytes_written",
        s.fleet.sum("marqsim_serve_bytes_written_total"),
        "bytes",
    );
    report.metric("net.polls", polls, "count");
    report.metric("net.events", events, "count");
    report.metric(
        "net.wakeups",
        s.fleet.sum("marqsim_net_wakeups_total"),
        "count",
    );
    report.metric("net.events_per_poll", ratio(events, polls), "ratio");
    report.metric(
        "cluster.hop_p50_ms",
        if serve.is_some() {
            s.routed_p50_ms - s.direct_p50_ms
        } else {
            0.0
        },
        "ms",
    );
    report.metric("cluster.routed_max_share", s.routed_max_share, "ratio");

    report.note(format!(
        "replay: {:.3} s wall, {:.3} s timed in layer calls",
        replay_wall,
        l.busy()
    ));
    report.metric("trace.coverage", ratio(l.busy(), replay_wall), "ratio");
}
