//! The open job API's acceptance tests: a workload type defined entirely
//! outside `crates/engine` and `crates/serve` (the `FibWorkload` below)
//! runs end-to-end through both `Engine::submit` and a live
//! `marqsim-served` daemon — registry-registered kind, streamed progress,
//! cooperative cancellation mid-run, throttled progress — plus the
//! progress-monotonicity property over randomly generated workloads and the
//! thousand-point-sweep event-coalescing bound.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use marqsim::engine::{
    Engine, EngineConfig, EngineError, Priority, Progress, ProgressCadence, SubmitOptions,
    SweepRequest, SweepWorkload, Workload, WorkloadCtx, WorkloadOutput,
};
use marqsim::pauli::Hamiltonian;
use marqsim::serve::{Client, ClientError, Json, Outcome, Server, ServerHandle, WorkloadRegistry};
use quickprop::{check, Config};

/// A workload the engine has never heard of: computes the first `units`
/// Fibonacci numbers, one per progress unit, optionally sleeping per unit
/// (so cancellation tests have a window) and optionally failing at a given
/// unit (exercising the workload-error path).
#[derive(Debug, Clone)]
struct FibWorkload {
    label: String,
    units: usize,
    delay: Duration,
    fail_at: Option<usize>,
}

impl FibWorkload {
    fn new(label: &str, units: usize) -> Self {
        FibWorkload {
            label: label.to_string(),
            units,
            delay: Duration::ZERO,
            fail_at: None,
        }
    }

    fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    fn with_failure_at(mut self, unit: usize) -> Self {
        self.fail_at = Some(unit);
        self
    }
}

/// The reference sequence.
fn fib(units: usize) -> Vec<u64> {
    let mut values = Vec::with_capacity(units);
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..units {
        values.push(a);
        let next = a.wrapping_add(b);
        a = b;
        b = next;
    }
    values
}

impl Workload for FibWorkload {
    fn label(&self) -> &str {
        &self.label
    }

    fn total_units(&self) -> usize {
        self.units
    }

    fn run(&self, ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
        let mut values = Vec::with_capacity(self.units);
        let (mut a, mut b) = (0u64, 1u64);
        for unit in 0..self.units {
            ctx.ensure_active()?;
            if self.fail_at == Some(unit) {
                return Err(EngineError::workload(
                    &self.label,
                    format!("configured to fail at unit {unit}"),
                ));
            }
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            values.push(a);
            let next = a.wrapping_add(b);
            a = b;
            b = next;
            ctx.report(unit + 1, self.units);
        }
        Ok(WorkloadOutput::new(values))
    }
}

/// Registers the `fib` kind on top of the built-ins — the full "new
/// workload, no protocol surgery" path: params decoder in, outcome encoder
/// out.
fn registry_with_fib() -> WorkloadRegistry {
    let mut registry = WorkloadRegistry::builtin();
    registry.register(
        "fib",
        |label, params| {
            let units = params
                .get("units")
                .and_then(Json::as_usize)
                .ok_or_else(|| "field 'units' must be an unsigned integer".to_string())?;
            let delay_ms = params.get("delay_ms").and_then(Json::as_u64).unwrap_or(0);
            Ok(
                Box::new(FibWorkload::new(label, units).with_delay(Duration::from_millis(delay_ms)))
                    as Box<dyn Workload>,
            )
        },
        |output| {
            let values = output
                .downcast_ref::<Vec<u64>>()
                .ok_or_else(|| "fib jobs produce Vec<u64> outputs".to_string())?;
            Ok(Json::obj([
                ("kind", "fib".into()),
                (
                    "values",
                    Json::Arr(values.iter().map(|&v| v.into()).collect()),
                ),
            ]))
        },
    );
    registry
}

fn spawn_fib_server(threads: usize) -> ServerHandle {
    let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(threads)));
    Server::bind("127.0.0.1:0", engine)
        .expect("bind")
        .with_registry(registry_with_fib())
        .spawn()
        .expect("spawn")
}

#[test]
fn external_workload_runs_through_engine_submit_with_options() {
    let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
    let events = Arc::new(Mutex::new(Vec::<Progress>::new()));
    let sink = Arc::clone(&events);
    let handle = engine.submit_with_options(
        FibWorkload::new("fib/engine", 25),
        SubmitOptions::default(),
        move |p| sink.lock().unwrap().push(p),
    );
    assert_eq!(handle.label(), "fib/engine");
    let values: Vec<u64> = handle
        .collect()
        .expect("fib succeeds")
        .downcast()
        .expect("Vec<u64> output");
    assert_eq!(values, fib(25));

    let events = events.lock().unwrap();
    assert_eq!(events.len(), 25, "default cadence: one event per unit");
    for (i, event) in events.iter().enumerate() {
        assert_eq!((event.completed, event.total), (i + 1, 25));
    }
}

#[test]
fn external_workload_runs_synchronously_and_at_high_priority() {
    let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
    let sync: Vec<u64> = engine
        .run_workload(&FibWorkload::new("fib/sync", 10))
        .unwrap()
        .downcast()
        .unwrap();
    assert_eq!(sync, fib(10));

    let handle = engine.submit_with_options(
        FibWorkload::new("fib/high", 10),
        SubmitOptions::new().with_priority(Priority::High),
        |_| {},
    );
    let high: Vec<u64> = handle.collect().unwrap().downcast().unwrap();
    assert_eq!(high, sync, "priority cannot change results");
}

#[test]
fn external_workload_cancels_mid_run() {
    let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(1)));
    let handle =
        engine.submit(FibWorkload::new("fib/cancel", 2000).with_delay(Duration::from_millis(1)));
    // Wait until the workload is demonstrably mid-run, then cancel.
    while handle.progress().completed < 3 {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.cancel();
    match handle.collect() {
        Err(EngineError::Cancelled { label }) => assert_eq!(label, "fib/cancel"),
        other => panic!("expected cancellation, got {other:?}"),
    }
}

#[test]
fn external_workload_errors_carry_the_label() {
    let engine = Engine::new(EngineConfig::default().with_threads(1));
    match engine.run_workload(&FibWorkload::new("fib/fails", 10).with_failure_at(4)) {
        Err(EngineError::Workload { label, message }) => {
            assert_eq!(label, "fib/fails");
            assert!(message.contains("unit 4"));
        }
        other => panic!("expected a workload error, got {other:?}"),
    }
}

#[test]
fn external_workload_runs_through_a_live_daemon() {
    let server = spawn_fib_server(2);
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(
        client.workloads().contains(&"fib".to_string()),
        "hello advertises the registered kind: {:?}",
        client.workloads()
    );

    let job = client
        .submit("fib/tcp", "fib", Json::obj([("units", 30usize.into())]))
        .unwrap();
    let mut progress_events = 0usize;
    let result = client
        .wait_with_progress(job, |completed, total| {
            progress_events += 1;
            assert!(completed <= total);
            assert_eq!(total, 30);
        })
        .unwrap();
    match result.outcome {
        Outcome::Other { kind, value } => {
            assert_eq!(kind, "fib");
            let values: Vec<u64> = value
                .get("values")
                .and_then(Json::as_arr)
                .expect("values array")
                .iter()
                .map(|v| v.as_u64().expect("u64 values"))
                .collect();
            assert_eq!(values, fib(30));
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(progress_events, 30, "default cadence streams every unit");
    server.shutdown();
}

#[test]
fn external_workload_cancels_over_tcp_and_throttles_progress() {
    let server = spawn_fib_server(2);

    // Cancellation mid-run over the wire.
    let mut client = Client::connect(server.addr()).unwrap();
    let job = client
        .submit(
            "fib/tcp-cancel",
            "fib",
            Json::obj([("units", 5000usize.into()), ("delay_ms", 1u64.into())]),
        )
        .unwrap();
    // Let it demonstrably start (first progress events arrive), then cancel.
    let started = client
        .status(job)
        .map(|_| ())
        .and_then(|_| client.cancel(job));
    started.unwrap();
    match client.wait(job) {
        Err(ClientError::JobFailed { kind, .. }) => assert_eq!(kind, "cancelled"),
        Ok(_) => panic!("a 5000-unit delayed workload cannot finish before the cancel"),
        Err(other) => panic!("unexpected error {other:?}"),
    }

    // Throttled progress over the wire: 600 units at cadence 100 → a
    // bounded event stream that still ends on completed == total.
    let options = SubmitOptions::new().with_progress_every(ProgressCadence::every(100));
    let job = client
        .submit_with_options(
            "fib/tcp-throttled",
            "fib",
            Json::obj([("units", 600usize.into())]),
            options,
        )
        .unwrap();
    let mut events = Vec::new();
    let result = client
        .wait_with_progress(job, |completed, total| events.push((completed, total)))
        .unwrap();
    assert!(matches!(result.outcome, Outcome::Other { .. }));
    assert!(
        events.len() <= 8,
        "600 units at cadence 100 must coalesce, got {} events",
        events.len()
    );
    assert_eq!(events.last(), Some(&(600, 600)));
    for pair in events.windows(2) {
        assert!(pair[0].0 < pair[1].0, "monotone progress on the wire");
    }
    server.shutdown();
}

#[test]
fn multi_phase_workloads_report_one_cumulative_progress_stream() {
    // A workload that fans out twice: progress from the second map must
    // continue where the first left off (not restart at 1 and get dropped
    // by the monotonicity floor), and the final event must land exactly on
    // total_units.
    struct TwoPhase;
    impl Workload for TwoPhase {
        fn label(&self) -> &str {
            "two-phase"
        }
        fn total_units(&self) -> usize {
            15
        }
        fn run(&self, ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
            let first: Vec<u64> = ctx
                .map((0..10u64).collect(), |_, x| Ok(x * 2))
                .into_iter()
                .collect::<Result<_, _>>()?;
            let second: Vec<u64> = ctx
                .map((0..5u64).collect(), |_, x| Ok(x + 100))
                .into_iter()
                .collect::<Result<_, _>>()?;
            Ok(WorkloadOutput::new((first, second)))
        }
    }

    let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
    let events = Arc::new(Mutex::new(Vec::<Progress>::new()));
    let sink = Arc::clone(&events);
    let handle = engine.submit_with_options(TwoPhase, SubmitOptions::default(), move |p| {
        sink.lock().unwrap().push(p)
    });
    let (first, second): (Vec<u64>, Vec<u64>) =
        handle.collect().unwrap().downcast().expect("tuple output");
    assert_eq!(first, (0..10).map(|x| x * 2).collect::<Vec<u64>>());
    assert_eq!(second, (100..105).collect::<Vec<u64>>());

    let events = events.lock().unwrap();
    assert_eq!(events.len(), 15, "both phases stream, nothing suppressed");
    for (i, event) in events.iter().enumerate() {
        assert_eq!(
            (event.completed, event.total),
            (i + 1, 15),
            "cumulative across phases"
        );
    }
}

#[test]
fn thousand_point_sweep_coalesces_progress_events() {
    // The ROADMAP item this closes: one progress line per point is fine at
    // evaluation scale, but a 1000-point sweep must coalesce. Cheap
    // two-qubit points keep this fast.
    let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(4)));
    let ham = Hamiltonian::parse("1.0 ZZ + 0.5 XX + 0.3 YY").unwrap();
    let config = marqsim::core::experiment::SweepConfig {
        time: 0.3,
        epsilons: vec![0.1; 10],
        repeats: 100,
        base_seed: 3,
        evaluate_fidelity: false,
    };
    let workload = SweepWorkload::new(SweepRequest::new(
        "sweep/1000",
        ham,
        marqsim::core::TransitionStrategy::QDrift,
        config,
    ));
    assert_eq!(workload.total_units(), 1000);

    let events = Arc::new(AtomicUsize::new(0));
    let last = Arc::new(Mutex::new(Progress {
        completed: 0,
        total: 0,
    }));
    let (events_sink, last_sink) = (Arc::clone(&events), Arc::clone(&last));
    let handle = engine.submit_with_options(
        workload,
        SubmitOptions::new().with_progress_every(
            ProgressCadence::every(100).with_interval(Duration::from_millis(100)),
        ),
        move |p| {
            events_sink.fetch_add(1, Ordering::Relaxed);
            *last_sink.lock().unwrap() = p;
        },
    );
    let sweep = handle.collect().unwrap().into_swept();
    assert_eq!(sweep.points.len(), 1000);

    let emitted = events.load(Ordering::Relaxed);
    // 10 unit-threshold events plus however many 100 ms ticks elapse while
    // the sweep runs — a multi-second stall would need dozens of ticks, so
    // 40 is a generous bound that still proves coalescing (the unthrottled
    // stream would be 1000 events).
    assert!(
        (1..=40).contains(&emitted),
        "1000 points must coalesce to a bounded event count, got {emitted}"
    );
    let last = *last.lock().unwrap();
    assert_eq!(
        (last.completed, last.total),
        (1000, 1000),
        "the final event is always delivered"
    );
}

#[test]
fn reported_progress_is_monotone_and_bounded_by_total_units() {
    // Property: for ANY workload (random unit counts) under ANY cadence
    // (random coalescing), the emitted progress stream is strictly
    // increasing, never exceeds total_units, and ends exactly at
    // total_units.
    let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
    check(
        "workload progress is monotone and ≤ total_units",
        Config::default().with_seed(0xF1B).with_cases(24),
        |g| {
            let units = g.usize_in(1..80);
            let cadence = g.usize_in(1..20);
            let with_interval = g.bool(0.3);
            (units, cadence, with_interval)
        },
        |&(units, cadence, with_interval)| {
            let mut progress_cadence = ProgressCadence::every(cadence);
            if with_interval {
                progress_cadence = progress_cadence.with_interval(Duration::from_millis(50));
            }
            let events = Arc::new(Mutex::new(Vec::<Progress>::new()));
            let sink = Arc::clone(&events);
            let handle = engine.submit_with_options(
                FibWorkload::new("fib/property", units),
                SubmitOptions::new().with_progress_every(progress_cadence),
                move |p| sink.lock().unwrap().push(p),
            );
            let values: Vec<u64> = handle
                .collect()
                .map_err(|e| e.to_string())?
                .downcast()
                .map_err(|_| "output was not Vec<u64>".to_string())?;
            if values != fib(units) {
                return Err("wrong fibonacci values".to_string());
            }
            let events = events.lock().unwrap();
            let mut previous = 0usize;
            for event in events.iter() {
                if event.total != units {
                    return Err(format!("total {} != units {units}", event.total));
                }
                if event.completed > units {
                    return Err(format!("completed {} > total {units}", event.completed));
                }
                if event.completed <= previous {
                    return Err(format!(
                        "non-monotone progress: {} after {previous}",
                        event.completed
                    ));
                }
                previous = event.completed;
            }
            if previous != units {
                return Err(format!("final event at {previous}, expected {units}"));
            }
            Ok(())
        },
    );
}
