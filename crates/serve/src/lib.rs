//! # marqsim-serve — the job-submission front-end over the engine
//!
//! The `marqsim-engine` crate runs workloads inside one process. This
//! crate puts a network protocol on top: a `marqsim-served` daemon
//! accepts concurrent TCP connections, multiplexes every client's jobs
//! onto **one shared engine** (one worker pool, one transition cache — two
//! clients sweeping the same Hamiltonian share the min-cost-flow solve),
//! streams per-job progress, bounds each connection's in-flight jobs
//! (admission control), and supports cooperative cancellation. In router
//! mode the same daemon fronts a fleet of such nodes instead.
//!
//! The module layering mirrors the protocol stack:
//!
//! * [`wire`] — a hand-rolled, dependency-free JSON codec (the build
//!   environment has no registry access, so no `serde`). Line-delimited:
//!   one JSON object per `\n`-terminated line in each direction. `u64`
//!   ids/seeds are exact; finite floats use shortest-round-trip encoding,
//!   so results cross the wire **bit-identically**.
//! * [`protocol`] — typed [`Request`] verbs (`auth`, `submit`, `status`,
//!   `cancel`, `stats`, `metrics`, `drain`) and [`Event`] streams (`hello`,
//!   `auth_ok`, `submitted`, `busy`, `progress`, `done`, `failed`,
//!   `status`, `stats`, `metrics`, `draining`, `error`). The `metrics` verb (protocol v4) answers with the
//!   process-wide Prometheus-style exposition from `marqsim-obs` plus the
//!   connection's own request/byte counters — see `docs/observability.md`.
//! * [`registry`] — the open end of the protocol: `submit` names a
//!   workload *kind* plus a params object, and the
//!   [`WorkloadRegistry`] maps kinds to decoders/encoders. The four
//!   built-in kinds (`sweep`, `compile`, `perturb_average`,
//!   `benchmark_suite`) cover the evaluation; custom
//!   [`Workload`](marqsim_engine::Workload)s register new kinds with **no
//!   protocol surgery**.
//! * the client-connection layer (private) — one single-threaded
//!   `marqsim-net` event loop per daemon that owns every client
//!   connection: bounded framing, bounded outbound queues with progress
//!   coalescing and a slow-consumer disconnect, `auth`, the `metrics`
//!   verb, idle reaping, and the `marqsim_serve_*` instruments. Both roles
//!   below plug a backend into it; see `docs/net.md`.
//! * [`server`] — the node backend: job verbs run on the shared
//!   [`Engine`](marqsim_engine::Engine), with engine-wide and
//!   per-connection admission control.
//! * [`router`] — the router backend: job verbs forward to the fleet node
//!   owning the workload's Hamiltonian fingerprint, with events relayed
//!   back; see `docs/cluster.md`.
//! * [`client`] — a blocking client used by the tests, the `serve_smoke`
//!   binary, and the `serve_roundtrip` example.
//!
//! # Determinism over the wire
//!
//! A sweep submitted through `marqsim-served` returns results
//! bit-identical to the same sweep run through `Engine::run_sweep`
//! in-process: the engine side is the deterministic job machinery (seeded
//! per-point RNG streams, index-ordered reassembly), and the wire side
//! encodes every number losslessly. The `tests/serve.rs` integration test
//! in the workspace root asserts exactly this, point by point, bit by bit.
//!
//! # Environment (the `marqsim-served` binary)
//!
//! * `MARQSIM_SERVE_ADDR=HOST:PORT` — listen address (default
//!   `127.0.0.1:7878`; port `0` lets the OS pick and prints the result).
//! * `MARQSIM_SERVE_THREADS=N` — engine worker count for the served
//!   engine; unset falls back to `MARQSIM_THREADS`, then to all cores.
//! * `MARQSIM_SERVE_MAX_IN_FLIGHT=N` — per-connection in-flight job bound
//!   (a submit's `options.max_in_flight` can tighten it per request, never
//!   raise it; default [`server::DEFAULT_MAX_IN_FLIGHT`]).
//! * `MARQSIM_MAX_ACTIVE_JOBS=N` — engine-wide active-job bound across
//!   **all** connections (unset = unlimited); submits over it bounce with
//!   the structured `busy` event, and the bound is surfaced in `stats`.
//! * `MARQSIM_SERVE_IDLE_TIMEOUT_MS=N` — reap connections that send no
//!   request bytes for `N` milliseconds, in either role: their unfinished
//!   jobs are cancelled and a structured `error` event precedes the close
//!   (unset = never reap; in-process: [`Server::with_idle_timeout`],
//!   [`Router::with_idle_timeout`]).
//! * The engine cache/solver variables (`MARQSIM_CACHE_CAP`,
//!   `MARQSIM_CACHE_DIR`, `MARQSIM_FLOW_SOLVER`)
//!   apply unchanged; a submit's `options.flow_solver` selects the
//!   min-cost-flow backend per job.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use marqsim_engine::{Engine, EngineConfig};
//! use marqsim_serve::{Client, Outcome, Server};
//! use marqsim_core::experiment::SweepConfig;
//! use marqsim_core::TransitionStrategy;
//! use marqsim_pauli::Hamiltonian;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
//! let server = Server::bind("127.0.0.1:0", engine)?.spawn()?;
//!
//! let mut client = Client::connect(server.addr())?;
//! let ham = Hamiltonian::parse("0.9 ZZ + 0.5 XX + 0.3 YY")?;
//! let job = client.submit_sweep(
//!     "example",
//!     &ham,
//!     &TransitionStrategy::QDrift,
//!     &SweepConfig::quick(0.5),
//! )?;
//! let result = client.wait(job)?;
//! match result.outcome {
//!     Outcome::Sweep(sweep) => assert_eq!(sweep.points.len(), 6),
//!     _ => unreachable!(),
//! }
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod client;
mod conn;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, JobResult, MetricsReport};
pub use protocol::{
    compile_params, perturb_params, suite_params, sweep_params, CompileSummary, Event, NodeStats,
    Outcome, Request, Role, ServerStats, PROTOCOL_VERSION,
};
pub use registry::WorkloadRegistry;
pub use router::{Router, RouterHandle};
pub use server::{Server, ServerHandle};
pub use wire::{Json, WireError};

#[cfg(test)]
mod tests {
    use super::*;
    use marqsim_core::experiment::SweepConfig;
    use marqsim_core::TransitionStrategy;
    use marqsim_engine::{Engine, EngineConfig, SubmitOptions};
    use marqsim_pauli::Hamiltonian;
    use std::sync::Arc;

    fn ham() -> Hamiltonian {
        Hamiltonian::parse("0.9 ZZZZ + 0.7 XXII + 0.5 IYYI + 0.3 IIZZ").unwrap()
    }

    fn spawn_server(threads: usize) -> ServerHandle {
        spawn_server_with(threads, |server| server)
    }

    /// A workload that runs until cancelled — the deterministic
    /// "occupy an admission slot" blocker. A real sweep can finish before
    /// the next submit's round trip on a loaded machine, which made the
    /// admission tests flaky; this cannot.
    struct BlockUntilCancelled(String);

    impl marqsim_engine::Workload for BlockUntilCancelled {
        fn label(&self) -> &str {
            &self.0
        }

        fn total_units(&self) -> usize {
            1
        }

        fn run(
            &self,
            ctx: &marqsim_engine::WorkloadCtx<'_>,
        ) -> Result<marqsim_engine::WorkloadOutput, marqsim_engine::EngineError> {
            loop {
                ctx.ensure_active()?;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    /// Spawns a server whose registry carries the built-ins plus the
    /// `block` kind, with `configure` applied to the server before spawn.
    fn spawn_server_with(threads: usize, configure: impl FnOnce(Server) -> Server) -> ServerHandle {
        let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(threads)));
        let mut registry = WorkloadRegistry::builtin();
        registry.register(
            "block",
            |label, _params| {
                Ok(Box::new(BlockUntilCancelled(label.to_string()))
                    as Box<dyn marqsim_engine::Workload>)
            },
            |_output| Ok(Json::obj([("kind", "block".into())])),
        );
        configure(
            Server::bind("127.0.0.1:0", engine)
                .expect("bind")
                .with_registry(registry),
        )
        .spawn()
        .expect("spawn")
    }

    /// Cancels the blocking job and consumes its `cancelled` terminal
    /// event, releasing the admission slot it occupied.
    fn release_blocker(client: &mut Client, job: u64) {
        client.cancel(job).unwrap();
        match client.wait(job) {
            Err(ClientError::JobFailed { kind, .. }) => assert_eq!(kind, "cancelled"),
            other => panic!("expected the blocker to cancel, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_sweep_with_progress() {
        let server = spawn_server(2);
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.threads(), 2);
        assert_eq!(
            client.workloads(),
            &[
                "benchmark_suite",
                "block",
                "compile",
                "perturb_average",
                "sweep"
            ],
            "hello advertises the registered kinds, sorted"
        );

        let config = SweepConfig::quick(0.5);
        let job = client
            .submit_sweep("t/sweep", &ham(), &TransitionStrategy::QDrift, &config)
            .unwrap();
        let mut progress_calls = 0usize;
        let result = client
            .wait_with_progress(job, |completed, total| {
                progress_calls += 1;
                assert!(completed <= total);
                assert_eq!(total, 6);
            })
            .unwrap();
        match result.outcome {
            Outcome::Sweep(sweep) => {
                assert_eq!(sweep.points.len(), 6);
                assert_eq!(sweep.label, "Baseline");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(progress_calls, 6, "every point reports progress");
        server.shutdown();
    }

    #[test]
    fn compile_jobs_report_summaries() {
        let server = spawn_server(2);
        let mut client = Client::connect(server.addr()).unwrap();
        let job = client
            .submit(
                "t/compile",
                "compile",
                compile_params(
                    "0.6 XZ + 0.4 ZY + 0.3 XX",
                    &TransitionStrategy::QDrift,
                    0.4,
                    0.05,
                    2,
                    true,
                ),
            )
            .unwrap();
        let result = client.wait(job).unwrap();
        match result.outcome {
            Outcome::Compile(summary) => {
                assert!(summary.num_samples > 0);
                assert!(summary.lambda > 0.0);
                let fidelity = summary.fidelity.expect("fidelity requested");
                assert!(fidelity > 0.9 && fidelity <= 1.0 + 1e-9);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn perturb_average_jobs_round_trip_the_matrix() {
        use marqsim_core::perturb::{perturbed_matrix_sample, PerturbationConfig};
        use marqsim_core::SolverKind;
        use marqsim_markov::combine::combine;

        let server = spawn_server(2);
        let mut client = Client::connect(server.addr()).unwrap();
        let small = Hamiltonian::parse("0.6 XZ + 0.4 ZY + 0.3 XX").unwrap();
        let config = PerturbationConfig {
            samples: 4,
            seed: 5,
            ..Default::default()
        };
        let job = client
            .submit(
                "t/prp",
                "perturb_average",
                perturb_params(&small.to_string(), &config),
            )
            .unwrap();
        let result = client.wait(job).unwrap();
        let matrices: Vec<_> = (0..config.samples)
            .map(|i| {
                perturbed_matrix_sample(&small, &config, i, SolverKind::default(), None)
                    .unwrap()
                    .0
            })
            .collect();
        let expected = combine(&matrices, &[0.25; 4]).unwrap();
        match result.outcome {
            Outcome::PerturbAverage(back) => {
                assert_eq!(back.samples, 4);
                assert_eq!(back.matrix, expected, "matrix crosses the wire bit-exactly");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn status_and_stats_verbs_answer() {
        let server = spawn_server(1);
        let mut client = Client::connect(server.addr()).unwrap();

        // Unknown job: known=false.
        match client.status(999).unwrap() {
            Event::Status { known, .. } => assert!(!known),
            other => panic!("unexpected {other:?}"),
        }

        let job = client
            .submit_sweep(
                "t/status",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        client.wait(job).unwrap();
        match client.status(job).unwrap() {
            Event::Status {
                known,
                finished,
                completed,
                total,
                ..
            } => {
                assert!(known);
                assert!(finished);
                assert_eq!(completed, total);
            }
            other => panic!("unexpected {other:?}"),
        }

        let stats = client.stats().unwrap();
        assert_eq!(stats.threads, 1);
        assert!(stats.cache.misses >= 1, "the sweep populated the cache");
        assert_eq!(stats.in_flight, 0, "the finished job freed its slot");
        server.shutdown();
    }

    #[test]
    fn admission_control_rejects_submits_over_the_bound() {
        let server = spawn_server(1);
        let mut client = Client::connect(server.addr()).unwrap();
        // A job that runs until cancelled occupies the single admission
        // slot...
        let options = SubmitOptions::new().with_max_in_flight(1);
        let blocker = client
            .submit_with_options("t/occupy", "block", Json::obj([]), options.clone())
            .unwrap();
        // ...so a second submit under the same bound is rejected, with the
        // structured busy payload.
        match client.submit_with_options(
            "t/rejected",
            "sweep",
            sweep_params(
                &ham().to_string(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            ),
            options,
        ) {
            Err(ClientError::Busy { in_flight, limit }) => {
                assert_eq!(in_flight, 1);
                assert_eq!(limit, 1);
            }
            other => panic!("expected busy, got {other:?}"),
        }
        // The stats verb reports the gauge.
        let stats = client.stats().unwrap();
        assert_eq!(stats.in_flight, 1);
        // Once the blocker is released, the slot frees and submits flow
        // again.
        release_blocker(&mut client, blocker);
        let job = client
            .submit_sweep(
                "t/after-busy",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());
        server.shutdown();
    }

    #[test]
    fn engine_wide_admission_bounds_jobs_across_connections() {
        // A global MARQSIM_MAX_ACTIVE_JOBS-style bound of one: a blocker on
        // connection A makes a submit on connection B bounce with the
        // structured busy event, even though B has zero in-flight jobs of
        // its own.
        let server = spawn_server_with(1, |server| server.with_max_active_jobs(1));
        let mut client_a = Client::connect(server.addr()).unwrap();
        let mut client_b = Client::connect(server.addr()).unwrap();

        let blocker = client_a
            .submit("t/global-occupy", "block", Json::obj([]))
            .unwrap();
        match client_b.submit_sweep(
            "t/global-rejected",
            &ham(),
            &TransitionStrategy::QDrift,
            &SweepConfig::quick(0.5),
        ) {
            Err(ClientError::Busy { in_flight, limit }) => {
                assert_eq!(in_flight, 1, "engine-wide active jobs, not B's own");
                assert_eq!(limit, 1);
            }
            other => panic!("expected busy from the global bound, got {other:?}"),
        }
        // The bound and the engine-wide gauge are surfaced in stats on
        // every connection.
        let stats = client_b.stats().unwrap();
        assert_eq!(stats.max_active_jobs, 1);
        assert_eq!(stats.active_jobs, 1);
        assert_eq!(stats.in_flight, 0, "B itself has nothing in flight");

        // Releasing A's blocker frees the engine-wide slot for B.
        release_blocker(&mut client_a, blocker);
        let job = client_b
            .submit_sweep(
                "t/global-after",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client_b.wait(job).is_ok());
        server.shutdown();
    }

    #[test]
    fn clients_cannot_raise_the_server_admission_bound() {
        // The server's bound is 1; a request asking for a million in-flight
        // jobs must still be held to 1 (the per-request value only
        // tightens).
        let server = spawn_server_with(1, |server| server.with_max_in_flight(1));
        let mut client = Client::connect(server.addr()).unwrap();
        let greedy = SubmitOptions::new().with_max_in_flight(1_000_000);
        let blocker = client
            .submit_with_options("t/greedy-1", "block", Json::obj([]), greedy.clone())
            .unwrap();
        match client.submit_with_options(
            "t/greedy-2",
            "sweep",
            sweep_params(
                &ham().to_string(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            ),
            greedy,
        ) {
            Err(ClientError::Busy { limit, .. }) => {
                assert_eq!(limit, 1, "server bound wins over the client's ask")
            }
            other => panic!("expected busy at the server bound, got {other:?}"),
        }
        release_blocker(&mut client, blocker);
        server.shutdown();
    }

    #[test]
    fn flow_solver_selection_round_trips_over_the_wire() {
        use marqsim_engine::SolverKind;
        let server = spawn_server(2);
        let mut client = Client::connect(server.addr()).unwrap();
        // The hello handshake advertises the backends and the default
        // (the engine-level default is the size-adaptive `auto`).
        assert_eq!(client.flow_solver(), SolverKind::Auto);
        assert_eq!(
            client.flow_solvers(),
            [
                "ssp".to_string(),
                "network_simplex".to_string(),
                "auto".to_string()
            ]
        );

        // A GC sweep under the non-default backend: accepted, solved by the
        // simplex (per-backend attribution in the job's cache delta), and
        // the done event echoes the backend.
        let job = client
            .submit_with_options(
                "t/ns-sweep",
                "sweep",
                sweep_params(
                    &ham().to_string(),
                    &TransitionStrategy::marqsim_gc(),
                    &SweepConfig::quick(0.5),
                ),
                SubmitOptions::new().with_flow_solver(SolverKind::NetworkSimplex),
            )
            .unwrap();
        let result = client.wait(job).unwrap();
        assert_eq!(result.flow_solver, SolverKind::NetworkSimplex);
        assert_eq!(result.cache_delta.flow_solves_simplex, 1);
        assert_eq!(result.cache_delta.flow_solves_ssp, 0);
        match result.outcome {
            Outcome::Sweep(sweep) => assert_eq!(sweep.points.len(), 6),
            other => panic!("unexpected outcome {other:?}"),
        }

        // Stats report the engine's default backend.
        let stats = client.stats().unwrap();
        assert_eq!(stats.flow_solver, SolverKind::Auto);
        assert_eq!(stats.max_active_jobs, 0, "no global bound configured");
        server.shutdown();
    }

    #[test]
    fn metrics_verb_reports_exposition_and_connection_counters() {
        let server = spawn_server(2);
        let mut client = Client::connect(server.addr()).unwrap();

        // A min-cost-flow workload so the backend histograms have samples.
        let job = client
            .submit_sweep(
                "t/metrics",
                &ham(),
                &TransitionStrategy::marqsim_gc(),
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        client.wait(job).unwrap();

        let report = client.metrics().unwrap();
        assert!(
            report.requests >= 2,
            "submit + metrics decoded on this connection, got {}",
            report.requests
        );
        assert!(report.bytes_in > 0, "request bytes counted");
        assert!(
            report.bytes_out > 0,
            "hello/submitted/progress/done bytes counted"
        );

        // The exposition carries every subsystem's instruments: cache,
        // flow backends, pool, engine, and the serve layer itself.
        for needle in [
            "# TYPE marqsim_cache_hits_total counter",
            "marqsim_cache_misses_total",
            "marqsim_flow_solve_seconds_bucket",
            "marqsim_flow_solves_total{backend=\"ssp\"}",
            "marqsim_pool_queue_depth",
            "marqsim_pool_queue_wait_seconds_count",
            "marqsim_engine_jobs_total",
            "marqsim_serve_connections_total",
            "marqsim_serve_requests_total{verb=\"submit\"}",
            "marqsim_serve_bytes_read_total",
        ] {
            assert!(
                report.exposition.contains(needle),
                "exposition is missing {needle:?}:\n{}",
                report.exposition
            );
        }
        server.shutdown();
    }

    #[test]
    fn unknown_kinds_are_rejected_naming_the_known_ones() {
        let server = spawn_server(1);
        let mut client = Client::connect(server.addr()).unwrap();
        match client.submit("t/unknown", "teleport", Json::obj([])) {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("teleport"), "{message}");
                assert!(message.contains("sweep"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The connection survives the rejection.
        let job = client
            .submit_sweep(
                "t/after-unknown",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());
        server.shutdown();
    }

    #[test]
    fn cancelled_jobs_fail_with_the_cancelled_kind() {
        let server = spawn_server(1);
        let mut client = Client::connect(server.addr()).unwrap();
        // The victim only resolves on cancellation, so the cancel round
        // trip can never race a natural completion. A sweep runs alongside
        // it to show cancellation is per job, not per connection.
        let job = client.submit("t/cancel", "block", Json::obj([])).unwrap();
        let survivor = client
            .submit_sweep(
                "t/survivor",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        match client.cancel(job).unwrap() {
            Event::Status {
                known, cancelled, ..
            } => {
                assert!(known);
                assert!(cancelled);
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.wait(job) {
            Err(ClientError::JobFailed { kind, .. }) => assert_eq!(kind, "cancelled"),
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert!(client.wait(survivor).is_ok(), "survivor runs to completion");
        server.shutdown();
    }

    #[test]
    fn malformed_requests_keep_the_connection_alive() {
        let server = spawn_server(1);
        let mut client = Client::connect(server.addr()).unwrap();
        // Protocol errors surface on the next read...
        use std::io::Write;
        // Reach into the protocol: an invalid verb and invalid JSON.
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        {
            use std::io::{BufRead, BufReader};
            let mut reader = BufReader::new(raw.try_clone().unwrap());
            let mut hello = String::new();
            reader.read_line(&mut hello).unwrap();
            assert!(hello.contains("hello"));
            raw.write_all(b"this is not json\n").unwrap();
            let mut error_line = String::new();
            reader.read_line(&mut error_line).unwrap();
            assert!(error_line.contains("\"error\""), "{error_line}");
            raw.write_all(br#"{"verb":"submit","label":"x","kind":"sweep","params":{"hamiltonian":"not a ham","strategy":{"kind":"qdrift"},"config":{"time":0.5,"epsilons":[0.1],"repeats":1,"base_seed":1,"evaluate_fidelity":false}}}"#).unwrap();
            raw.write_all(b"\n").unwrap();
            let mut error_line = String::new();
            reader.read_line(&mut error_line).unwrap();
            assert!(error_line.contains("invalid hamiltonian"), "{error_line}");
        }
        // The well-behaved client still works against the same server.
        let job = client
            .submit_sweep(
                "t/after-errors",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());
        server.shutdown();
    }

    #[test]
    fn auto_flow_solver_resolves_per_instance_and_shares_the_cache() {
        use marqsim_engine::SolverKind;
        let server = spawn_server(2);
        let mut client = Client::connect(server.addr()).unwrap();

        // An auto GC sweep on a small Hamiltonian: the done event echoes
        // the requested policy, while the cache delta attributes the solve
        // to the backend it resolved to (ssp at 4 strings).
        let params = sweep_params(
            &ham().to_string(),
            &TransitionStrategy::marqsim_gc(),
            &SweepConfig::quick(0.5),
        );
        let job = client
            .submit_with_options(
                "t/auto-sweep",
                "sweep",
                params.clone(),
                SubmitOptions::new().with_flow_solver(SolverKind::Auto),
            )
            .unwrap();
        let auto_result = client.wait(job).unwrap();
        assert_eq!(auto_result.flow_solver, SolverKind::Auto);
        assert_eq!(auto_result.cache_delta.flow_solves_ssp, 1);
        assert_eq!(auto_result.cache_delta.flow_solves_simplex, 0);

        // The same sweep requested with the explicit resolved backend hits
        // the cache entry the auto job built (flow_solves delta 0): auto
        // and its resolution share one cache key.
        let job = client
            .submit_with_options(
                "t/ssp-sweep",
                "sweep",
                params,
                SubmitOptions::new().with_flow_solver(SolverKind::SuccessiveShortestPath),
            )
            .unwrap();
        let ssp_result = client.wait(job).unwrap();
        assert_eq!(ssp_result.cache_delta.flow_solves, 0);

        // Parity: identical sweep results, point for point.
        match (auto_result.outcome, ssp_result.outcome) {
            (Outcome::Sweep(auto_sweep), Outcome::Sweep(ssp_sweep)) => {
                assert_eq!(auto_sweep.points.len(), ssp_sweep.points.len());
                for (a, s) in auto_sweep.points.iter().zip(ssp_sweep.points.iter()) {
                    assert_eq!(a.epsilon.to_bits(), s.epsilon.to_bits());
                    assert_eq!(a.seed, s.seed);
                    assert_eq!(a.stats, s.stats);
                }
            }
            other => panic!("unexpected outcomes {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_and_their_jobs_cancelled() {
        use std::io::{BufRead, BufReader, Write};
        let server = spawn_server_with(2, |server| {
            server.with_idle_timeout(std::time::Duration::from_millis(200))
        });

        // A half-open client: submits a blocker, then goes silent (never
        // writes again). Inbound bytes are the only activity that counts,
        // so running jobs do not keep the connection alive.
        let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("hello"), "{line}");
        raw.write_all(b"{\"verb\":\"submit\",\"label\":\"t/idle-blocker\",\"kind\":\"block\",\"params\":{}}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("submitted"), "{line}");
        assert_eq!(server.engine().active_jobs(), 1);

        // The reaper tells us why before closing, then the stream ends.
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("idle timeout"),
            "expected the idle-timeout error event, got {line:?}"
        );
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

        // The blocker was cancelled by the reap, not abandoned.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while server.engine().active_jobs() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "reaped connection's job was never cancelled"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // A connection that keeps talking is not reaped: the idle deadline
        // is pushed out by every request.
        let mut client = Client::connect(server.addr()).unwrap();
        for _ in 0..4 {
            std::thread::sleep(std::time::Duration::from_millis(120));
            let stats = client.stats().unwrap();
            assert_eq!(stats.active_jobs, 0);
        }
        server.shutdown();

        // A router reaps its clients the same way, and the reap cancels
        // the routed job on the node running it.
        let node = spawn_server(2);
        let router = Router::bind("127.0.0.1:0", &[node.addr().to_string()])
            .unwrap()
            .with_idle_timeout(std::time::Duration::from_millis(200))
            .spawn()
            .unwrap();
        wait_for_fleet(&mut Client::connect(router.addr()).unwrap(), 1);
        let raw = std::net::TcpStream::connect(router.addr()).unwrap();
        raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("hello"), "{line}");
        (&raw)
            .write_all(b"{\"verb\":\"submit\",\"label\":\"t/idle-routed\",\"kind\":\"block\",\"params\":{}}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("submitted"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("idle timeout"),
            "expected the router's idle-timeout error event, got {line:?}"
        );
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while node.engine().active_jobs() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the reaped router client's job was never cancelled on its node"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        router.shutdown();
        node.shutdown();
    }

    /// Pipelines `status` requests at `addr` without reading until the
    /// serving side declares a slow consumer, then reads to the end and
    /// returns the last line it got.
    fn overflow_outbound_queue(addr: std::net::SocketAddr) -> String {
        use std::io::{BufRead, BufReader, Write};
        use std::sync::atomic::{AtomicBool, Ordering};
        let slow_disconnects =
            marqsim_obs::metrics::global().counter("marqsim_serve_slow_disconnects_total");
        let before = slow_disconnects.get();
        let raw = std::net::TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let mut raw = raw.try_clone().unwrap();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let batch = "{\"verb\":\"status\",\"job\":999999}\n".repeat(1024);
                // Ends when told to, or when the server closes the socket.
                while !stop.load(Ordering::Acquire) && raw.write_all(batch.as_bytes()).is_ok() {}
            })
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while slow_disconnects.get() == before {
            if std::time::Instant::now() >= deadline {
                stop.store(true, Ordering::Release);
                panic!("marqsim_serve_slow_disconnects_total never grew");
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        stop.store(true, Ordering::Release);
        // Reading to the end: every answer queued before the overflow, then
        // the disconnect notice. A reset after the final line (unread
        // requests on the server side) also ends the stream.
        let mut reader = BufReader::new(raw);
        let (mut line, mut last) = (String::new(), String::new());
        while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
            if line.ends_with('\n') {
                std::mem::swap(&mut line, &mut last);
            }
            line.clear();
        }
        writer.join().unwrap();
        last
    }

    #[test]
    fn slow_consumers_are_disconnected_with_a_structured_error() {
        let assert_slow_consumer_notice = |last: &str| match Event::decode(last.trim()) {
            Ok(Event::Error { message }) => assert!(
                message.contains("outbound queue overflow (slow consumer, limit 8192 events"),
                "{message}"
            ),
            other => panic!("expected the slow-consumer error last, got {other:?} from {last:?}"),
        };
        let node = spawn_server(1);
        assert_slow_consumer_notice(&overflow_outbound_queue(node.addr()));

        // The router's client side enforces the same bound with the same
        // notice and counter.
        let router = Router::bind("127.0.0.1:0", &[node.addr().to_string()])
            .unwrap()
            .spawn()
            .unwrap();
        assert_slow_consumer_notice(&overflow_outbound_queue(router.addr()));
        router.shutdown();
        node.shutdown();
    }

    #[test]
    fn auth_token_gates_non_loopback_grade_servers() {
        let server = spawn_server_with(1, |server| server.with_token("fleet-secret"));

        // No token: the hello advertises auth and the client refuses to
        // proceed rather than trip the server's rejection.
        match Client::connect(server.addr()) {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("requires authentication"), "{message}");
            }
            Err(other) => panic!("expected an auth refusal, got {other:?}"),
            Ok(_) => panic!("expected an auth refusal, got a connection"),
        }

        // A wrong token is rejected server-side with a structured error.
        match Client::connect_with_token(server.addr(), Some("wrong")) {
            Err(ClientError::Protocol(message)) => {
                assert!(message.contains("authentication failed"), "{message}");
            }
            Err(other) => panic!("expected a bad-token rejection, got {other:?}"),
            Ok(_) => panic!("expected a bad-token rejection, got a connection"),
        }

        // The right token unlocks normal service end to end.
        let mut client = Client::connect_with_token(server.addr(), Some("fleet-secret")).unwrap();
        let job = client
            .submit_sweep(
                "t/authed",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());
        server.shutdown();
    }

    /// Spawns `n` node servers (each with the `block` kind registered)
    /// and returns their handles plus their `host:port` fleet names.
    fn spawn_fleet(n: usize, token: Option<&'static str>) -> (Vec<ServerHandle>, Vec<String>) {
        let mut handles = Vec::new();
        let mut names = Vec::new();
        for _ in 0..n {
            let handle = spawn_server_with(2, |server| match token {
                Some(token) => server.with_token(token),
                None => server,
            });
            names.push(handle.addr().to_string());
            handles.push(handle);
        }
        (handles, names)
    }

    /// Polls the router's stats until `n` nodes report real stats (a
    /// connected node has threads > 0; a placeholder is all zeros).
    fn wait_for_fleet(client: &mut Client, n: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = client.stats().unwrap();
            let ready = stats
                .per_node
                .iter()
                .filter(|part| part.stats.threads > 0)
                .count();
            if ready == n {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "fleet never became ready: {:?}",
                stats.per_node
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    #[test]
    fn router_routes_jobs_and_aggregates_the_fleet() {
        let (handles, names) = spawn_fleet(2, Some("fleet-secret"));
        let router = Router::bind("127.0.0.1:0", &names)
            .unwrap()
            .with_token("fleet-secret")
            .spawn()
            .unwrap();

        // The router's own front door is gated by the same token.
        assert!(Client::connect(router.addr()).is_err());
        let mut client = Client::connect_with_token(router.addr(), Some("fleet-secret")).unwrap();
        assert_eq!(client.role(), Role::Router);
        assert_eq!(client.nodes().len(), 2);
        wait_for_fleet(&mut client, 2);

        // Distinct Hamiltonians spread over the ring; every job comes back
        // correct regardless of which node ran it, with progress relayed.
        for (i, text) in [
            "0.9 ZZ + 0.5 XX",
            "0.8 XZ + 0.3 ZY + 0.2 YY",
            "0.7 ZI + 0.4 IX",
            "1.1 YZ + 0.6 ZX",
        ]
        .iter()
        .enumerate()
        {
            let ham = Hamiltonian::parse(text).unwrap();
            let job = client
                .submit_sweep(
                    &format!("t/fleet-{i}"),
                    &ham,
                    &TransitionStrategy::QDrift,
                    &SweepConfig::quick(0.5),
                )
                .unwrap();
            let mut progress = 0usize;
            let result = client
                .wait_with_progress(job, |_, total| {
                    progress += 1;
                    assert_eq!(total, 6);
                })
                .unwrap();
            match result.outcome {
                Outcome::Sweep(sweep) => assert_eq!(sweep.points.len(), 6),
                other => panic!("unexpected outcome {other:?}"),
            }
            assert_eq!(progress, 6, "progress events relay through the router");
        }

        // The aggregate view sums the fleet; the breakdown names both
        // nodes as up.
        let stats = client.stats().unwrap();
        assert_eq!(stats.threads, 4, "2 nodes x 2 threads");
        assert_eq!(stats.per_node.len(), 2);
        assert!(stats.per_node.iter().all(|part| part.health == "up"));
        assert!(
            stats.cache.flow_solves
                <= stats
                    .per_node
                    .iter()
                    .map(|p| p.stats.cache.flow_solves)
                    .sum()
        );

        // Status and cancel round-trip through the job-id translation.
        let blocker = client
            .submit("t/fleet-block", "block", Json::obj([]))
            .unwrap();
        match client.status(blocker).unwrap() {
            Event::Status { known, .. } => assert!(known),
            other => panic!("unexpected {other:?}"),
        }
        release_blocker(&mut client, blocker);

        // Draining a node removes it from the fleet; the survivor keeps
        // serving every key.
        let drained = names[0].clone();
        assert_eq!(client.drain(&drained).unwrap(), 0, "nothing in flight");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = client.stats().unwrap();
            if stats.per_node.len() == 1 {
                assert_ne!(stats.per_node[0].node, drained);
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "drained node never left the fleet: {:?}",
                stats.per_node
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let job = client
            .submit_sweep(
                "t/post-drain",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());

        router.shutdown();
        for handle in handles {
            handle.shutdown();
        }
    }

    #[test]
    fn router_reports_lost_nodes_and_keeps_serving() {
        let (mut handles, names) = spawn_fleet(2, None);
        let router = Router::bind("127.0.0.1:0", &names)
            .unwrap()
            .spawn()
            .unwrap();
        let mut client = Client::connect(router.addr()).unwrap();
        wait_for_fleet(&mut client, 2);

        // A job that only ends on cancellation pins down its node; the
        // per-node breakdown tells us which one got it.
        let blocker = client.submit("t/doomed", "block", Json::obj([])).unwrap();
        let victim = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                let stats = client.stats().unwrap();
                if let Some(part) = stats
                    .per_node
                    .iter()
                    .find(|part| part.stats.active_jobs == 1)
                {
                    break part.node.clone();
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "blocker never showed up in the breakdown"
                );
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        };

        // Kill that node out from under the router.
        let index = names.iter().position(|name| *name == victim).unwrap();
        handles.remove(index).shutdown();

        // The router notices, fails the orphaned job with the structured
        // node_lost kind, and stays up.
        match client.wait(blocker) {
            Err(ClientError::JobFailed { kind, message, .. }) => {
                assert_eq!(kind, "node_lost");
                assert!(message.contains(&victim), "{message}");
            }
            other => panic!("expected node_lost, got {other:?}"),
        }

        // The survivor absorbs the dead node's keyspace: new work (any
        // Hamiltonian) still completes.
        let job = client
            .submit_sweep(
                "t/survivor-takes-over",
                &ham(),
                &TransitionStrategy::QDrift,
                &SweepConfig::quick(0.5),
            )
            .unwrap();
        assert!(client.wait(job).is_ok());

        // The breakdown reports the loss instead of hiding it.
        let stats = client.stats().unwrap();
        let lost = stats
            .per_node
            .iter()
            .find(|part| part.node == victim)
            .expect("dead node stays visible");
        assert!(
            lost.health == "suspect" || lost.health == "down",
            "unexpected health {:?}",
            lost.health
        );

        router.shutdown();
        for handle in handles {
            handle.shutdown();
        }
    }
}
