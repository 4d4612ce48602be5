//! `routed_mix`: the serving path. One `Router` in front of two in-process
//! `Server` nodes with a 1-thread engine each, loaded by a closed loop of
//! two client connections that each submit a job and wait for it before
//! the next. The seeded mix is mostly warm small compiles (serve-bound),
//! a minority of cold GC / GC-RP compiles (flow-bound), and a few
//! fidelity compiles on distinct Hamiltonians (sim-bound).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use marqsim_cluster::HashRing;
use marqsim_core::{HttGraph, SolverKind};
use marqsim_engine::{hamiltonian_fingerprint, CacheStats, SubmitOptions};
use marqsim_serve::{
    Client, CompileSummary, Event, Json, Outcome, Request, Router, RouterHandle, Server,
    ServerHandle,
};

use crate::harness::{self, Report, Rounds, RssSampler, ServeLayer};
use crate::inputs::{Digest, JobClass, MixInputs, MixJob, Scale, DEFAULT_SEED, MIX_CLIENTS};
use crate::outputs;
use crate::replay::{self, Layers};
use crate::stats::median;
use crate::telemetry::Reading;

pub const NAME: &str = "routed_mix";
const NODES: usize = 2;
const NODE_THREADS: usize = 1;
/// Worker threads of the in-process engine the results are checked against.
const REFERENCE_THREADS: usize = 2;

struct Fleet {
    nodes: Vec<ServerHandle>,
    router: RouterHandle,
    names: Vec<String>,
}

impl Fleet {
    fn spawn() -> Result<Fleet, String> {
        let mut nodes: Vec<ServerHandle> = Vec::new();
        let mut names = Vec::new();
        for _ in 0..NODES {
            let engine = Arc::new(harness::engine(NODE_THREADS));
            match Server::bind("127.0.0.1:0", engine).and_then(Server::spawn) {
                Ok(handle) => {
                    names.push(handle.addr().to_string());
                    nodes.push(handle);
                }
                Err(e) => {
                    nodes.into_iter().for_each(ServerHandle::shutdown);
                    return Err(format!("spawn node: {e}"));
                }
            }
        }
        match Router::bind("127.0.0.1:0", &names).and_then(Router::spawn) {
            Ok(router) => Ok(Fleet {
                nodes,
                router,
                names,
            }),
            Err(e) => {
                nodes.into_iter().for_each(ServerHandle::shutdown);
                Err(format!("spawn router: {e}"))
            }
        }
    }

    /// Connects the closed-loop clients to the router and waits until the
    /// router holds a live connection to every node.
    fn connect(&self) -> Result<Vec<Client>, String> {
        let mut clients = Vec::new();
        for _ in 0..MIX_CLIENTS {
            clients.push(Client::connect(self.router.addr()).map_err(|e| e.to_string())?);
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            let stats = clients[0].stats().map_err(|e| e.to_string())?;
            if stats
                .per_node
                .iter()
                .filter(|n| n.stats.threads > 0)
                .count()
                >= NODES
            {
                return Ok(clients);
            }
            if Instant::now() >= deadline {
                return Err(format!("fleet never became ready: {:?}", stats.per_node));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn shutdown(self) {
        self.router.shutdown();
        self.nodes.into_iter().for_each(ServerHandle::shutdown);
    }
}

/// A finished remote job.
#[derive(Debug, Clone)]
struct Done {
    summary: CompileSummary,
    flow_solver: SolverKind,
}

/// One job's round trip: latency in milliseconds and its result.
type Trip = (f64, Result<Done, String>);

/// The submit `(label, params)` pairs of each client, built before timing.
fn submits(inputs: &MixInputs) -> Vec<Vec<(String, Json)>> {
    inputs
        .clients
        .iter()
        .map(|jobs| jobs.iter().map(|j| (j.label.clone(), j.params())).collect())
        .collect()
}

/// A closed loop: submit, wait for the terminal event, repeat.
fn closed_loop(client: &mut Client, jobs: &[(String, Json)]) -> Vec<Trip> {
    jobs.iter()
        .map(|(label, params)| {
            let t = Instant::now();
            let result = client
                .submit(label, "compile", params.clone())
                .and_then(|id| client.wait(id));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let done = match result {
                Ok(r) => match r.outcome {
                    Outcome::Compile(summary) => Ok(Done {
                        summary,
                        flow_solver: r.flow_solver,
                    }),
                    other => Err(format!("{label}: unexpected outcome {other:?}")),
                },
                Err(e) => Err(format!("{label}: {e}")),
            };
            (ms, done)
        })
        .collect()
}

/// Runs every client's closed loop concurrently; trips come back in
/// client-major job order (the order of [`MixInputs::jobs`]).
fn run_clients(clients: &mut [Client], submits: &[Vec<(String, Json)>]) -> Vec<Trip> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(submits)
            .map(|(client, jobs)| s.spawn(move || closed_loop(client, jobs)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Each job run on an in-process engine, keyed by label.
fn reference(inputs: &MixInputs) -> HashMap<String, Result<CompileSummary, String>> {
    let engine = harness::engine(REFERENCE_THREADS);
    let jobs: Vec<&MixJob> = inputs.jobs().collect();
    let outcomes = engine.compile_many(jobs.iter().map(|j| j.request()).collect());
    jobs.iter()
        .zip(outcomes)
        .map(|(j, o)| {
            let summary = o
                .map(|o| CompileSummary {
                    num_samples: o.result.num_samples,
                    lambda: o.result.lambda,
                    stats: o.result.stats,
                    fidelity: o.fidelity,
                })
                .map_err(|e| e.to_string());
            (j.label.clone(), summary)
        })
        .collect()
}

/// Counts every trip as one operation and checks each result against the
/// in-process reference.
fn check_trips(
    report: &mut Report,
    jobs: &[&MixJob],
    trips: &[Trip],
    reference: &HashMap<String, Result<CompileSummary, String>>,
) {
    for (job, (_, done)) in jobs.iter().zip(trips) {
        report.tally.record(done.is_ok());
        match done {
            Ok(done) => {
                let ok = matches!(reference.get(&job.label), Some(Ok(r)) if outputs::same(r, &done.summary, outputs::summary));
                report.check(ok, || {
                    format!("{}: differs from the in-process engine", job.label)
                });
            }
            Err(e) => report.note(format!("job failed: {e}")),
        }
    }
}

pub fn run(seed: u64, seconds: f64, scale: Scale, trace: bool) -> Report {
    let mut report = Report::default();
    let inputs = MixInputs::generate(seed, scale);
    let solver = harness::default_flow_solver();
    let mut sizes: Vec<usize> = inputs.jobs().map(|j| j.hamiltonian.num_terms()).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let backends: Vec<String> = sizes
        .iter()
        .map(|&n| format!("{n}={}", solver.resolve_for_strings(n).as_str()))
        .collect();
    let count = |class| inputs.jobs().filter(|j| j.class == class).count();
    report.note(format!(
        "config: nodes={NODES} node_threads={NODE_THREADS} clients={MIX_CLIENTS} (closed loop) cache=memory jobs={} (small={} cold={} fidelity={}) flow_backend[strings: {}]",
        inputs.len(),
        count(JobClass::Small),
        count(JobClass::Cold),
        count(JobClass::Fidelity),
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

/// Everything a round needs before its first submit: the inputs and their
/// submit lines, a fleet, and connected clients.
struct Setup {
    submits: Vec<Vec<(String, Json)>>,
    fleet: Fleet,
    clients: Vec<Client>,
}

impl Setup {
    fn new(seed: u64, scale: Scale) -> Result<Setup, String> {
        let inputs = MixInputs::generate(seed, scale);
        let submits = submits(&inputs);
        let fleet = Fleet::spawn()?;
        match fleet.connect() {
            Ok(clients) => Ok(Setup {
                submits,
                fleet,
                clients,
            }),
            Err(e) => {
                fleet.shutdown();
                Err(e)
            }
        }
    }

    fn tear_down(self) {
        drop(self.clients);
        self.fleet.shutdown();
    }
}

fn end_to_end(report: &mut Report, seed: u64, seconds: f64, scale: Scale) {
    let started = Instant::now();
    let mut rounds = Rounds::default();
    let mut setup_errors = Vec::new();
    let mut all_trips: Vec<Vec<Trip>> = Vec::new();
    while setup_errors.is_empty() && rounds.another(started, seconds) {
        rounds.sample_setup(
            || Setup::new(seed, scale),
            |s| match s {
                Ok(s) => s.tear_down(),
                Err(e) => setup_errors.push(e),
            },
        );
        if !setup_errors.is_empty() {
            break;
        }
        harness::release_freed_memory();
        let t0 = Instant::now();
        let mut s = match Setup::new(seed, scale) {
            Ok(s) => s,
            Err(e) => {
                setup_errors.push(e);
                break;
            }
        };
        let setup = t0.elapsed().as_secs_f64();
        let rss = RssSampler::start();
        let t1 = Instant::now();
        let trips = run_clients(&mut s.clients, &s.submits);
        let wall = t1.elapsed().as_secs_f64();
        let rss = rss.stop();
        s.tear_down();
        let latencies: Vec<f64> = trips.iter().map(|(ms, _)| *ms).collect();
        rounds.push(setup, wall, rss, &latencies);
        all_trips.push(trips);
    }
    for e in setup_errors {
        report.tally.record(false);
        report.note(format!("set-up failed: {e}"));
    }

    // Output checks, outside the timed rounds.
    let inputs = MixInputs::generate(seed, scale);
    let jobs: Vec<&MixJob> = inputs.jobs().collect();
    let reference = reference(&inputs);
    for trips in &all_trips {
        check_trips(report, &jobs, trips, &reference);
    }
    let (mut cnot_total, mut fidelity_mean) = (0.0, 0.0);
    if let Some(trips) = all_trips.first() {
        let done: Vec<&Done> = trips.iter().filter_map(|(_, d)| d.as_ref().ok()).collect();
        let mut d = Digest::default();
        for x in &done {
            outputs::summary(&mut d, &x.summary);
        }
        report.note(format!("outputs digest: {}", d.hex()));
        if seed == DEFAULT_SEED {
            if let Some(ok) = outputs::matches_expected(NAME, scale, &d) {
                report.check(ok, || "outputs differ from expected/outputs.json".into());
            }
        }
        cnot_total = done.iter().map(|x| x.summary.stats.cnot as f64).sum();
        let f: Vec<f64> = done.iter().filter_map(|x| x.summary.fidelity).collect();
        fidelity_mean = f.iter().sum::<f64>() / f.len().max(1) as f64;
    }
    harness::end_to_end(report, &rounds, cnot_total, fidelity_mean);
}

fn p50(trips: &[Trip]) -> f64 {
    let ms: Vec<f64> = trips.iter().map(|(ms, _)| *ms).collect();
    if ms.is_empty() {
        0.0
    } else {
        median(&ms)
    }
}

fn traced(report: &mut Report, inputs: &MixInputs) {
    let jobs: Vec<&MixJob> = inputs.jobs().collect();
    let small: Vec<&MixJob> = jobs
        .iter()
        .copied()
        .filter(|j| j.class == JobClass::Small)
        .collect();
    let small_submits: Vec<(String, Json)> = small
        .iter()
        .map(|j| (j.label.clone(), j.params()))
        .collect();

    let mut serve = ServeLayer::default();
    let (mut trips, mut direct, mut routed) = (Vec::new(), Vec::new(), Vec::new());
    let mut engine_delta = Reading::default();
    let mut ring = HashRing::default();
    let setup_failed = |report: &mut Report, e: String| {
        report.tally.record(false);
        report.note(format!("set-up failed: {e}"));
    };
    match Fleet::spawn() {
        Err(e) => setup_failed(report, e),
        Ok(fleet) => {
            match fleet.connect() {
                Err(e) => setup_failed(report, e),
                Ok(mut clients) => {
                    let before = Reading::now();
                    trips = run_clients(&mut clients, &submits(inputs));
                    serve.fleet = Reading::now().since(&before);
                    engine_delta = serve.fleet.clone();
                    // The small-job set once straight to a node, once
                    // through the router, each from one fresh connection.
                    let one = |addr: &str| {
                        Client::connect(addr)
                            .map(|mut c| closed_loop(&mut c, &small_submits))
                            .unwrap_or_else(|e| vec![(0.0, Err(e.to_string()))])
                    };
                    direct = one(&fleet.names[0]);
                    routed = one(&fleet.router.addr().to_string());
                }
            }
            for name in &fleet.names {
                ring.add(name);
            }
            fleet.shutdown();
        }
    }
    serve.direct_p50_ms = p50(&direct);
    serve.routed_p50_ms = p50(&routed);
    let reference = reference(inputs);
    check_trips(report, &jobs, &trips, &reference);
    check_trips(report, &small, &direct, &reference);
    check_trips(report, &small, &routed, &reference);

    // Routing: every submit lands on the ring owner of its fingerprint.
    let routed_per_node = serve.fleet.by_label("marqsim_cluster_routed_total", "node");
    let mut predicted: BTreeMap<String, f64> = BTreeMap::new();
    for job in &jobs {
        if let Some(owner) = ring.owner(hamiltonian_fingerprint(&job.hamiltonian)) {
            *predicted.entry(owner.to_string()).or_default() += 1.0;
        }
    }
    report.note(format!("routed per node: {routed_per_node:?}"));
    report.check(routed_per_node == predicted, || {
        format!("routing {routed_per_node:?} differs from the ring's owners {predicted:?}")
    });
    let total: f64 = routed_per_node.values().sum();
    serve.routed_max_share =
        routed_per_node.values().fold(0.0f64, |m, &v| m.max(v)) / total.max(1.0);

    // Replay: the wire codec on every request and terminal event, then
    // every job through the layers, one graph per distinct (H, strategy)
    // as a node's cache holds them. Comparisons are not timed.
    let solver = harness::default_flow_solver();
    let mut layers = Layers::default();
    let mut replay_wall = 0.0;
    let before = Reading::now();
    let mut graphs: HashMap<(u64, String), HttGraph> = HashMap::new();
    for (i, (job, (_, done))) in jobs.iter().zip(&trips).enumerate() {
        let t = Instant::now();
        let request = Request::Submit {
            label: job.label.clone(),
            kind: "compile".into(),
            params: job.params(),
            options: SubmitOptions::default(),
        };
        let line = layers.time("serve.codec_s", || request.encode());
        let decoded = layers.time("serve.codec_s", || Request::decode(&line));
        let event = done.as_ref().ok().map(|d| Event::Done {
            job: i as u64,
            outcome: Outcome::Compile(d.summary.clone()),
            cache_delta: CacheStats::default(),
            flow_solver: d.flow_solver,
            node: None,
        });
        let event_back = event.as_ref().map(|e| {
            let line = layers.time("serve.codec_s", || e.encode());
            layers.time("serve.codec_s", || Event::decode(&line))
        });

        let key = (
            hamiltonian_fingerprint(&job.hamiltonian),
            job.strategy.label(),
        );
        if !graphs.contains_key(&key) {
            if let Ok(htt) = replay::build_htt(&mut layers, &job.hamiltonian, &job.strategy, solver)
            {
                graphs.insert(key.clone(), htt);
            }
        }
        let summary = graphs.get(&key).map(|htt| {
            let cfg = job.request().config;
            let compiled = replay::compile(&mut layers, htt, &cfg);
            let fidelity = job.fidelity.then(|| {
                replay::fidelity(&mut layers, htt.hamiltonian(), job.time, &compiled.sequence)
            });
            CompileSummary {
                num_samples: compiled.num_samples,
                lambda: compiled.lambda,
                stats: compiled.stats,
                fidelity,
            }
        });
        replay_wall += t.elapsed().as_secs_f64();

        report.check(decoded.as_ref() == Ok(&request), || {
            format!("{}: submit did not survive the codec", job.label)
        });
        if let (Some(e), Some(back)) = (&event, &event_back) {
            report.check(back.as_ref() == Ok(e), || {
                format!("{}: done event did not survive the codec", job.label)
            });
        }
        let ok = match (summary, done) {
            (Some(s), Ok(d)) => outputs::same(&s, &d.summary, outputs::summary),
            _ => false,
        };
        report.check(ok, || {
            format!("{}: layer replay differs from the fleet", job.label)
        });
    }
    let flow_delta = Reading::now().since(&before);
    harness::per_layer(
        report,
        &layers,
        replay_wall,
        &flow_delta,
        &engine_delta,
        Some(&serve),
    );
}
