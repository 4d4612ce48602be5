//! The engine: workload execution over the pool + cache.
//!
//! The public job surface is the open [`Workload`] trait (see
//! [`crate::workload`]); this module owns the machinery underneath it — the
//! engine itself, the two typed batch kinds ([`CompileRequest`] and
//! [`SweepRequest`]) and their deduplicated graph resolution.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;

use marqsim_core::experiment::{
    compile_point, point_seed, ExperimentPoint, SweepConfig, SweepResult,
};
use marqsim_core::metrics::{evaluate_fidelity, ReferenceCell};
use marqsim_core::{
    CompileError, CompileResult, Compiler, CompilerConfig, HttGraph, SolverKind, TransitionStrategy,
};
use marqsim_obs::{metrics, trace};
use marqsim_pauli::Hamiltonian;

use crate::cache::{hamiltonian_fingerprint, CacheConfig, CacheKey, StrategyKey, TransitionCache};
use crate::error::EngineError;
use crate::job::{CancelToken, JobControl, JobHandle, JobId, JobState};
use crate::pool::{Priority, ThreadPool};
use crate::workload::{
    CompileWorkload, ProgressCadence, ProgressSink, SubmitOptions, SweepWorkload, Workload,
    WorkloadCtx, WorkloadOutput,
};

/// Engine construction parameters.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker-thread count; `0` means "auto" (all available cores).
    pub threads: usize,
    /// Cache configuration: sharding, the per-shard LRU cap, and the
    /// optional persistence directory.
    pub cache: CacheConfig,
}

impl EngineConfig {
    /// Reads the configuration from the environment:
    ///
    /// * `MARQSIM_THREADS=N` — worker count (positive integer);
    /// * `MARQSIM_CACHE_CAP=N` — LRU entry cap per cache shard
    ///   (`0` = unbounded, default [`DEFAULT_CACHE_CAP`](crate::cache::DEFAULT_CACHE_CAP));
    /// * `MARQSIM_CACHE_DIR=PATH` — enable `P_gc` disk persistence;
    /// * `MARQSIM_FLOW_SOLVER=ssp|network_simplex|auto` — default
    ///   min-cost-flow backend for every flow solve this engine performs
    ///   (default `auto`: `ssp` up to
    ///   [`SolverKind::AUTO_SSP_MAX_STRINGS`] strings, `network_simplex`
    ///   above).
    ///
    /// Unset or empty variables keep their defaults.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] naming the offending variable
    /// and value for anything unparsable — `MARQSIM_THREADS=0` or garbage
    /// never silently falls back to a default.
    pub fn from_env() -> Result<Self, EngineError> {
        fn var(name: &str) -> Option<String> {
            std::env::var(name)
                .ok()
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty())
        }
        EngineConfig::from_values(
            var("MARQSIM_THREADS").as_deref(),
            var("MARQSIM_CACHE_CAP").as_deref(),
            var("MARQSIM_CACHE_DIR").as_deref(),
            var("MARQSIM_FLOW_SOLVER").as_deref(),
        )
    }

    /// Builds a configuration from raw override strings — the pure core of
    /// [`from_env`](Self::from_env) (environment variables are process-global,
    /// so tests validate parsing through this entry point). `None` means
    /// "keep the default" for each setting.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for an unparsable value; see
    /// [`from_env`](Self::from_env).
    pub fn from_values(
        threads: Option<&str>,
        cache_cap: Option<&str>,
        cache_dir: Option<&str>,
        flow_solver: Option<&str>,
    ) -> Result<Self, EngineError> {
        let mut config = EngineConfig::default();
        if let Some(raw) = threads {
            config.threads = EngineConfig::parse_threads("MARQSIM_THREADS", raw)?;
        }
        if let Some(raw) = cache_cap {
            config.cache.cap_per_shard = raw.parse::<usize>().map_err(|_| {
                EngineError::invalid_config(format!(
                    "MARQSIM_CACHE_CAP={raw:?} is not an entry count (use a non-negative integer; 0 = unbounded)"
                ))
            })?;
        }
        if let Some(raw) = cache_dir {
            config.cache.persist_dir = Some(raw.into());
        }
        if let Some(raw) = flow_solver {
            config.cache.flow_solver = SolverKind::parse(raw).ok_or_else(|| {
                EngineError::invalid_config(format!(
                    "MARQSIM_FLOW_SOLVER={raw:?} is not a registered backend (use {})",
                    SolverKind::SELECTABLE.map(SolverKind::as_str).join("/")
                ))
            })?;
        }
        Ok(config)
    }

    /// Strictly parses a worker-count override, naming `var` in the error
    /// so every thread-count variable (`MARQSIM_THREADS`, the serve
    /// daemon's `MARQSIM_SERVE_THREADS`) shares one parsing rule and one
    /// diagnostic shape.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for `0` or anything that is
    /// not a positive integer.
    pub fn parse_threads(var: &str, raw: &str) -> Result<usize, EngineError> {
        match raw.parse::<usize>() {
            Ok(0) => Err(EngineError::invalid_config(format!(
                "{var}=0 would run no workers; unset it to use all available cores"
            ))),
            Ok(n) => Ok(n),
            Err(_) => Err(EngineError::invalid_config(format!(
                "{var}={raw:?} is not a positive integer"
            ))),
        }
    }

    /// Sets the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the cache configuration (sharding, cap, persistence).
    pub fn with_cache_config(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// One compile job: a Hamiltonian and a full compiler configuration.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// Identifies the job in outcomes, errors, and progress reports.
    pub label: String,
    /// The Hamiltonian to compile.
    pub hamiltonian: Hamiltonian,
    /// Compiler parameters (strategy, time, ε, seed, synthesis flags).
    pub config: CompilerConfig,
    /// Whether to also evaluate the unitary fidelity of the sampled
    /// sequence (exponential in qubit count — keep to small systems).
    pub evaluate_fidelity: bool,
}

impl CompileRequest {
    /// A compile-only request.
    pub fn new(label: impl Into<String>, hamiltonian: Hamiltonian, config: CompilerConfig) -> Self {
        CompileRequest {
            label: label.into(),
            hamiltonian,
            config,
            evaluate_fidelity: false,
        }
    }

    /// Requests fidelity evaluation alongside the compile.
    pub fn with_fidelity(mut self) -> Self {
        self.evaluate_fidelity = true;
        self
    }
}

/// The output of one [`CompileRequest`].
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// Label of the request that produced this outcome.
    pub label: String,
    /// The compiler output.
    pub result: CompileResult,
    /// Unitary fidelity, when requested.
    pub fidelity: Option<f64>,
}

/// One full-sweep job: a (benchmark, strategy) pair swept over precisions
/// and repetitions, exactly like `marqsim_core::experiment::run_sweep`.
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// Identifies the job in outcomes, errors, and progress reports.
    pub label: String,
    /// The Hamiltonian to sweep.
    pub hamiltonian: Hamiltonian,
    /// Transition strategy for every point of this sweep.
    pub strategy: TransitionStrategy,
    /// Precisions, repetitions, base seed, fidelity switch.
    pub config: SweepConfig,
}

impl SweepRequest {
    /// Creates a sweep request.
    pub fn new(
        label: impl Into<String>,
        hamiltonian: Hamiltonian,
        strategy: TransitionStrategy,
        config: SweepConfig,
    ) -> Self {
        SweepRequest {
            label: label.into(),
            hamiltonian,
            strategy,
            config,
        }
    }
}

/// A job kind the batch machinery runs ([`WorkloadCtx`]'s batch step): one
/// HTT graph per job, expanded into point-level tasks on the shared work
/// queue, then reassembled into one outcome per job. [`CompileRequest`] and
/// [`SweepRequest`] are the two kinds. A batch holds one kind, so the type
/// of every task's output is fixed by the batch's type.
pub(crate) trait BatchJob: Send + 'static {
    /// One point-level unit of work.
    type Task: Send + 'static;
    /// The output of one task.
    type Point: Send + 'static;
    /// The job's reassembled output.
    type Outcome;

    /// Identifies the job in outcomes and errors.
    fn label(&self) -> &str;
    /// The Hamiltonian whose graph the job samples.
    fn hamiltonian(&self) -> &Hamiltonian;
    /// The strategy whose graph the job samples.
    fn strategy(&self) -> &TransitionStrategy;
    /// The job's tasks over its resolved graph, in output order.
    fn tasks(&self, graph: &Arc<HttGraph>) -> Vec<Self::Task>;
    /// Runs one task. The output is a pure function of the task, never of
    /// scheduling.
    fn run(task: Self::Task) -> Result<Self::Point, CompileError>;
    /// Builds the job's outcome from its task outputs, in task order.
    fn finish(self, points: Vec<Self::Point>) -> Self::Outcome;
}

impl BatchJob for CompileRequest {
    type Task = (CompileRequest, Arc<HttGraph>);
    type Point = CompileOutcome;
    type Outcome = CompileOutcome;

    fn label(&self) -> &str {
        &self.label
    }

    fn hamiltonian(&self) -> &Hamiltonian {
        &self.hamiltonian
    }

    fn strategy(&self) -> &TransitionStrategy {
        &self.config.strategy
    }

    fn tasks(&self, graph: &Arc<HttGraph>) -> Vec<Self::Task> {
        vec![(self.clone(), Arc::clone(graph))]
    }

    fn run((request, graph): Self::Task) -> Result<CompileOutcome, CompileError> {
        let time = request.config.time;
        let result = Compiler::new(request.config).compile_with_htt(&graph)?;
        let fidelity = request
            .evaluate_fidelity
            .then(|| evaluate_fidelity(&result.hamiltonian, time, &result.sequence));
        Ok(CompileOutcome {
            label: request.label,
            result,
            fidelity,
        })
    }

    fn finish(self, mut points: Vec<CompileOutcome>) -> CompileOutcome {
        points.pop().expect("one task per compile job")
    }
}

/// One `(ε, repetition)` point of a sweep job.
pub(crate) struct SweepPoint {
    graph: Arc<HttGraph>,
    config: Arc<SweepConfig>,
    epsilon: f64,
    seed: u64,
    /// `exp(iHt)`, shared by every point of the sweep.
    reference: Arc<ReferenceCell>,
}

impl BatchJob for SweepRequest {
    type Task = SweepPoint;
    type Point = ExperimentPoint;
    type Outcome = SweepResult;

    fn label(&self) -> &str {
        &self.label
    }

    fn hamiltonian(&self) -> &Hamiltonian {
        &self.hamiltonian
    }

    fn strategy(&self) -> &TransitionStrategy {
        &self.strategy
    }

    fn tasks(&self, graph: &Arc<HttGraph>) -> Vec<SweepPoint> {
        // One exact unitary per sweep job, computed by the first point that
        // finishes accumulating.
        let reference = Arc::new(ReferenceCell::new());
        let config = Arc::new(self.config.clone());
        let mut points = Vec::with_capacity(config.epsilons.len() * config.repeats);
        for (eps_idx, &epsilon) in config.epsilons.iter().enumerate() {
            for rep in 0..config.repeats {
                points.push(SweepPoint {
                    graph: Arc::clone(graph),
                    config: Arc::clone(&config),
                    epsilon,
                    seed: point_seed(&config, eps_idx, rep),
                    reference: Arc::clone(&reference),
                });
            }
        }
        points
    }

    fn run(point: SweepPoint) -> Result<ExperimentPoint, CompileError> {
        compile_point(
            &point.graph,
            &point.config,
            point.epsilon,
            point.seed,
            &point.reference,
        )
    }

    fn finish(self, points: Vec<ExperimentPoint>) -> SweepResult {
        SweepResult {
            label: self.strategy.label(),
            points,
        }
    }
}

/// A progress snapshot, reported once per completed unit of work (subject
/// to the submission's [`ProgressCadence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Units finished so far.
    pub completed: usize,
    /// Total units of the running job.
    pub total: usize,
}

pub(crate) type ProgressFn = dyn Fn(Progress) + Send + Sync;

/// The parallel compilation engine.
///
/// Owns a [`ThreadPool`] and a [`TransitionCache`]; see the crate docs for
/// the job model and the determinism guarantee.
pub struct Engine {
    pool: ThreadPool,
    cache: Arc<TransitionCache>,
    next_job_id: AtomicU64,
    active_jobs: AtomicUsize,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.pool.threads())
            .field("cache", &self.cache.stats())
            .field("active_jobs", &self.active_jobs())
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            pool: ThreadPool::new(config.resolved_threads()),
            cache: Arc::new(TransitionCache::with_config(config.cache.clone())),
            next_job_id: AtomicU64::new(1),
            active_jobs: AtomicUsize::new(0),
        }
    }

    /// Creates an engine configured from the environment
    /// (`MARQSIM_THREADS`, `MARQSIM_CACHE_CAP`, `MARQSIM_CACHE_DIR`,
    /// `MARQSIM_FLOW_SOLVER`). This is what every `marqsim-bench` binary
    /// uses.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidConfig`] for an unparsable override —
    /// see [`EngineConfig::from_env`].
    pub fn from_env() -> Result<Self, EngineError> {
        Ok(Engine::new(EngineConfig::from_env()?))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The transition cache (for statistics and explicit clearing).
    pub fn cache(&self) -> &TransitionCache {
        &self.cache
    }

    /// The engine's default min-cost-flow backend (`MARQSIM_FLOW_SOLVER` /
    /// [`CacheConfig::flow_solver`]); a submission's
    /// [`SubmitOptions::flow_solver`] overrides it per job.
    pub fn flow_solver(&self) -> SolverKind {
        self.cache.flow_solver()
    }

    /// Number of asynchronously submitted jobs that have not yet produced
    /// an outcome.
    pub fn active_jobs(&self) -> usize {
        self.active_jobs.load(Ordering::Relaxed)
    }

    /// Number of point-level tasks waiting in the pool's injector — the
    /// queue-depth signal the serve layer reports in its `stats` verb.
    pub fn queue_depth(&self) -> usize {
        self.pool.queued()
    }

    pub(crate) fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// The context of every *synchronous* run ([`run_workload`](Self::run_workload),
    /// [`compile_many`](Self::compile_many)): fresh cancel token, no
    /// progress callback, normal priority, engine-default flow solver.
    fn run_sync<T>(
        &self,
        label: &str,
        total_units: usize,
        run: impl FnOnce(&WorkloadCtx<'_>) -> T,
    ) -> T {
        let ctx = WorkloadCtx::new(
            self,
            label.to_string(),
            CancelToken::new(),
            ProgressSink::new(None, None, ProgressCadence::default()),
            Priority::Normal,
            self.flow_solver(),
            total_units,
        );
        run(&ctx)
    }

    /// Runs one workload synchronously on the calling thread (its pool
    /// fan-out still parallelizes) and returns its output. Progress is
    /// tracked but reported to no callback; submit the workload to observe
    /// it.
    ///
    /// # Errors
    ///
    /// Returns the workload's [`EngineError`].
    pub fn run_workload(&self, workload: &dyn Workload) -> Result<WorkloadOutput, EngineError> {
        self.run_sync(workload.label(), workload.total_units(), |ctx| {
            workload.run(ctx)
        })
    }

    /// Submits one workload for asynchronous execution and returns
    /// immediately with a [`JobHandle`] carrying the job's engine-unique
    /// [`JobId`].
    ///
    /// The workload runs on a dedicated coordinator thread (its pool
    /// fan-out interleaves with every other job's on the shared work
    /// queue), so the caller never blocks. Collect the outcome with
    /// [`JobHandle::collect`] (blocking) or [`JobHandle::try_collect`]
    /// (non-blocking); request cooperative cancellation with
    /// [`JobHandle::cancel`] (observed by built-in workloads before graph
    /// resolution and before every point-level task, so a cancelled job
    /// resolves to [`EngineError::Cancelled`] after its in-flight units
    /// drain).
    pub fn submit<W: Workload + 'static>(self: &Arc<Self>, workload: W) -> JobHandle {
        self.submit_with_options(workload, SubmitOptions::default(), |_| {})
    }

    /// The full submission entry point: explicit [`SubmitOptions`]
    /// (priority, admission bound, progress cadence) plus a per-job
    /// progress callback, invoked on the coordinator thread. The handle's
    /// [`progress`](JobHandle::progress) snapshot is updated either way.
    pub fn submit_with_options<W: Workload + 'static>(
        self: &Arc<Self>,
        workload: W,
        options: SubmitOptions,
        callback: impl Fn(Progress) + Send + Sync + 'static,
    ) -> JobHandle {
        let (tx, rx) = channel();
        let control = self.submit_with_hooks(
            workload,
            options,
            move |_, progress| callback(progress),
            move |_, outcome| {
                // The handle may have been dropped; the outcome is then
                // discarded, which is the fire-and-forget contract.
                let _ = tx.send(outcome);
            },
        );
        JobHandle::new(control, rx)
    }

    /// The hook-based submission entry point under
    /// [`submit_with_options`](Self::submit_with_options): instead of a
    /// [`JobHandle`] to block on, the caller passes a completion hook and
    /// gets the job's [`JobControl`] back immediately. Both hooks run on
    /// the job's coordinator thread and carry the engine-assigned
    /// [`JobId`], so a caller multiplexing many jobs into one queue (the
    /// serve event loop) needs neither a per-job waiter thread nor an id
    /// handshake with the progress stream.
    ///
    /// `on_complete` fires exactly once, after the job is marked finished
    /// ([`JobControl::is_finished`] already answers `true` inside the
    /// hook) and the engine's active-job gauge has been decremented.
    pub fn submit_with_hooks<W: Workload + 'static>(
        self: &Arc<Self>,
        workload: W,
        options: SubmitOptions,
        on_progress: impl Fn(JobId, Progress) + Send + Sync + 'static,
        on_complete: impl FnOnce(JobId, Result<WorkloadOutput, EngineError>) + Send + 'static,
    ) -> JobControl {
        let id = JobId(self.next_job_id.fetch_add(1, Ordering::Relaxed));
        let state = Arc::new(JobState::new(id, workload.label().to_string()));
        let control = JobControl::new(Arc::clone(&state));
        let flow_solver = options.flow_solver.unwrap_or_else(|| self.flow_solver());

        self.active_jobs.fetch_add(1, Ordering::Relaxed);
        let registry = metrics::global();
        registry.counter("marqsim_engine_jobs_total").inc();
        registry.gauge("marqsim_engine_active_jobs").add(1);
        let engine = Arc::clone(self);
        let coordinator_state = Arc::clone(&state);
        let job_id = id.0;
        std::thread::Builder::new()
            .name(format!("marqsim-job-{}", id.0))
            .spawn(move || {
                // The job span is opened on the coordinator thread, so
                // everything the workload does — graph resolution, pool
                // submissions (whose tasks re-parent here), persist I/O —
                // nests under it in the trace.
                let job_span = trace::Span::enter("job")
                    // Named `job`, not `id`: the record already carries
                    // the span's own `id` key.
                    .field("job", job_id)
                    .field("label", coordinator_state.label.as_str())
                    .field("flow_solver", flow_solver.as_str());
                let sink = ProgressSink::new(
                    Some(Arc::new(move |progress| on_progress(id, progress))),
                    Some(Arc::clone(&coordinator_state)),
                    options.progress_every,
                );
                let cancel = coordinator_state.cancel.clone();
                // A job cancelled before it starts never touches the pool.
                let outcome = if cancel.is_cancelled() {
                    Err(EngineError::cancelled(&coordinator_state.label))
                } else {
                    let ctx = WorkloadCtx::new(
                        &engine,
                        coordinator_state.label.clone(),
                        cancel,
                        sink,
                        options.priority,
                        flow_solver,
                        workload.total_units(),
                    );
                    // A panic in a custom workload body costs that job, not
                    // the coordinator accounting (the handle still resolves,
                    // active_jobs still decrements).
                    catch_unwind(AssertUnwindSafe(|| workload.run(&ctx))).unwrap_or_else(
                        |payload| {
                            let message = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "workload panicked".to_string());
                            Err(EngineError::panic(&coordinator_state.label, message))
                        },
                    )
                };
                coordinator_state.mark_finished();
                engine.active_jobs.fetch_sub(1, Ordering::Relaxed);
                metrics::global().gauge("marqsim_engine_active_jobs").sub(1);
                // Close the span before the result leaves: a caller holding
                // the result can then read the job's whole trace.
                drop(job_span);
                on_complete(id, outcome);
            })
            .expect("spawn job coordinator");

        control
    }

    /// Compiles one request on the calling thread's batch machinery.
    ///
    /// # Errors
    ///
    /// Returns the job's [`EngineError`].
    pub fn compile(&self, request: CompileRequest) -> Result<CompileOutcome, EngineError> {
        self.run_workload(&CompileWorkload::new(request))
            .map(WorkloadOutput::into_compiled)
    }

    /// Compiles many requests concurrently as one batch; outcomes keep
    /// request order.
    pub fn compile_many(
        &self,
        requests: Vec<CompileRequest>,
    ) -> Vec<Result<CompileOutcome, EngineError>> {
        self.run_sync("compile_many", requests.len(), |ctx| {
            ctx.run_batch(requests)
        })
    }

    /// Runs one sweep across the pool. Byte-identical to
    /// `marqsim_core::experiment::run_sweep` with the same arguments.
    ///
    /// # Errors
    ///
    /// Returns the first failing point's [`EngineError`].
    pub fn run_sweep(
        &self,
        ham: &Hamiltonian,
        strategy: &TransitionStrategy,
        config: &SweepConfig,
    ) -> Result<SweepResult, EngineError> {
        self.run_workload(&SweepWorkload::new(SweepRequest::new(
            strategy.label(),
            ham.clone(),
            strategy.clone(),
            config.clone(),
        )))
        .map(WorkloadOutput::into_swept)
    }

    /// Generic parallel map over the engine's pool: applies `f` to every
    /// item concurrently and returns outputs in input order. Worker panics
    /// become [`EngineError::WorkerPanic`] tagged with `label`, so workload
    /// errors carry the job label.
    pub fn map<I, O, F>(&self, label: &str, items: Vec<I>, f: F) -> Vec<Result<O, EngineError>>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(usize, I) -> O + Send + Sync + 'static,
    {
        self.pool
            .map(items, Arc::new(f), |_| {})
            .into_iter()
            .map(|result| result.map_err(|message| EngineError::panic(label, message)))
            .collect()
    }

    /// Resolves each job's HTT graph through the cache, building each
    /// *distinct* key exactly once, with the builds running on the pool.
    ///
    /// Same-batch duplicates are deduplicated up front (not left to racing
    /// cache misses), and distinct keys that share a Hamiltonian fingerprint
    /// — e.g. the GC and GC-RP strategies of one benchmark — are built
    /// sequentially within one pool task so the second build sees the
    /// first's cached `P_gc` component. Unrelated Hamiltonians' builds
    /// still run concurrently across pool workers.
    pub(crate) fn resolve_graphs<J: BatchJob>(
        &self,
        jobs: &[J],
        priority: Priority,
        solver: SolverKind,
    ) -> Vec<Result<Arc<HttGraph>, EngineError>> {
        // Deduplicate: one entry per distinct (Hamiltonian, strategy). The
        // cache key narrows candidates, but duplicates are confirmed by
        // full Hamiltonian equality, mirroring the cache's own
        // collision-proof lookup.
        let mut distinct: Vec<(Hamiltonian, TransitionStrategy, CacheKey)> = Vec::new();
        let mut job_to_distinct: Vec<usize> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let key = CacheKey {
                fingerprint: hamiltonian_fingerprint(job.hamiltonian()),
                strategy: StrategyKey::of(job.strategy()),
                solver,
            };
            let index = distinct
                .iter()
                .position(|(ham, _, k)| *k == key && ham == job.hamiltonian());
            job_to_distinct.push(index.unwrap_or_else(|| {
                distinct.push((job.hamiltonian().clone(), job.strategy().clone(), key));
                distinct.len() - 1
            }));
        }

        // Group distinct entries by fingerprint so same-Hamiltonian builds
        // run sequentially in one task (sharing the P_gc component solve).
        let mut groups_by_fp: HashMap<u64, Vec<usize>> = HashMap::new();
        for (index, (_, _, key)) in distinct.iter().enumerate() {
            groups_by_fp.entry(key.fingerprint).or_default().push(index);
        }
        let groups: Vec<Vec<usize>> = groups_by_fp.into_values().collect();
        let group_members = groups.clone();

        let cache = Arc::clone(&self.cache);
        let distinct_count = distinct.len();
        let shared_distinct = Arc::new(distinct);
        let group_results = self.pool.map_at(
            priority,
            groups,
            Arc::new(move |_idx, members: Vec<usize>| {
                members
                    .into_iter()
                    .map(|index| {
                        let (ham, strategy, _) = &shared_distinct[index];
                        (index, cache.get_or_build_with(ham, strategy, solver))
                    })
                    .collect::<Vec<_>>()
            }),
            |_| {},
        );

        enum Built {
            Graph(Arc<HttGraph>),
            Failed(CompileError),
            Panicked(String),
        }
        let mut built: Vec<Option<Built>> = (0..distinct_count).map(|_| None).collect();
        for (members, result) in group_members.iter().zip(group_results) {
            match result {
                Ok(entries) => {
                    for (index, outcome) in entries {
                        built[index] = Some(match outcome {
                            Ok(graph) => Built::Graph(graph),
                            Err(e) => Built::Failed(e),
                        });
                    }
                }
                // The panic message is attributed only to this group's
                // members — other groups keep their own outcomes.
                Err(message) => {
                    for &index in members {
                        built[index] = Some(Built::Panicked(message.clone()));
                    }
                }
            }
        }

        jobs.iter()
            .zip(&job_to_distinct)
            .map(|(job, &index)| {
                match built[index]
                    .as_ref()
                    .expect("every distinct entry was built or attributed")
                {
                    Built::Graph(graph) => Ok(Arc::clone(graph)),
                    Built::Failed(e) => Err(EngineError::compile(job.label(), e.clone())),
                    Built::Panicked(message) => {
                        Err(EngineError::panic(job.label(), message.clone()))
                    }
                }
            })
            .collect()
    }
}
