//! The open job API: the [`Workload`] trait and its execution context.
//!
//! The job surface is a trait, so a new kind of work needs no change to
//! the engine, the serve protocol, or the binaries that submit jobs:
//!
//! * [`Workload`] — anything with a label, a unit count, and a `run` body.
//!   Implementations live anywhere (other crates, test files, downstream
//!   services); the engine schedules them without knowing their shape.
//! * [`WorkloadCtx`] — what a running workload is handed: the shared
//!   [`TransitionCache`], the pool's [`map`](WorkloadCtx::map)-style
//!   fan-out, a cooperative cancellation checkpoint
//!   ([`ensure_active`](WorkloadCtx::ensure_active)), and a throttled
//!   progress sink.
//! * [`WorkloadOutput`] — a type-erased result. In-process callers
//!   [`downcast`](WorkloadOutput::downcast) it back; the serve layer
//!   encodes it through its workload registry.
//! * [`SubmitOptions`] — typed submission parameters: scheduling
//!   [`Priority`], the per-connection `max_in_flight` admission bound the
//!   serve layer enforces, and the [`ProgressCadence`] that coalesces
//!   progress events.
//!
//! Four workloads ship built in: [`CompileWorkload`] and [`SweepWorkload`]
//! (one compile or sweep), [`PerturbAverageWorkload`] (the `P_rp`
//! perturbation average with its sample solves fanned out over the pool),
//! and [`BenchmarkSuiteWorkload`] (a multi-Hamiltonian × multi-strategy
//! sweep grid — the shape every `fig*`/`table*` binary used to hand-roll).
//!
//! # Cancellation contract
//!
//! Cancellation is cooperative: call
//! [`ensure_active`](WorkloadCtx::ensure_active) between units of work (or
//! use [`map`](WorkloadCtx::map), which checks before every item). A
//! cancelled workload should return [`EngineError::Cancelled`] — which is
//! exactly what `ensure_active` hands back.
//!
//! # Progress contract
//!
//! Report monotonically non-decreasing completed-unit counts that never
//! exceed [`total_units`](Workload::total_units). The sink enforces
//! monotonicity (a stale lower count is dropped, never re-emitted) and
//! applies the submission's [`ProgressCadence`]; the final
//! `completed == total` report is always delivered.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use marqsim_core::experiment::{SweepConfig, SweepResult};
use marqsim_core::perturb::{perturbed_matrix_sample, PerturbationConfig};
use marqsim_core::{SolverKind, TransitionStrategy};
use marqsim_markov::combine::combine;
use marqsim_markov::TransitionMatrix;
use marqsim_obs::{lockcheck, trace};
use marqsim_pauli::Hamiltonian;

use crate::cache::TransitionCache;
use crate::engine::{
    BatchJob, CompileOutcome, CompileRequest, Engine, Progress, ProgressFn, SweepRequest,
};
use crate::error::EngineError;
use crate::job::{CancelToken, JobState};
use crate::pool::Priority;

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// A unit of submittable work. See the [module docs](self) for the
/// cancellation and progress contracts.
pub trait Workload: Send + Sync {
    /// Identifies the job in outcomes, errors, and progress reports.
    fn label(&self) -> &str;

    /// How many units of work this workload will report progress over.
    /// Progress counts passed to [`WorkloadCtx::report`] must stay within
    /// `0..=total_units()`.
    fn total_units(&self) -> usize;

    /// Executes the workload. Runs on the job's coordinator thread (for
    /// [`Engine::submit`]) or the calling thread (for
    /// [`Engine::run_workload`]); fan work out over the pool with
    /// [`WorkloadCtx::map`].
    ///
    /// # Errors
    ///
    /// Returns the workload's [`EngineError`] — [`EngineError::Cancelled`]
    /// when cancellation was observed, [`EngineError::workload`] for
    /// domain-specific failures.
    fn run(&self, ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError>;
}

impl Workload for Box<dyn Workload> {
    fn label(&self) -> &str {
        (**self).label()
    }

    fn total_units(&self) -> usize {
        (**self).total_units()
    }

    fn run(&self, ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
        (**self).run(ctx)
    }
}

/// The type-erased output of a [`Workload`].
///
/// In-process callers get their concrete type back with
/// [`downcast`](Self::downcast) / [`downcast_ref`](Self::downcast_ref); the
/// serve layer encodes outputs through its per-kind registry. The
/// [`into_swept`](Self::into_swept) / [`into_compiled`](Self::into_compiled)
/// helpers unwrap the built-in workloads' outputs.
pub struct WorkloadOutput {
    value: Box<dyn Any + Send>,
}

impl std::fmt::Debug for WorkloadOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadOutput").finish_non_exhaustive()
    }
}

impl WorkloadOutput {
    /// Wraps any sendable value.
    pub fn new<T: Any + Send>(value: T) -> Self {
        WorkloadOutput {
            value: Box::new(value),
        }
    }

    /// Recovers the concrete output, or returns `self` unchanged if the
    /// type does not match.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` on a type mismatch so the caller can try
    /// another type.
    pub fn downcast<T: Any>(self) -> Result<T, WorkloadOutput> {
        match self.value.downcast::<T>() {
            Ok(value) => Ok(*value),
            Err(value) => Err(WorkloadOutput { value }),
        }
    }

    /// Borrows the concrete output, if the type matches.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.value.downcast_ref::<T>()
    }

    /// Unwraps a [`SweepWorkload`] output; panics on any other type.
    pub fn into_swept(self) -> SweepResult {
        self.downcast::<SweepResult>()
            .expect("expected a sweep outcome")
    }

    /// Unwraps a [`CompileWorkload`] output; panics on any other type.
    pub fn into_compiled(self) -> CompileOutcome {
        self.downcast::<CompileOutcome>()
            .expect("expected a compile outcome")
    }
}

// ---------------------------------------------------------------------------
// Submission options
// ---------------------------------------------------------------------------

/// How often progress reports become progress *events* (engine callbacks,
/// serve `progress` lines). The default — every unit, no time floor —
/// preserves the historical one-event-per-point behavior at evaluation
/// scale; thousand-point sweeps coalesce with
/// [`ProgressCadence::every`] / [`with_interval`](Self::with_interval).
///
/// An event is emitted when **either** threshold is reached: `units` more
/// units completed since the last event, or `interval` elapsed since the
/// last event. The final `completed == total` event is always emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressCadence {
    /// Emit after this many additional completed units (minimum 1).
    pub units: usize,
    /// Also emit once this much time has passed since the last event,
    /// regardless of the unit delta. `None` disables the time axis.
    pub interval: Option<Duration>,
}

impl Default for ProgressCadence {
    fn default() -> Self {
        ProgressCadence {
            units: 1,
            interval: None,
        }
    }
}

impl ProgressCadence {
    /// At most one event per `units` completed units.
    pub fn every(units: usize) -> Self {
        ProgressCadence {
            units: units.max(1),
            interval: None,
        }
    }

    /// Adds a time floor: an event is also emitted once `interval` has
    /// elapsed since the previous one.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = Some(interval);
        self
    }

    /// Interval-only coalescing: events come from the time axis alone
    /// (the unit threshold is effectively disabled); the final
    /// `completed == total` event is still always emitted.
    pub fn every_interval(interval: Duration) -> Self {
        ProgressCadence {
            units: usize::MAX,
            interval: Some(interval),
        }
    }
}

/// Typed submission parameters for [`Engine::submit_with_options`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Scheduling priority of the job's pool tasks (latency only — results
    /// are reassembled by index and cannot change).
    pub priority: Priority,
    /// Admission bound the serve layer enforces per connection: a submit
    /// arriving while this many of the connection's jobs are still in
    /// flight is rejected with a structured `busy` event instead of being
    /// queued. `None` falls back to the server's default; a set value can
    /// only *tighten* that default, never raise it. The engine itself
    /// stores but does not enforce this (in-process callers own their
    /// submission loop).
    pub max_in_flight: Option<usize>,
    /// Progress-event coalescing.
    pub progress_every: ProgressCadence,
    /// Min-cost-flow backend for this job's flow solves; `None` uses the
    /// engine default ([`Engine::flow_solver`]).
    pub flow_solver: Option<SolverKind>,
}

impl SubmitOptions {
    /// Default options (normal priority, server-default admission, one
    /// progress event per unit).
    pub fn new() -> Self {
        SubmitOptions::default()
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the per-connection in-flight admission bound.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = Some(max_in_flight);
        self
    }

    /// Sets the progress cadence.
    pub fn with_progress_every(mut self, cadence: ProgressCadence) -> Self {
        self.progress_every = cadence;
        self
    }

    /// Selects the min-cost-flow backend for this job.
    pub fn with_flow_solver(mut self, solver: SolverKind) -> Self {
        self.flow_solver = Some(solver);
        self
    }
}

// ---------------------------------------------------------------------------
// Progress sink
// ---------------------------------------------------------------------------

/// The engine side of the progress contract: records every report into the
/// job's live snapshot, enforces monotonicity, and throttles the callback
/// to the submission's [`ProgressCadence`].
pub(crate) struct ProgressSink {
    callback: Option<Arc<ProgressFn>>,
    state: Option<Arc<JobState>>,
    cadence: ProgressCadence,
    throttle: Mutex<ThrottleState>,
}

#[derive(Default)]
struct ThrottleState {
    /// Highest completed count seen so far (monotonicity floor).
    max_seen: usize,
    /// Completed count and instant of the last *emitted* event.
    last_emitted: Option<(usize, Instant)>,
}

impl ProgressSink {
    pub(crate) fn new(
        callback: Option<Arc<ProgressFn>>,
        state: Option<Arc<JobState>>,
        cadence: ProgressCadence,
    ) -> Self {
        ProgressSink {
            callback,
            state,
            cadence,
            throttle: Mutex::new(ThrottleState::default()),
        }
    }

    pub(crate) fn emit(&self, progress: Progress) {
        let (advanced, emit) = {
            let _witness = lockcheck::acquire("engine.workload.throttle");
            let mut throttle = self.throttle.lock().unwrap_or_else(PoisonError::into_inner);
            // Monotonicity: a report that does not advance the completed
            // count is dropped (stale counts from overlapping phases must
            // never run progress backwards on the wire).
            if progress.completed < throttle.max_seen
                || (progress.completed == throttle.max_seen
                    && matches!(throttle.last_emitted, Some((last, _)) if last == progress.completed))
            {
                (false, false)
            } else {
                throttle.max_seen = progress.completed;
                let is_final = progress.total > 0 && progress.completed == progress.total;
                let due = match throttle.last_emitted {
                    None => true,
                    Some((last_units, last_instant)) => {
                        progress.completed >= last_units.saturating_add(self.cadence.units.max(1))
                            || self
                                .cadence
                                .interval
                                .is_some_and(|interval| last_instant.elapsed() >= interval)
                    }
                };
                let emit = is_final || due;
                if emit {
                    throttle.last_emitted = Some((progress.completed, Instant::now()));
                }
                (true, emit)
            }
        };
        // The live snapshot follows every *advancing* report, throttled or
        // not — a stale lower count must not run the snapshot backwards
        // either.
        if advanced {
            if let Some(state) = &self.state {
                state.record_progress(progress);
            }
        }
        if emit {
            if let Some(callback) = &self.callback {
                callback(progress);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The execution context
// ---------------------------------------------------------------------------

/// What a running [`Workload`] is handed: the engine's shared cache, the
/// pool's fan-out, the job's cancellation token, and the throttled progress
/// sink.
///
/// Progress from [`map`](Self::map) (and the built-ins' batch machinery)
/// is **cumulative across phases**: the context tracks how many units
/// earlier `map` calls completed and offsets later calls by it, reporting
/// against the workload's [`total_units`](Workload::total_units) — so a
/// workload that maps twice still emits one monotone stream ending at
/// `completed == total`. (If phases turn out larger than `total_units`
/// promised, the reported total grows to match rather than overshooting.)
pub struct WorkloadCtx<'a> {
    engine: &'a Engine,
    label: String,
    cancel: CancelToken,
    sink: ProgressSink,
    priority: Priority,
    /// The min-cost-flow backend of this job (submission override or the
    /// engine default).
    flow_solver: SolverKind,
    /// The workload's own unit count, the denominator of cumulative
    /// progress.
    total_units: usize,
    /// Units completed by earlier `map` / batch phases.
    units_done: AtomicUsize,
}

impl<'a> WorkloadCtx<'a> {
    pub(crate) fn new(
        engine: &'a Engine,
        label: String,
        cancel: CancelToken,
        sink: ProgressSink,
        priority: Priority,
        flow_solver: SolverKind,
        total_units: usize,
    ) -> Self {
        WorkloadCtx {
            engine,
            label,
            cancel,
            sink,
            priority,
            flow_solver,
            total_units,
            units_done: AtomicUsize::new(0),
        }
    }

    /// The engine's shared transition cache.
    pub fn cache(&self) -> &TransitionCache {
        self.engine.cache()
    }

    /// The min-cost-flow backend this job's flow solves use
    /// ([`SubmitOptions::flow_solver`] override, or the engine default).
    pub fn flow_solver(&self) -> SolverKind {
        self.flow_solver
    }

    /// Checkpoint: returns [`EngineError::Cancelled`] (carrying the job
    /// label) once cancellation has been requested. Call between units of
    /// work.
    ///
    /// # Errors
    ///
    /// Exactly the cancellation error the workload should propagate.
    pub fn ensure_active(&self) -> Result<(), EngineError> {
        if self.cancel.is_cancelled() {
            Err(EngineError::cancelled(&self.label))
        } else {
            Ok(())
        }
    }

    /// Reports `completed` of `total` units done — **cumulative** counts
    /// over the whole workload, not per phase. Subject to the submission's
    /// [`ProgressCadence`]; the job's live snapshot
    /// ([`JobControl::progress`](crate::JobControl::progress)) follows
    /// every advancing call regardless. Also advances the context's
    /// cumulative counter, so manual reports and later
    /// [`map`](Self::map) phases compose.
    pub fn report(&self, completed: usize, total: usize) {
        self.units_done.fetch_max(completed, Ordering::Relaxed);
        self.sink.emit(Progress { completed, total });
    }

    /// Parallel fan-out over the engine's pool: applies `f` to every item
    /// concurrently at the job's priority and returns outputs in input
    /// order. Cancellation is checked before each item (skipped items
    /// yield [`EngineError::Cancelled`]), worker panics become
    /// [`EngineError::WorkerPanic`] tagged with the job label, and each
    /// completed item advances the workload's cumulative progress (one
    /// item = one unit, offset by earlier phases, reported against
    /// [`total_units`](Workload::total_units)).
    pub fn map<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<Result<O, EngineError>>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(usize, I) -> Result<O, EngineError> + Send + Sync + 'static,
    {
        self.fan_out(items, f)
            .into_iter()
            .map(|result| match result {
                Ok(Some(output)) => output,
                Ok(None) => Err(EngineError::cancelled(&self.label)),
                Err(message) => Err(EngineError::panic(&self.label, message)),
            })
            .collect()
    }

    /// The one pool fan-out under [`map`](Self::map) and the batch step:
    /// `Ok(None)` for an item skipped after cancellation, `Err` with the
    /// panic message for an item whose task panicked.
    fn fan_out<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<Result<Option<O>, String>>
    where
        I: Send + 'static,
        O: Send + 'static,
        F: Fn(usize, I) -> O + Send + Sync + 'static,
    {
        let base = self.units_done.load(Ordering::Relaxed);
        let items_len = items.len();
        let total = self.total_units.max(base + items_len);
        let cancel = self.cancel.clone();
        let task = Arc::new(move |index: usize, item: I| {
            if cancel.is_cancelled() {
                None
            } else {
                Some(f(index, item))
            }
        });
        let outputs = self
            .engine
            .pool()
            .map_at(self.priority, items, task, |done| {
                self.sink.emit(Progress {
                    completed: base + done,
                    total,
                })
            });
        self.units_done
            .fetch_max(base + items_len, Ordering::Relaxed);
        outputs
    }

    /// Runs a batch of one job kind: one HTT graph per job (deduplicated,
    /// built on the pool), then every job's point tasks on one work queue,
    /// reassembled per job. Errors carry the failing job's label.
    ///
    /// Determinism: each task's output is a pure function of its job (sweep
    /// points use `experiment::point_seed`, the serial seed stream), and
    /// outputs are reassembled by index, so outcomes are bit-identical for
    /// any thread count or priority.
    pub(crate) fn run_batch<J: BatchJob>(
        &self,
        jobs: Vec<J>,
    ) -> Vec<Result<J::Outcome, EngineError>> {
        // A job cancelled before graph resolution never touches the pool.
        if self.cancel.is_cancelled() {
            return jobs
                .iter()
                .map(|job| Err(EngineError::cancelled(job.label())))
                .collect();
        }
        let graphs = {
            let _span = trace::Span::enter("resolve_graph")
                .field("jobs", jobs.len())
                .field("backend", self.flow_solver.as_str());
            self.engine
                .resolve_graphs(&jobs, self.priority, self.flow_solver)
        };

        let mut owners = Vec::new();
        let mut tasks = Vec::new();
        for (index, (job, graph)) in jobs.iter().zip(&graphs).enumerate() {
            if let Ok(graph) = graph {
                for task in job.tasks(graph) {
                    owners.push(index);
                    tasks.push(task);
                }
            }
        }
        let mut per_job: Vec<Vec<_>> = jobs.iter().map(|_| Vec::new()).collect();
        for (owner, output) in owners
            .into_iter()
            .zip(self.fan_out(tasks, |_, task| J::run(task)))
        {
            per_job[owner].push(output);
        }

        jobs.into_iter()
            .zip(graphs)
            .zip(per_job)
            .map(|((job, graph), outputs)| {
                graph?;
                let points = outputs
                    .into_iter()
                    .map(|output| match output {
                        Ok(Some(point)) => point.map_err(|e| EngineError::compile(job.label(), e)),
                        Ok(None) => Err(EngineError::cancelled(job.label())),
                        Err(message) => Err(EngineError::panic(job.label(), message)),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(job.finish(points))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Built-in workloads
// ---------------------------------------------------------------------------

/// One compilation (optionally with fidelity evaluation) as a [`Workload`].
/// Output: [`CompileOutcome`].
#[derive(Debug, Clone)]
pub struct CompileWorkload {
    /// The wrapped request.
    pub request: CompileRequest,
}

impl CompileWorkload {
    /// Wraps a compile request.
    pub fn new(request: CompileRequest) -> Self {
        CompileWorkload { request }
    }
}

impl Workload for CompileWorkload {
    fn label(&self) -> &str {
        &self.request.label
    }

    fn total_units(&self) -> usize {
        1
    }

    fn run(&self, ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
        ctx.run_batch(vec![self.request.clone()])
            .pop()
            .expect("one outcome per job")
            .map(WorkloadOutput::new)
    }
}

/// One full `(ε, repetition)` sweep as a [`Workload`]. Output:
/// [`SweepResult`], bit-identical to the serial
/// `marqsim_core::experiment::run_sweep`.
#[derive(Debug, Clone)]
pub struct SweepWorkload {
    /// The wrapped request.
    pub request: SweepRequest,
}

impl SweepWorkload {
    /// Wraps a sweep request.
    pub fn new(request: SweepRequest) -> Self {
        SweepWorkload { request }
    }
}

impl Workload for SweepWorkload {
    fn label(&self) -> &str {
        &self.request.label
    }

    fn total_units(&self) -> usize {
        self.request.config.epsilons.len() * self.request.config.repeats
    }

    fn run(&self, ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
        ctx.run_batch(vec![self.request.clone()])
            .pop()
            .expect("one outcome per job")
            .map(WorkloadOutput::new)
    }
}

/// The parallel `P_rp` construction: `samples` independently perturbed
/// min-cost-flow solves fanned out over the pool, averaged into one
/// transition matrix. Output: [`PerturbAverageResult`].
///
/// Each sample is seeded independently
/// ([`perturbation_sample_seed`](marqsim_core::perturb::perturbation_sample_seed)),
/// so the result is deterministic for any thread count — but it is *not*
/// the same matrix as the serial
/// [`random_perturbation_matrix`](marqsim_core::perturb::random_perturbation_matrix),
/// which threads one RNG through all samples. The compiler's GC-RP
/// strategy keeps the serial construction (warm-started from the `P_gc`
/// basis where the backend supports it); this workload is the parallel
/// path for standalone `P_rp` analysis.
///
/// Under a basis-exporting backend the workload solves sample `0` cold,
/// exports its spanning basis, and warm-starts samples `1..` from it in
/// parallel — the perturbation only changes costs, never the topology, so
/// one basis serves every sample. The solves are attributed to the
/// engine's cache stats as `flow_solves` (cold) and
/// `warm_starts` (re-pivots): an `N`-sample job under the simplex backend
/// reports `flow_solves = 1, warm_starts = N - 1`.
#[derive(Debug, Clone)]
pub struct PerturbAverageWorkload {
    label: String,
    hamiltonian: Hamiltonian,
    config: PerturbationConfig,
}

impl PerturbAverageWorkload {
    /// A perturbation-average job over `ham`.
    pub fn new(
        label: impl Into<String>,
        hamiltonian: Hamiltonian,
        config: PerturbationConfig,
    ) -> Self {
        PerturbAverageWorkload {
            label: label.into(),
            hamiltonian,
            config,
        }
    }
}

/// Output of a [`PerturbAverageWorkload`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbAverageResult {
    /// Label of the job that produced this result.
    pub label: String,
    /// Number of perturbed solves averaged.
    pub samples: usize,
    /// The averaged transition matrix `P_rp`.
    pub matrix: TransitionMatrix,
}

impl Workload for PerturbAverageWorkload {
    fn label(&self) -> &str {
        &self.label
    }

    fn total_units(&self) -> usize {
        self.config.samples
    }

    fn run(&self, ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
        if self.config.samples == 0 {
            return Err(EngineError::workload(
                &self.label,
                "perturbation averaging needs at least one sample",
            ));
        }
        ctx.ensure_active()?;
        let ham = Arc::new(self.hamiltonian.clone());
        let config = self.config;
        let label = self.label.clone();
        // Resolve the `auto` policy on this workload's instance size up
        // front: the warm-start basis, the per-sample solves, and the
        // per-backend solve attribution below must all name one concrete
        // backend.
        let solver = ctx
            .flow_solver()
            .resolve_for_strings(self.hamiltonian.num_terms());
        // Sample 0 solves cold and exports its basis; the remaining samples
        // warm-start from it in parallel. The basis is a pure function of
        // (ham, config, solver), so the averaged matrix stays deterministic
        // for every thread count; backends without warm support export no
        // basis and each sample solves cold.
        let (first, _, basis) =
            perturbed_matrix_sample(&self.hamiltonian, &config, 0, solver, None)
                .map_err(|e| EngineError::compile(&self.label, e))?;
        ctx.report(1, self.config.samples);
        let basis = basis.map(Arc::new);
        let rest = ctx
            .map((1..self.config.samples).collect(), move |_idx, sample| {
                perturbed_matrix_sample(&ham, &config, sample, solver, basis.as_deref())
                    .map(|(matrix, flow, _)| (matrix, flow.warm_start))
                    .map_err(|e| EngineError::compile(&label, e))
            })
            .into_iter()
            .collect::<Result<Vec<(TransitionMatrix, bool)>, EngineError>>()?;
        let warm_starts = rest.iter().filter(|(_, warm)| *warm).count() as u64;
        let cold_solves = 1 + rest.len() - warm_starts as usize;
        for _ in 0..cold_solves {
            ctx.cache().record_flow_solve(solver);
        }
        ctx.cache().record_warm_starts(warm_starts);
        let matrices: Vec<TransitionMatrix> = std::iter::once(first)
            .chain(rest.into_iter().map(|(matrix, _)| matrix))
            .collect();
        let weights = vec![1.0 / matrices.len() as f64; matrices.len()];
        let matrix = combine(&matrices, &weights).map_err(|e| {
            EngineError::compile(&self.label, marqsim_core::CompileError::Combine(e))
        })?;
        Ok(WorkloadOutput::new(PerturbAverageResult {
            label: self.label.clone(),
            samples: self.config.samples,
            matrix,
        }))
    }
}

/// One case of a [`BenchmarkSuiteWorkload`]: a named benchmark swept under
/// one strategy with one sweep configuration.
#[derive(Debug, Clone)]
pub struct SuiteCase {
    /// Benchmark name (grouping key in the result).
    pub benchmark: String,
    /// The Hamiltonian to sweep.
    pub hamiltonian: Hamiltonian,
    /// The strategy for every point of this case.
    pub strategy: TransitionStrategy,
    /// Precisions, repetitions, base seed, fidelity switch.
    pub config: SweepConfig,
}

/// A multi-Hamiltonian × multi-strategy sweep grid — the shape every
/// `fig*`/`table*` evaluation binary used to hand-roll. All cases run as
/// one batch: graph resolution is deduplicated across cases (the GC and
/// GC-RP strategies of one benchmark share a single `P_gc` min-cost-flow
/// solve), and every case's point tasks interleave on one work queue, so a
/// grid of many small sweeps load-balances exactly like one big sweep.
/// Output: [`BenchmarkSuiteResult`], cases in submission order.
#[derive(Debug, Clone)]
pub struct BenchmarkSuiteWorkload {
    label: String,
    cases: Vec<SuiteCase>,
}

impl BenchmarkSuiteWorkload {
    /// An empty suite.
    pub fn new(label: impl Into<String>) -> Self {
        BenchmarkSuiteWorkload {
            label: label.into(),
            cases: Vec::new(),
        }
    }

    /// Adds one case.
    pub fn case(
        mut self,
        benchmark: impl Into<String>,
        hamiltonian: Hamiltonian,
        strategy: TransitionStrategy,
        config: SweepConfig,
    ) -> Self {
        self.cases.push(SuiteCase {
            benchmark: benchmark.into(),
            hamiltonian,
            strategy,
            config,
        });
        self
    }

    /// Adds the full `benchmarks × strategies` grid under one configuration
    /// per benchmark (`config(benchmark)` is evaluated once per benchmark).
    pub fn grid(
        mut self,
        benchmarks: impl IntoIterator<Item = (String, Hamiltonian)>,
        strategies: &[TransitionStrategy],
        mut config: impl FnMut(&str) -> SweepConfig,
    ) -> Self {
        for (name, ham) in benchmarks {
            let case_config = config(&name);
            for strategy in strategies {
                self = self.case(
                    name.clone(),
                    ham.clone(),
                    strategy.clone(),
                    case_config.clone(),
                );
            }
        }
        self
    }

    /// The configured cases, in submission order.
    pub fn cases(&self) -> &[SuiteCase] {
        &self.cases
    }

    /// Number of cases.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// Whether the suite has no cases.
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }
}

/// One finished case of a [`BenchmarkSuiteWorkload`].
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteCaseResult {
    /// Benchmark name of the case.
    pub benchmark: String,
    /// Strategy label of the case.
    pub strategy: String,
    /// The sweep data.
    pub sweep: SweepResult,
}

/// Output of a [`BenchmarkSuiteWorkload`]: one entry per case, in
/// submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSuiteResult {
    /// Finished cases.
    pub cases: Vec<SuiteCaseResult>,
}

impl BenchmarkSuiteResult {
    /// The sweep of a `(benchmark, strategy label)` pair, if present.
    pub fn sweep(&self, benchmark: &str, strategy: &str) -> Option<&SweepResult> {
        self.cases
            .iter()
            .find(|c| c.benchmark == benchmark && c.strategy == strategy)
            .map(|c| &c.sweep)
    }

    /// The sweeps in submission order.
    pub fn sweeps(&self) -> impl Iterator<Item = &SweepResult> {
        self.cases.iter().map(|c| &c.sweep)
    }
}

impl Workload for BenchmarkSuiteWorkload {
    fn label(&self) -> &str {
        &self.label
    }

    fn total_units(&self) -> usize {
        self.cases
            .iter()
            .map(|c| c.config.epsilons.len() * c.config.repeats)
            .sum()
    }

    fn run(&self, ctx: &WorkloadCtx<'_>) -> Result<WorkloadOutput, EngineError> {
        let jobs = self
            .cases
            .iter()
            .map(|case| {
                SweepRequest::new(
                    format!(
                        "{}/{}/{}",
                        self.label,
                        case.benchmark,
                        case.strategy.label()
                    ),
                    case.hamiltonian.clone(),
                    case.strategy.clone(),
                    case.config.clone(),
                )
            })
            .collect();
        let cases = self
            .cases
            .iter()
            .zip(ctx.run_batch(jobs))
            .map(|(case, outcome)| {
                Ok(SuiteCaseResult {
                    benchmark: case.benchmark.clone(),
                    strategy: case.strategy.label(),
                    sweep: outcome?,
                })
            })
            .collect::<Result<Vec<_>, EngineError>>()?;
        Ok(WorkloadOutput::new(BenchmarkSuiteResult { cases }))
    }
}
