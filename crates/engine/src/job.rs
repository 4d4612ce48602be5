//! Asynchronous job submission: ids, cancellation, and handles.
//!
//! [`Engine::run_workload`](crate::Engine::run_workload) is synchronous — it
//! blocks the calling thread until the workload finishes. A service
//! front-end (the `marqsim-serve` crate) needs the opposite shape: submit a
//! job, get a handle back immediately, poll or stream its progress, cancel
//! it, and collect the outcome without blocking the connection's reader
//! thread. This module provides that layer:
//!
//! * [`JobId`] — a monotonically increasing per-engine job identifier.
//! * [`CancelToken`] — the cooperative cancellation flag a running
//!   workload observes through
//!   [`WorkloadCtx::ensure_active`](crate::WorkloadCtx::ensure_active).
//! * [`JobControl`] — a cheaply cloneable view of a running job: id, label,
//!   cancellation, progress snapshot, finished flag. This is what a job
//!   registry stores.
//! * [`JobHandle`] — the submitter's end: everything `JobControl` offers
//!   plus collecting the outcome, either blocking ([`JobHandle::collect`])
//!   or non-blocking ([`JobHandle::try_collect`]).
//!
//! Cancellation is cooperative and unit-grained: built-in workloads check
//! the token before graph resolution and before every point-level task, and
//! custom workloads are expected to call
//! [`WorkloadCtx::ensure_active`](crate::WorkloadCtx::ensure_active) between
//! units of work, so a cancelled sweep stops after the currently running
//! points finish. A cancelled job's outcome is [`EngineError::Cancelled`];
//! units that already completed are discarded.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;

use crate::engine::Progress;
use crate::error::EngineError;
use crate::workload::WorkloadOutput;

/// Identifier of a submitted job, unique within its [`Engine`](crate::Engine)
/// (ids start at 1 and increase in submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// A cooperative cancellation flag, cheaply cloneable and shared between a
/// job's [`JobControl`]/[`JobHandle`] (which request cancellation) and its
/// [`WorkloadCtx`](crate::WorkloadCtx) (which observes it between units of
/// work).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Irrevocable.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Shared state of one submitted job.
#[derive(Debug)]
pub(crate) struct JobState {
    pub(crate) id: JobId,
    pub(crate) label: String,
    pub(crate) cancel: CancelToken,
    completed: AtomicUsize,
    total: AtomicUsize,
    finished: AtomicBool,
}

impl JobState {
    pub(crate) fn new(id: JobId, label: String) -> Self {
        JobState {
            id,
            label,
            cancel: CancelToken::new(),
            completed: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
            finished: AtomicBool::new(false),
        }
    }

    pub(crate) fn record_progress(&self, progress: Progress) {
        self.completed.store(progress.completed, Ordering::Relaxed);
        self.total.store(progress.total, Ordering::Relaxed);
    }

    pub(crate) fn mark_finished(&self) {
        self.finished.store(true, Ordering::Release);
    }
}

/// A cheaply cloneable control view of a submitted job — what a job
/// registry (e.g. a serve connection's table of in-flight jobs) stores to
/// answer `status` and `cancel` requests without owning the outcome channel.
#[derive(Debug, Clone)]
pub struct JobControl {
    state: Arc<JobState>,
}

impl JobControl {
    pub(crate) fn new(state: Arc<JobState>) -> Self {
        JobControl { state }
    }

    /// The job's id.
    pub fn id(&self) -> JobId {
        self.state.id
    }

    /// The job's label.
    pub fn label(&self) -> &str {
        &self.state.label
    }

    /// Requests cooperative cancellation (see the module docs for the
    /// granularity).
    pub fn cancel(&self) {
        self.state.cancel.cancel();
    }

    /// Whether cancellation has been requested (the job may still be
    /// draining already-running tasks).
    pub fn is_cancelled(&self) -> bool {
        self.state.cancel.is_cancelled()
    }

    /// Latest progress snapshot. `total` is 0 until the job's work has been
    /// expanded into units.
    pub fn progress(&self) -> Progress {
        Progress {
            completed: self.state.completed.load(Ordering::Relaxed),
            total: self.state.total.load(Ordering::Relaxed),
        }
    }

    /// Whether the job's outcome has been produced (successfully, with an
    /// error, or by cancellation).
    pub fn is_finished(&self) -> bool {
        self.state.finished.load(Ordering::Acquire)
    }
}

/// The submitter's handle to one asynchronously running job.
///
/// Obtained from [`Engine::submit`](crate::Engine::submit); the outcome is
/// produced exactly once and retrieved with [`collect`](Self::collect)
/// (blocking) or [`try_collect`](Self::try_collect) (non-blocking).
#[derive(Debug)]
pub struct JobHandle {
    control: JobControl,
    receiver: Receiver<Result<WorkloadOutput, EngineError>>,
    /// Set once the outcome has been pulled off the channel so repeated
    /// `try_collect` calls after completion stay cheap and well-defined.
    taken: bool,
}

impl JobHandle {
    pub(crate) fn new(
        control: JobControl,
        receiver: Receiver<Result<WorkloadOutput, EngineError>>,
    ) -> Self {
        JobHandle {
            control,
            receiver,
            taken: false,
        }
    }

    /// The job's id.
    pub fn id(&self) -> JobId {
        self.control.id()
    }

    /// The job's label.
    pub fn label(&self) -> &str {
        self.control.label()
    }

    /// A cloneable control view (for registries: status / cancel without
    /// the handle).
    pub fn control(&self) -> JobControl {
        self.control.clone()
    }

    /// Requests cooperative cancellation; the outcome then resolves to
    /// [`EngineError::Cancelled`] unless the job already finished.
    pub fn cancel(&self) {
        self.control.cancel();
    }

    /// Latest progress snapshot.
    pub fn progress(&self) -> Progress {
        self.control.progress()
    }

    /// Non-blocking collection: `None` while the job is still running,
    /// `Some(outcome)` exactly once when it finishes. After the outcome has
    /// been taken (by this method or a disconnect), further calls return
    /// `None`.
    pub fn try_collect(&mut self) -> Option<Result<WorkloadOutput, EngineError>> {
        if self.taken {
            return None;
        }
        match self.receiver.try_recv() {
            Ok(outcome) => {
                self.taken = true;
                Some(outcome)
            }
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                // The coordinator thread died without reporting — surface it
                // as a worker panic rather than spinning forever.
                self.taken = true;
                Some(Err(EngineError::panic(
                    self.control.label(),
                    "job coordinator thread terminated without an outcome".to_string(),
                )))
            }
        }
    }

    /// Blocking collection: waits for the job to finish and returns its
    /// outcome.
    pub fn collect(mut self) -> Result<WorkloadOutput, EngineError> {
        if self.taken {
            return Err(EngineError::panic(
                self.control.label(),
                "job outcome already collected".to_string(),
            ));
        }
        self.taken = true;
        self.receiver.recv().unwrap_or_else(|_| {
            Err(EngineError::panic(
                self.control.label(),
                "job coordinator thread terminated without an outcome".to_string(),
            ))
        })
    }
}
