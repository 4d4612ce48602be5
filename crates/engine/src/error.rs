//! Engine error type.

use std::fmt;

use marqsim_core::CompileError;

/// Errors produced by the compilation engine.
///
/// Every variant carries the label of the job that failed, so a batch
/// submitter can tell which of its requests went wrong without positional
/// bookkeeping.
#[derive(Debug)]
pub enum EngineError {
    /// A job's compilation failed.
    Compile {
        /// Label of the failed job.
        label: String,
        /// The underlying compiler error.
        source: CompileError,
    },
    /// A worker thread panicked while running a job.
    WorkerPanic {
        /// Label of the failed job.
        label: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The engine configuration is invalid — e.g. `MARQSIM_THREADS=0`, a
    /// non-numeric `MARQSIM_CACHE_CAP`, or an unrecognized
    /// `MARQSIM_FLOW_SOLVER` backend. Raised before any job runs, so no job
    /// label applies.
    InvalidConfig {
        /// Human-readable description naming the offending setting and
        /// value.
        reason: String,
    },
    /// The job was cancelled through its
    /// [`JobHandle`](crate::job::JobHandle) before it finished. Cancellation
    /// is cooperative: point-level tasks that were already running complete,
    /// but their outputs are discarded.
    Cancelled {
        /// Label of the cancelled job.
        label: String,
    },
    /// A [`Workload`](crate::Workload) implementation reported a
    /// domain-specific failure. This is the open-ended variant custom
    /// workloads (defined outside this crate) use, so their errors carry
    /// the job label exactly like the built-in ones.
    Workload {
        /// Label of the failed job.
        label: String,
        /// The workload's description of what went wrong.
        message: String,
    },
}

impl EngineError {
    /// A compilation failure attributed to the job `label`.
    pub fn compile(label: &str, source: CompileError) -> Self {
        EngineError::Compile {
            label: label.to_string(),
            source,
        }
    }

    pub(crate) fn panic(label: &str, message: String) -> Self {
        EngineError::WorkerPanic {
            label: label.to_string(),
            message,
        }
    }

    pub(crate) fn invalid_config(reason: impl Into<String>) -> Self {
        EngineError::InvalidConfig {
            reason: reason.into(),
        }
    }

    /// A cancellation outcome for the job `label`. Public because custom
    /// [`Workload`](crate::Workload)s that observe
    /// [`CancelToken`](crate::CancelToken) directly (instead of going
    /// through [`WorkloadCtx::ensure_active`](crate::WorkloadCtx::ensure_active))
    /// report cancellation with it.
    pub fn cancelled(label: &str) -> Self {
        EngineError::Cancelled {
            label: label.to_string(),
        }
    }

    /// A domain-specific workload failure attributed to the job `label`.
    pub fn workload(label: &str, message: impl Into<String>) -> Self {
        EngineError::Workload {
            label: label.to_string(),
            message: message.into(),
        }
    }

    /// The label of the job this error belongs to (`"engine-config"` for
    /// configuration errors, which precede any job).
    pub fn label(&self) -> &str {
        match self {
            EngineError::Compile { label, .. }
            | EngineError::WorkerPanic { label, .. }
            | EngineError::Workload { label, .. }
            | EngineError::Cancelled { label } => label,
            EngineError::InvalidConfig { .. } => "engine-config",
        }
    }

    /// Whether this error is a cancellation (useful for front-ends that
    /// report cancellation as a distinct, non-failure terminal state).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, EngineError::Cancelled { .. })
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Compile { label, source } => {
                write!(f, "job '{label}' failed to compile: {source}")
            }
            EngineError::WorkerPanic { label, message } => {
                write!(f, "worker panicked in job '{label}': {message}")
            }
            EngineError::InvalidConfig { reason } => {
                write!(f, "invalid engine configuration: {reason}")
            }
            EngineError::Cancelled { label } => {
                write!(f, "job '{label}' was cancelled")
            }
            EngineError::Workload { label, message } => {
                write!(f, "workload '{label}' failed: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Compile { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_the_job_label() {
        let e = EngineError::compile(
            "fig13/Na+/gc",
            CompileError::InvalidConfig {
                reason: "bad epsilon".into(),
            },
        );
        let shown = e.to_string();
        assert!(shown.contains("fig13/Na+/gc"));
        assert!(shown.contains("bad epsilon"));
        assert_eq!(e.label(), "fig13/Na+/gc");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn invalid_config_errors_name_the_offending_setting() {
        let e = EngineError::invalid_config("MARQSIM_THREADS=\"zero\" is not a positive integer");
        assert_eq!(e.label(), "engine-config");
        assert!(e.to_string().contains("invalid engine configuration"));
        assert!(e.to_string().contains("MARQSIM_THREADS"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn workload_errors_carry_label_and_message() {
        let e = EngineError::workload("fib/7", "negative input");
        assert_eq!(e.label(), "fib/7");
        assert!(e.to_string().contains("fib/7"));
        assert!(e.to_string().contains("negative input"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn panic_errors_carry_label_and_message() {
        let e = EngineError::panic("jobs/crash", "boom".to_string());
        assert_eq!(e.label(), "jobs/crash");
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
