//! The workspace-wide error type.

/// Convenience alias for `std::result::Result<T, shenjing_core::Error>`.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced anywhere in the Shenjing workspace.
///
/// A single error enum is shared across crates so that pipeline code
/// (train → convert → map → simulate → estimate) can use `?` end to end.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A synaptic weight does not fit the 5-bit signed format.
    WeightOutOfRange {
        /// The offending value.
        value: i32,
    },
    /// A partial sum left its fixed-point range (13-bit local or 16-bit NoC).
    SumOverflow {
        /// The value that did not fit.
        value: i64,
        /// The width it had to fit in.
        bits: u32,
    },
    /// A coordinate, port or id referenced something outside the grid or
    /// core being addressed.
    OutOfBounds {
        /// Human-readable description of what was exceeded.
        what: String,
    },
    /// A dimension mismatch between connected components (layer sizes,
    /// tensor shapes, spike train lengths, ...).
    ShapeMismatch {
        /// What was expected.
        expected: String,
        /// What was found.
        found: String,
    },
    /// The mapper could not place or route a network.
    MappingFailed {
        /// Why mapping failed.
        reason: String,
    },
    /// A compiled schedule is malformed or violates a hardware constraint
    /// (e.g. two packets contending for one link in the same cycle).
    InvalidSchedule {
        /// Cycle at which the violation occurs.
        cycle: u64,
        /// Why the schedule is invalid.
        reason: String,
    },
    /// A hardware component was driven with control signals that its
    /// datapath cannot honor.
    InvalidControl {
        /// Which component rejected the control word.
        component: String,
        /// Why.
        reason: String,
    },
    /// Configuration of a model, architecture or experiment was
    /// inconsistent.
    InvalidConfig {
        /// Why the configuration is invalid.
        reason: String,
    },
    /// A serving tier refused to admit a request (admission control,
    /// deadline enforcement, shutdown). Unlike the other variants this is
    /// not a fault in the caller's data: the work was valid but the
    /// service declined it, and the caller is expected to match on the
    /// [`RejectReason`] to decide whether to retry, shed or escalate.
    Rejected {
        /// Why the request was refused.
        reason: RejectReason,
    },
    /// A serving replica faulted while executing the batch this request
    /// rode in: every rider of that batch gets this error once, and the
    /// runtime never re-executes it. Resubmitting is safe
    /// ([`Error::is_retryable`]).
    ReplicaFault {
        /// The worker shard whose replica faulted.
        worker: usize,
        /// What the replica did (panic payload or underlying error).
        reason: String,
    },
    /// A runtime worker thread died before this request was answered.
    /// Like [`Error::ReplicaFault`] this says nothing about the input:
    /// resubmitting against a live runtime is safe.
    WorkerLost {
        /// Which worker died, when the runtime can tell.
        worker: Option<usize>,
    },
}

/// Why a serving tier refused to admit a request.
///
/// Carried by [`Error::Rejected`], so a caller matches on the typed
/// reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// No model is registered under the requested id.
    UnknownModel {
        /// The id the request named.
        id: String,
    },
    /// The shared request queue is at its configured depth bound;
    /// admitting more would trade bounded latency for unbounded memory.
    QueueFull {
        /// The configured queue depth that was reached.
        limit: usize,
    },
    /// The request's deadline had already passed — on admission, or while
    /// it waited in the queue — so executing it could only burn a lane on
    /// an answer nobody is waiting for.
    DeadlineExpired,
    /// The runtime is shutting down and no longer admits work.
    ShuttingDown,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::UnknownModel { id } => write!(f, "no model registered as `{id}`"),
            RejectReason::QueueFull { limit } => {
                write!(f, "request queue full ({limit} pending)")
            }
            RejectReason::DeadlineExpired => write!(f, "deadline expired before execution"),
            RejectReason::ShuttingDown => write!(f, "runtime is shutting down"),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::WeightOutOfRange { value } => {
                write!(f, "weight {value} does not fit the 5-bit signed range [-16, 15]")
            }
            Error::SumOverflow { value, bits } => {
                write!(f, "partial sum {value} overflows the {bits}-bit signed range")
            }
            Error::OutOfBounds { what } => write!(f, "out of bounds: {what}"),
            Error::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            Error::MappingFailed { reason } => write!(f, "mapping failed: {reason}"),
            Error::InvalidSchedule { cycle, reason } => {
                write!(f, "invalid schedule at cycle {cycle}: {reason}")
            }
            Error::InvalidControl { component, reason } => {
                write!(f, "invalid control for {component}: {reason}")
            }
            Error::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            Error::Rejected { reason } => write!(f, "request rejected: {reason}"),
            Error::ReplicaFault { worker, reason } => {
                write!(f, "replica fault on worker {worker}: {reason}")
            }
            Error::WorkerLost { worker: Some(id) } => {
                write!(f, "runtime worker {id} died before answering")
            }
            Error::WorkerLost { worker: None } => {
                write!(f, "a runtime worker died before answering")
            }
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Shorthand for an [`Error::OutOfBounds`].
    pub fn out_of_bounds(what: impl Into<String>) -> Error {
        Error::OutOfBounds { what: what.into() }
    }

    /// Shorthand for an [`Error::ShapeMismatch`].
    pub fn shape_mismatch(expected: impl Into<String>, found: impl Into<String>) -> Error {
        Error::ShapeMismatch { expected: expected.into(), found: found.into() }
    }

    /// Shorthand for an [`Error::MappingFailed`].
    pub fn mapping(reason: impl Into<String>) -> Error {
        Error::MappingFailed { reason: reason.into() }
    }

    /// Shorthand for an [`Error::Rejected`].
    pub fn rejected(reason: RejectReason) -> Error {
        Error::Rejected { reason }
    }

    /// The typed admission verdict, when this error is a rejection.
    pub fn reject_reason(&self) -> Option<&RejectReason> {
        match self {
            Error::Rejected { reason } => Some(reason),
            _ => None,
        }
    }

    /// Shorthand for an [`Error::InvalidConfig`].
    pub fn config(reason: impl Into<String>) -> Error {
        Error::InvalidConfig { reason: reason.into() }
    }

    /// Whether resubmitting the same work is safe and might succeed.
    ///
    /// Retryable errors describe a fault in the *serving infrastructure*
    /// (a replica panicked, a worker thread died) rather than in the
    /// request: the input never got a healthy execution. The runtime
    /// itself never retries, because a panic replays on the same frames;
    /// a client that resubmits a [`Error::ReplicaFault`]ed request sends
    /// it into a new batch, away from the frame that panicked. Everything
    /// else — bad data, mapping failures, typed rejections — is terminal,
    /// and retrying verbatim would just fail the same way.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::ReplicaFault { .. } | Error::WorkerLost { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_trailing_punctuation() {
        let samples: Vec<Error> = vec![
            Error::WeightOutOfRange { value: 99 },
            Error::SumOverflow { value: 1 << 20, bits: 16 },
            Error::out_of_bounds("row 30 of a 28-row chip"),
            Error::shape_mismatch("784 inputs", "512 inputs"),
            Error::mapping("no rectangle fits layer 3"),
            Error::InvalidSchedule { cycle: 12, reason: "link contention on (0,0)->N".into() },
            Error::InvalidControl {
                component: "ps_router".into(),
                reason: "add without operand".into(),
            },
            Error::config("timestep must be positive"),
            Error::ReplicaFault { worker: 1, reason: "injected panic at batch 7".into() },
            Error::WorkerLost { worker: Some(0) },
            Error::WorkerLost { worker: None },
        ];
        for e in samples {
            let msg = e.to_string();
            assert!(!msg.ends_with('.'), "no trailing period: {msg}");
            assert!(msg.chars().next().unwrap().is_lowercase(), "lowercase start: {msg}");
        }
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<Error>();
    }

    #[test]
    fn shorthand_constructors() {
        assert!(matches!(Error::out_of_bounds("x"), Error::OutOfBounds { .. }));
        assert!(matches!(Error::mapping("x"), Error::MappingFailed { .. }));
        assert!(matches!(Error::config("x"), Error::InvalidConfig { .. }));
        assert!(matches!(Error::shape_mismatch("a", "b"), Error::ShapeMismatch { .. }));
    }

    #[test]
    fn only_infrastructure_faults_are_retryable() {
        let retryable = [
            Error::ReplicaFault { worker: 0, reason: "panic".into() },
            Error::WorkerLost { worker: Some(2) },
            Error::WorkerLost { worker: None },
        ];
        for e in retryable {
            assert!(e.is_retryable(), "expected retryable: {e}");
        }
        let terminal = [
            Error::shape_mismatch("784 inputs", "12 inputs"),
            Error::config("zero workers"),
            Error::rejected(RejectReason::DeadlineExpired),
            Error::mapping("no rectangle fits"),
        ];
        for e in terminal {
            assert!(!e.is_retryable(), "expected terminal: {e}");
        }
    }
}
