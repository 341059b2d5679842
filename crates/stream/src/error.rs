//! Unified error type for the streaming layer.

use std::fmt;

/// Errors surfaced by the online repartitioning engine.
#[derive(Debug)]
pub enum StreamError {
    /// Configuration violates a documented precondition.
    InvalidConfig(String),
    /// A density update is unusable (wrong length, NaN, infinite, negative).
    InvalidUpdate(String),
    /// The epoch wall-clock budget expired under
    /// [`crate::health::DeadlineMode::Fail`] before the intended action ran.
    DeadlineExceeded {
        /// The configured budget, milliseconds.
        budget_ms: f64,
        /// Wall-clock actually consumed when the budget check fired.
        elapsed_ms: f64,
    },
    /// A failure in the underlying partitioning framework.
    Framework(roadpart::RoadpartError),
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StreamError>;

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::InvalidConfig(msg) => write!(f, "invalid stream config: {msg}"),
            StreamError::InvalidUpdate(msg) => write!(f, "invalid density update: {msg}"),
            StreamError::DeadlineExceeded {
                budget_ms,
                elapsed_ms,
            } => write!(
                f,
                "epoch deadline exceeded: {elapsed_ms:.1} ms elapsed against a \
                 {budget_ms:.1} ms budget"
            ),
            StreamError::Framework(e) => write!(f, "framework error: {e}"),
        }
    }
}

impl StreamError {
    /// True when another attempt with a rotated seed, or a cheaper ladder
    /// rung, can plausibly succeed: a framework failure whose root cause is
    /// a numerical eigensolver failure
    /// ([`roadpart::RoadpartError::is_retryable`]). Structural errors
    /// propagate immediately — the same split the batch supervisor makes.
    pub fn is_retryable(&self) -> bool {
        matches!(self, StreamError::Framework(e) if e.is_retryable())
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Framework(e) => Some(e),
            _ => None,
        }
    }
}

impl From<roadpart::RoadpartError> for StreamError {
    fn from(e: roadpart::RoadpartError) -> Self {
        StreamError::Framework(e)
    }
}

impl From<roadpart_cut::CutError> for StreamError {
    fn from(e: roadpart_cut::CutError) -> Self {
        StreamError::Framework(roadpart::RoadpartError::Cut(e))
    }
}

impl From<roadpart_cluster::ClusterError> for StreamError {
    fn from(e: roadpart_cluster::ClusterError) -> Self {
        StreamError::Framework(roadpart::RoadpartError::Cluster(e))
    }
}

impl From<roadpart_net::NetError> for StreamError {
    fn from(e: roadpart_net::NetError) -> Self {
        StreamError::Framework(roadpart::RoadpartError::Net(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart::RoadpartError;
    use roadpart_cluster::ClusterError;
    use roadpart_cut::CutError;
    use roadpart_linalg::LinalgError;

    /// The one retry predicate, at every layer that wraps it: only a
    /// numerical eigensolver failure is retryable, wherever it surfaces.
    #[test]
    fn one_retry_predicate() {
        let nc = || LinalgError::NotConverged {
            iterations: 3,
            context: "test",
        };
        let bad = || "bad".to_string();
        let mismatch = LinalgError::DimensionMismatch {
            expected: 2,
            found: 3,
            context: "test",
        };
        for (e, want) in [
            (nc(), true),
            (LinalgError::NonFinite { context: "test" }, true),
            (LinalgError::InvalidInput(bad()), false),
            (mismatch, false),
        ] {
            assert_eq!(e.is_retryable(), want, "{e:?}");
        }
        let bad_k = CutError::BadPartitionCount {
            requested: 9,
            nodes: 3,
        };
        for (e, want) in [
            (RoadpartError::Linalg(nc()), true),
            (RoadpartError::Cut(CutError::Linalg(nc())), true),
            (
                RoadpartError::Linalg(LinalgError::InvalidInput(bad())),
                false,
            ),
            (RoadpartError::Cut(bad_k), false),
            (RoadpartError::Cut(CutError::InvalidInput(bad())), false),
            (
                RoadpartError::Cluster(ClusterError::InvalidInput(bad())),
                false,
            ),
            (RoadpartError::InvalidConfig(bad()), false),
        ] {
            assert_eq!(e.is_retryable(), want, "{e:?}");
            let stream = StreamError::Framework(e);
            assert_eq!(stream.is_retryable(), want, "{stream:?}");
        }
    }
}
