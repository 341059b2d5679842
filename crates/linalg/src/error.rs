//! Error types for linear-algebra operations.

use std::fmt;

/// Errors produced by matrix construction and eigensolvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Shape expected by the operation, e.g. the matrix dimension.
        expected: usize,
        /// Shape actually supplied.
        found: usize,
        /// Which operation raised the mismatch.
        context: &'static str,
    },
    /// An iterative solver exhausted its iteration budget.
    NotConverged {
        /// Number of iterations performed before giving up.
        iterations: usize,
        /// Which solver failed to converge.
        context: &'static str,
    },
    /// The input violates a documented precondition (NaN entries,
    /// zero dimension, out-of-range index, ...).
    InvalidInput(String),
    /// A computation produced a NaN or infinite value where a finite one is
    /// required (e.g. a Ritz value poisoned by non-finite operator entries).
    NonFinite {
        /// Which computation produced the non-finite value.
        context: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, found {found}"
            ),
            LinalgError::NotConverged {
                iterations,
                context,
            } => write!(
                f,
                "{context} did not converge after {iterations} iterations"
            ),
            LinalgError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            LinalgError::NonFinite { context } => {
                write!(f, "{context} produced a non-finite value")
            }
        }
    }
}

impl LinalgError {
    /// True for numerical failures that another attempt — a relaxed
    /// configuration or a rotated seed — can plausibly fix
    /// (`NotConverged`, `NonFinite`). Structural errors (shape mismatches,
    /// invalid input) fail the same way on every retry.
    ///
    /// This is the one retry predicate of the workspace: the fallback
    /// ladder climbs on it, and the batch supervisor and the stream engine
    /// retry exactly the errors whose root cause satisfies it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            LinalgError::NotConverged { .. } | LinalgError::NonFinite { .. }
        )
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
