//! Error types for road-network construction and I/O.

use crate::sanitize::AnomalyKind;
use std::fmt;

/// Errors produced while building or loading road networks.
#[derive(Debug)]
pub enum NetError {
    /// A segment references an intersection that does not exist.
    DanglingIntersection {
        /// Index of the offending segment.
        segment: usize,
        /// The missing intersection index.
        intersection: usize,
    },
    /// A quantity that must be strictly positive was not.
    NonPositive {
        /// What the quantity describes.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Generic structural invalidity (empty network, bad counts, ...).
    Invalid(String),
    /// A density that is not finite and non-negative
    /// ([`crate::check_densities`]).
    Density {
        /// Index of the first offending segment.
        index: usize,
        /// What is wrong with its value.
        kind: AnomalyKind,
    },
    /// A density vector whose length is not the segment count
    /// ([`crate::check_densities`]).
    DensityCount {
        /// Values supplied.
        found: usize,
        /// Segments they must cover.
        segments: usize,
    },
    /// Underlying linear-algebra failure while building adjacency matrices.
    Linalg(roadpart_linalg::LinalgError),
    /// I/O failure while reading or writing network files.
    Io(std::io::Error),
    /// A parse failure in a network file, with line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::DanglingIntersection {
                segment,
                intersection,
            } => write!(
                f,
                "segment {segment} references missing intersection {intersection}"
            ),
            NetError::NonPositive { what, value } => {
                write!(f, "{what} must be positive, got {value}")
            }
            NetError::Invalid(msg) => write!(f, "invalid network: {msg}"),
            NetError::Density { index, kind } => {
                write!(f, "density[{index}] is {}", kind.describe())
            }
            NetError::DensityCount { found, segments } => {
                write!(f, "{found} densities for {segments} segments")
            }
            NetError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Linalg(e) => Some(e),
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<roadpart_linalg::LinalgError> for NetError {
    fn from(e: roadpart_linalg::LinalgError) -> Self {
        NetError::Linalg(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NetError>;
