//! Unified error type for the `roadpart` framework.

use std::fmt;

/// Errors surfaced by the partitioning framework.
#[derive(Debug)]
pub enum RoadpartError {
    /// Configuration violates a documented precondition.
    InvalidConfig(String),
    /// Input data (densities, labels, network files) is structurally
    /// unusable and the active sanitization policy refuses to repair it.
    InvalidData(String),
    /// Road-network layer failure.
    Net(roadpart_net::NetError),
    /// Traffic-generation failure.
    Traffic(roadpart_traffic::TrafficError),
    /// Clustering failure.
    Cluster(roadpart_cluster::ClusterError),
    /// Graph-cut failure.
    Cut(roadpart_cut::CutError),
    /// Linear-algebra failure.
    Linalg(roadpart_linalg::LinalgError),
}

impl fmt::Display for RoadpartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoadpartError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            RoadpartError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            RoadpartError::Net(e) => write!(f, "network error: {e}"),
            RoadpartError::Traffic(e) => write!(f, "traffic error: {e}"),
            RoadpartError::Cluster(e) => write!(f, "clustering error: {e}"),
            RoadpartError::Cut(e) => write!(f, "graph-cut error: {e}"),
            RoadpartError::Linalg(e) => write!(f, "linear-algebra error: {e}"),
        }
    }
}

impl RoadpartError {
    /// True when another attempt with a rotated seed can plausibly succeed:
    /// the root cause is a numerical eigensolver failure
    /// ([`roadpart_linalg::LinalgError::is_retryable`]), reached directly or
    /// through the graph-cut layer. Everything else — bad configuration or
    /// data, structural cut and clustering failures — fails the same way
    /// on every seed.
    pub fn is_retryable(&self) -> bool {
        match self {
            RoadpartError::Linalg(e) | RoadpartError::Cut(roadpart_cut::CutError::Linalg(e)) => {
                e.is_retryable()
            }
            _ => false,
        }
    }
}

impl std::error::Error for RoadpartError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RoadpartError::InvalidConfig(_) | RoadpartError::InvalidData(_) => None,
            RoadpartError::Net(e) => Some(e),
            RoadpartError::Traffic(e) => Some(e),
            RoadpartError::Cluster(e) => Some(e),
            RoadpartError::Cut(e) => Some(e),
            RoadpartError::Linalg(e) => Some(e),
        }
    }
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for RoadpartError {
            fn from(e: $ty) -> Self {
                RoadpartError::$variant(e)
            }
        }
    };
}

from_err!(Net, roadpart_net::NetError);
from_err!(Traffic, roadpart_traffic::TrafficError);
from_err!(Cluster, roadpart_cluster::ClusterError);
from_err!(Cut, roadpart_cut::CutError);
from_err!(Linalg, roadpart_linalg::LinalgError);

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RoadpartError>;
