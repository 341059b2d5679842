//! Error types for the traffic substrate.

use std::fmt;

/// Errors produced by routing, simulation, and traffic generation.
#[derive(Debug)]
pub enum TrafficError {
    /// No route exists between the requested intersections.
    NoRoute {
        /// Origin intersection index.
        from: usize,
        /// Destination intersection index.
        to: usize,
    },
    /// Configuration violates a documented precondition.
    InvalidConfig(String),
    /// Underlying network error.
    Net(roadpart_net::NetError),
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::NoRoute { from, to } => {
                write!(f, "no route from intersection {from} to {to}")
            }
            TrafficError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            TrafficError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for TrafficError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrafficError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<roadpart_net::NetError> for TrafficError {
    fn from(e: roadpart_net::NetError) -> Self {
        TrafficError::Net(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TrafficError>;
