//! CLI error classification: every failure carries a class (mapped to a
//! distinct exit code) and the full `source()` chain of the underlying
//! error, so `error: ...` output explains *why*, not just *what*.

use roadpart::RoadpartError;
use std::fmt;

/// Exit code for configuration and usage errors.
pub const EXIT_CONFIG: u8 = 2;
/// Exit code for data errors (missing, unreadable, or unrepairable input).
pub const EXIT_DATA: u8 = 3;
/// Exit code for numerical errors (eigensolver, clustering, cuts).
pub const EXIT_NUMERICAL: u8 = 4;
/// Exit code for a blown epoch deadline under `--deadline fail`.
pub const EXIT_DEADLINE: u8 = 5;
/// Exit code for an unreachable origin–destination query (`serve`).
pub const EXIT_NOROUTE: u8 = 7;
/// The failure class of a CLI error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Bad flags, bad values, impossible configuration.
    Config,
    /// Input files or input data the pipeline cannot use.
    Data,
    /// The mathematics failed after every recovery attempt.
    Numerical,
    /// A streaming epoch blew its wall-clock budget in fail mode.
    Deadline,
    /// A serve query's destination is unreachable from its origin.
    NoRoute,
}

/// A classified CLI failure with its formatted cause chain.
#[derive(Debug)]
pub struct CliError {
    /// Failure class, selecting the exit code.
    pub kind: ErrorKind,
    /// Top-level message, already including any cause lines.
    pub message: String,
}

impl CliError {
    /// A configuration/usage error (exit code 2).
    pub fn config(message: impl Into<String>) -> Self {
        Self {
            kind: ErrorKind::Config,
            message: message.into(),
        }
    }

    /// A data error (exit code 3).
    pub fn data(message: impl Into<String>) -> Self {
        Self {
            kind: ErrorKind::Data,
            message: message.into(),
        }
    }

    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> u8 {
        match self.kind {
            ErrorKind::Config => EXIT_CONFIG,
            ErrorKind::Data => EXIT_DATA,
            ErrorKind::Numerical => EXIT_NUMERICAL,
            ErrorKind::Deadline => EXIT_DEADLINE,
            ErrorKind::NoRoute => EXIT_NOROUTE,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}", self.message)
    }
}

/// Formats an error followed by its full `source()` chain, one cause per
/// indented line.
pub fn with_causes(err: &dyn std::error::Error) -> String {
    let mut out = err.to_string();
    let mut src = err.source();
    while let Some(cause) = src {
        out.push_str("\n  caused by: ");
        out.push_str(&cause.to_string());
        src = cause.source();
    }
    out
}

impl From<RoadpartError> for CliError {
    fn from(err: RoadpartError) -> Self {
        Self::from_framework(&err)
    }
}

impl From<roadpart_cut::CutError> for CliError {
    fn from(err: roadpart_cut::CutError) -> Self {
        Self {
            kind: ErrorKind::Numerical,
            message: with_causes(&err),
        }
    }
}

impl From<roadpart_net::NetError> for CliError {
    fn from(err: roadpart_net::NetError) -> Self {
        Self {
            kind: ErrorKind::Data,
            message: with_causes(&err),
        }
    }
}

impl From<roadpart_serve::ServeError> for CliError {
    fn from(err: roadpart_serve::ServeError) -> Self {
        use roadpart_serve::ServeError as QE;
        let kind = match &err {
            // The typed no-route outcome gets its own exit code so
            // scripted callers can distinguish "no path exists" from a
            // broken invocation — it is never a panic or an infinite cost.
            QE::NoRoute { .. } => ErrorKind::NoRoute,
            QE::InvalidQuery { .. } => ErrorKind::Config,
            QE::InvalidCost { .. } | QE::SnapshotMismatch { .. } | QE::TooLarge { .. } => {
                ErrorKind::Data
            }
            QE::Internal(_) => ErrorKind::Numerical,
        };
        Self {
            kind,
            message: with_causes(&err),
        }
    }
}

impl From<roadpart_stream::StreamError> for CliError {
    fn from(err: roadpart_stream::StreamError) -> Self {
        use roadpart_stream::StreamError as SE;
        let kind = match &err {
            SE::InvalidConfig(_) => ErrorKind::Config,
            SE::InvalidUpdate(_) => ErrorKind::Data,
            SE::DeadlineExceeded { .. } => ErrorKind::Deadline,
            SE::Framework(inner) => return CliError::from_framework(inner),
        };
        Self {
            kind,
            message: with_causes(&err),
        }
    }
}

impl CliError {
    /// Classifies a wrapped framework error without consuming its wrapper.
    fn from_framework(err: &RoadpartError) -> Self {
        let kind = match err {
            RoadpartError::InvalidConfig(_) => ErrorKind::Config,
            RoadpartError::InvalidData(_) | RoadpartError::Net(_) | RoadpartError::Traffic(_) => {
                ErrorKind::Data
            }
            RoadpartError::Linalg(_) | RoadpartError::Cut(_) | RoadpartError::Cluster(_) => {
                ErrorKind::Numerical
            }
        };
        Self {
            kind,
            message: with_causes(err),
        }
    }
}

/// `Args` and other plain-string failures are usage errors.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::config(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_and_exit_codes() {
        let config: CliError = RoadpartError::InvalidConfig("bad k".into()).into();
        assert_eq!(config.exit_code(), EXIT_CONFIG);
        let data: CliError = RoadpartError::InvalidData("NaN density".into()).into();
        assert_eq!(data.exit_code(), EXIT_DATA);
        let numerical: CliError =
            RoadpartError::Linalg(roadpart_linalg::LinalgError::NonFinite { context: "test" })
                .into();
        assert_eq!(numerical.exit_code(), EXIT_NUMERICAL);
        let usage: CliError = String::from("missing flag").into();
        assert_eq!(usage.exit_code(), EXIT_CONFIG);
    }

    #[test]
    fn stream_failures_get_distinct_exit_codes() {
        use roadpart_stream::StreamError as SE;
        let deadline: CliError = SE::DeadlineExceeded {
            budget_ms: 10.0,
            elapsed_ms: 25.0,
        }
        .into();
        assert_eq!(deadline.kind, ErrorKind::Deadline);
        assert_eq!(deadline.exit_code(), EXIT_DEADLINE);
        assert!(format!("{deadline}").contains("deadline exceeded"));

        let numerical: CliError = SE::Framework(RoadpartError::Linalg(
            roadpart_linalg::LinalgError::NotConverged {
                iterations: 3,
                context: "Lanczos",
            },
        ))
        .into();
        assert_eq!(
            numerical.exit_code(),
            EXIT_NUMERICAL,
            "wrapped solver errors keep code 4"
        );
    }

    #[test]
    fn serve_failures_map_to_typed_exit_codes() {
        use roadpart_net::SegmentId;
        use roadpart_serve::ServeError as QE;
        let no_route: CliError = QE::NoRoute {
            from: SegmentId(3),
            to: SegmentId(9),
        }
        .into();
        assert_eq!(no_route.kind, ErrorKind::NoRoute);
        assert_eq!(no_route.exit_code(), EXIT_NOROUTE);
        assert!(format!("{no_route}").contains("no route"));

        let invalid: CliError = QE::InvalidQuery {
            segment: SegmentId(99),
            segments: 10,
        }
        .into();
        assert_eq!(invalid.exit_code(), EXIT_CONFIG);

        let internal: CliError = QE::Internal("predecessor chain broken").into();
        assert_eq!(internal.exit_code(), EXIT_NUMERICAL);
    }

    #[test]
    fn cause_chain_is_printed() {
        let err = RoadpartError::Cut(roadpart_cut::CutError::Linalg(
            roadpart_linalg::LinalgError::NotConverged {
                iterations: 9,
                context: "Lanczos",
            },
        ));
        let cli: CliError = err.into();
        let text = format!("{cli}");
        assert!(text.starts_with("error: "), "{text}");
        assert_eq!(text.matches("caused by:").count(), 2, "{text}");
        assert!(text.contains("Lanczos"), "{text}");
    }
}
