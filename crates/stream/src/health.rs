//! Self-healing machinery for the epoch control loop: the resilience
//! configuration and the per-epoch record of what it did.
//!
//! The stream engine's contract is "never publish a torn or invalid
//! partition, keep serving the last good one". This module supplies the
//! pieces `engine` composes into that contract:
//!
//! * [`ResilienceConfig`] — the per-epoch deadline budget, what a blown
//!   budget does ([`DeadlineMode`]), and the bounded retry budget for
//!   solver failures (retried with the batch supervisor's seed rotation,
//!   `roadpart::rotated_seed`);
//! * [`EpochResilience`] — each epoch's solve attempts ([`EpochAttempt`]),
//!   deadline state and `degraded` flag, surfaced in `EpochReport` and the
//!   CLI.

use crate::drift::EpochAction;
use crate::error::{Result, StreamError};
use roadpart_linalg::RecoveryLog;
use serde::{Deserialize, Serialize};

/// What to do when the epoch budget is exhausted before the intended
/// action has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeadlineMode {
    /// Walk down the ladder (Global → Regional → NoOp) and serve the last
    /// good snapshot — keep serving, flag the epoch
    /// [`degraded`](EpochResilience::degraded).
    Degrade,
    /// Fail the epoch with [`StreamError::DeadlineExceeded`] — for callers
    /// that would rather alert than silently serve a stale partition.
    Fail,
}

/// Robustness knobs for the epoch control loop.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Wall-clock budget per epoch, milliseconds. `None` disables deadline
    /// checks entirely (the pre-existing behaviour).
    pub epoch_budget_ms: Option<f64>,
    /// What a blown budget does; only consulted when a budget is set.
    pub deadline_mode: DeadlineMode,
    /// Extra attempts per ladder rung after the first, for retryable
    /// (numerical) solver failures. `0` degrades on the first failure.
    pub max_retries: usize,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            epoch_budget_ms: None,
            deadline_mode: DeadlineMode::Degrade,
            max_retries: 2,
        }
    }
}

impl ResilienceConfig {
    /// Checks the documented preconditions.
    ///
    /// # Errors
    /// Returns [`StreamError::InvalidConfig`] for negative or non-finite
    /// budgets.
    pub fn validate(&self) -> Result<()> {
        if let Some(b) = self.epoch_budget_ms {
            if !b.is_finite() || b < 0.0 {
                return Err(StreamError::InvalidConfig(format!(
                    "epoch budget must be finite and >= 0 ms, got {b}"
                )));
            }
        }
        Ok(())
    }
}

/// One solve attempt inside an epoch (the streaming analogue of the batch
/// supervisor's `AttemptRecord`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochAttempt {
    /// The ladder rung this attempt ran.
    pub action: EpochAction,
    /// Zero-based attempt index within the rung.
    pub attempt: usize,
    /// The seed in force (rotated between attempts).
    pub seed: u64,
    /// Whether the attempt produced a publishable partition.
    pub succeeded: bool,
    /// The full error chain when it did not.
    pub error: Option<String>,
}

/// Resilience telemetry for one epoch, embedded in `EpochReport`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpochResilience {
    /// Every solve attempt, in execution order (empty for plain no-ops).
    pub attempts: Vec<EpochAttempt>,
    /// True when the executed action is cheaper than the intended one.
    pub degraded: bool,
    /// True when the epoch budget expired before the ladder finished.
    pub deadline_blown: bool,
    /// The budget in force, if any.
    pub budget_ms: Option<f64>,
    /// Snapshots ingested since the previous epoch.
    pub accepted: usize,
    /// Eigensolver attempts of the attempt that published (a global rebuild's,
    /// or each solved region's in region order; empty when nothing was). A
    /// failed event is a solve the fallback ladder rescued.
    #[serde(default)]
    pub recoveries: RecoveryLog,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ResilienceConfig {
        ResilienceConfig::default()
    }

    #[test]
    fn default_config_validates() {
        cfg().validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for bad in [
            ResilienceConfig {
                epoch_budget_ms: Some(-1.0),
                ..cfg()
            },
            ResilienceConfig {
                epoch_budget_ms: Some(f64::NAN),
                ..cfg()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }
}
