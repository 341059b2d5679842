//! Solver fallback ladder: the crate's eigensolve entry point.
//!
//! Lanczos can legitimately fail to converge — tight tolerances on badly
//! conditioned α-Cut matrices, unlucky starting vectors, or operator entries
//! poisoned by bad input data. Rather than abort the whole partitioning
//! pipeline, [`sym_eigs_recovering_ws`] climbs a ladder of progressively
//! more forgiving solver configurations:
//!
//! 1. **Baseline** — the caller's [`EigenConfig`] as-is;
//! 2. **RelaxedTolerance** — the convergence tolerance multiplied by 100
//!    and the restart budget by 2, under full reorthogonalization;
//! 3. **PerturbedSeed** — the relaxed configuration with a decorrelated
//!    starting-vector seed, escaping pathological Krylov starts;
//! 4. **Dense** — exact dense [`eigh`](crate::eigh) on the densified
//!    operator, attempted only up to dimension 4,096: beyond it the n×n
//!    matrix and the O(n³) tridiagonalization are unaffordable, and the
//!    ladder returns the last numerical error instead (the batch supervisor
//!    and the stream engine retry that error with a rotated seed).
//!
//! Only errors for which [`LinalgError::is_retryable`] holds
//! (`NotConverged`, `NonFinite`) trigger the next rung; structural errors
//! (dimension mismatches, invalid input) propagate immediately because no
//! amount of retrying fixes a malformed operand.
//!
//! Every attempt is recorded in a [`RecoveryLog`], giving callers a
//! machine-readable audit trail of how a result was obtained. The log also
//! hosts the fault-injection hook: [`FallbackConfig::inject_failures`]
//! forces the first N attempts to fail with `NotConverged`, which lets
//! integration tests drive the ladder deterministically without rigging the
//! numerics.

use crate::error::{LinalgError, Result};
use crate::lanczos::{dense_solve, sym_eigs_ws, EigenConfig, PartialEigen, ReorthPolicy, Which};
use crate::operator::SymOp;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// Multiplier applied to the tolerance on the relaxed rungs.
const TOL_RELAX: f64 = 100.0;
/// Multiplier applied to the restart budget on the relaxed rungs.
const RESTART_BOOST: usize = 2;
/// XOR mask applied to the seed on the perturbed rung.
const SEED_PERTURBATION: u64 = 0x9e37_79b9_7f4a_7c15;
/// Largest operator dimension the dense rung densifies (a 4,096² matrix is
/// 128 MiB; the cost grows quadratically in memory and cubically in time).
const DENSE_RUNG_MAX_DIM: usize = 4096;

/// Names one rung of the fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackRung {
    /// The caller's configuration, unmodified.
    Baseline,
    /// Relaxed tolerance and enlarged restart budget.
    RelaxedTolerance,
    /// Relaxed configuration with a perturbed starting-vector seed.
    PerturbedSeed,
    /// Exact dense eigendecomposition of the densified operator.
    Dense,
}

impl FallbackRung {
    /// Short human-readable rung name.
    pub fn name(self) -> &'static str {
        match self {
            FallbackRung::Baseline => "baseline",
            FallbackRung::RelaxedTolerance => "relaxed-tolerance",
            FallbackRung::PerturbedSeed => "perturbed-seed",
            FallbackRung::Dense => "dense",
        }
    }
}

/// Ladder settings a caller can vary.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FallbackConfig {
    /// Fault injection: force the first N solver attempts to fail with
    /// `NotConverged` before any real work happens. Default: 0.
    pub inject_failures: usize,
}

/// One solver attempt and its outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Which rung ran.
    pub rung: FallbackRung,
    /// Whether this attempt produced the accepted result.
    pub succeeded: bool,
    /// Failure description (empty on success).
    pub detail: String,
}

/// Machine-readable audit trail of fallback activity.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RecoveryLog {
    /// Attempts in execution order, across every solve this log witnessed.
    pub events: Vec<RecoveryEvent>,
}

impl RecoveryLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one attempt.
    pub fn record(&mut self, rung: FallbackRung, succeeded: bool, detail: impl Into<String>) {
        self.events.push(RecoveryEvent {
            rung,
            succeeded,
            detail: detail.into(),
        });
    }

    /// True when every recorded solve succeeded on its baseline attempt.
    pub fn is_clean(&self) -> bool {
        self.events
            .iter()
            .all(|e| e.rung == FallbackRung::Baseline && e.succeeded)
    }

    /// Number of failed attempts (i.e. rungs that had to be abandoned).
    pub fn failures(&self) -> usize {
        self.events.iter().filter(|e| !e.succeeded).count()
    }

    /// Appends another log's events (used when aggregating pipeline stages).
    pub fn absorb(&mut self, other: RecoveryLog) {
        self.events.extend(other.events);
    }
}

/// [`sym_eigs_recovering_ws`] with a throwaway workspace, for one-shot
/// callers.
///
/// # Errors
/// Same contract as [`sym_eigs_recovering_ws`].
pub fn sym_eigs_recovering(
    op: &impl SymOp,
    nev: usize,
    which: Which,
    cfg: &EigenConfig,
    fallback: &FallbackConfig,
    log: &mut RecoveryLog,
) -> Result<PartialEigen> {
    let mut ws = Workspace::new();
    sym_eigs_recovering_ws(op, nev, which, cfg, fallback, log, &mut ws)
}

/// Computes `nev` extremal eigenpairs of a symmetric operator behind the
/// fallback ladder described in the module docs, drawing scratch buffers
/// from `ws` so repeated solves (one per repartitioning epoch) reuse the
/// pool across calls.
///
/// Small operators (`dim <= cfg.dense_cutoff`) are solved exactly; larger
/// ones go through deflated-restart Lanczos. On success the returned
/// decomposition is exactly what the accepted rung produced; `log` gains
/// one event per attempt.
///
/// # Errors
/// Propagates structural errors immediately, and returns the *last* rung's
/// numerical error when the whole ladder is exhausted.
#[allow(clippy::too_many_arguments)]
pub fn sym_eigs_recovering_ws(
    op: &impl SymOp,
    nev: usize,
    which: Which,
    cfg: &EigenConfig,
    fallback: &FallbackConfig,
    log: &mut RecoveryLog,
    ws: &mut Workspace,
) -> Result<PartialEigen> {
    let mut injections_left = fallback.inject_failures;
    let mut last_err: Option<LinalgError> = None;

    for rung in [
        FallbackRung::Baseline,
        FallbackRung::RelaxedTolerance,
        FallbackRung::PerturbedSeed,
        FallbackRung::Dense,
    ] {
        if rung == FallbackRung::Dense && op.dim() > DENSE_RUNG_MAX_DIM {
            break;
        }
        let attempt = if injections_left > 0 {
            injections_left -= 1;
            Err(LinalgError::NotConverged {
                iterations: 0,
                context: "fault injection (forced failure)",
            })
        } else {
            run_rung(op, nev, which, cfg, rung, ws)
        };
        match attempt {
            Ok(dec) => {
                log.record(rung, true, "");
                return Ok(dec);
            }
            Err(err) if err.is_retryable() => {
                log.record(rung, false, err.to_string());
                last_err = Some(err);
            }
            Err(err) => {
                // Structural failure: retrying cannot help.
                log.record(rung, false, err.to_string());
                return Err(err);
            }
        }
    }

    Err(last_err.unwrap_or(LinalgError::NotConverged {
        iterations: 0,
        context: "fallback ladder (no rung was eligible)",
    }))
}

fn run_rung(
    op: &impl SymOp,
    nev: usize,
    which: Which,
    cfg: &EigenConfig,
    rung: FallbackRung,
    ws: &mut Workspace,
) -> Result<PartialEigen> {
    match rung {
        FallbackRung::Baseline => sym_eigs_ws(op, nev, which, cfg, ws),
        FallbackRung::RelaxedTolerance => sym_eigs_ws(op, nev, which, &relaxed(cfg), ws),
        FallbackRung::PerturbedSeed => {
            let mut c = relaxed(cfg);
            c.seed ^= SEED_PERTURBATION;
            sym_eigs_ws(op, nev, which, &c, ws)
        }
        FallbackRung::Dense => dense_solve(op, nev, which, &cfg.pool),
    }
}

fn relaxed(cfg: &EigenConfig) -> EigenConfig {
    let mut c = cfg.clone();
    c.tol *= TOL_RELAX;
    c.max_restarts = c.max_restarts.saturating_mul(RESTART_BOOST);
    // If the baseline attempt failed under selective reorthogonalization,
    // retry with the unconditional sweep: it is slower but numerically the
    // most robust rung of the ladder.
    c.reorth = ReorthPolicy::Full;
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;

    fn ring_laplacian(n: usize) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 2.0));
            triplets.push((i, (i + 1) % n, -1.0));
            triplets.push(((i + 1) % n, i, -1.0));
        }
        CsrMatrix::from_triplets(n, &triplets).unwrap()
    }

    #[test]
    fn clean_solve_records_single_baseline_event() {
        let a = ring_laplacian(40);
        let mut log = RecoveryLog::new();
        let dec = sym_eigs_recovering(
            &a,
            3,
            Which::Smallest,
            &EigenConfig::default(),
            &FallbackConfig::default(),
            &mut log,
        )
        .unwrap();
        assert_eq!(dec.values.len(), 3);
        assert_eq!(log.events.len(), 1);
        assert!(log.is_clean());
        assert_eq!(log.failures(), 0);
    }

    #[test]
    fn injected_failures_climb_the_ladder() {
        let a = ring_laplacian(40);
        let fb = FallbackConfig { inject_failures: 2 };
        let mut log = RecoveryLog::new();
        let dec = sym_eigs_recovering(
            &a,
            2,
            Which::Smallest,
            &EigenConfig::default(),
            &fb,
            &mut log,
        )
        .unwrap();
        assert_eq!(dec.values.len(), 2);
        let rungs: Vec<FallbackRung> = log.events.iter().map(|e| e.rung).collect();
        assert_eq!(
            rungs,
            [
                FallbackRung::Baseline,
                FallbackRung::RelaxedTolerance,
                FallbackRung::PerturbedSeed,
            ]
        );
        assert!(!log.events[0].succeeded);
        assert!(!log.events[1].succeeded);
        assert!(log.events[2].succeeded);
        assert_eq!(log.failures(), 2);
        assert!(!log.is_clean());
    }

    #[test]
    fn full_injection_lands_on_dense_rung() {
        let a = ring_laplacian(30);
        let fb = FallbackConfig { inject_failures: 3 };
        let mut log = RecoveryLog::new();
        let dec = sym_eigs_recovering(
            &a,
            2,
            Which::Smallest,
            &EigenConfig::default(),
            &fb,
            &mut log,
        )
        .unwrap();
        assert_eq!(log.events.last().unwrap().rung, FallbackRung::Dense);
        assert!(log.events.last().unwrap().succeeded);
        assert!(dec.values[0].abs() < 1e-8, "ring kernel eigenvalue");
    }

    #[test]
    fn exhausted_ladder_returns_last_numerical_error() {
        let a = ring_laplacian(30);
        let fb = FallbackConfig { inject_failures: 4 };
        let mut log = RecoveryLog::new();
        let err = sym_eigs_recovering(
            &a,
            2,
            Which::Smallest,
            &EigenConfig::default(),
            &fb,
            &mut log,
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::NotConverged { .. }));
        assert_eq!(log.events.len(), 4);
        assert!(log.events.iter().all(|e| !e.succeeded));
    }

    #[test]
    fn structural_errors_do_not_retry() {
        let a = ring_laplacian(10);
        let mut log = RecoveryLog::new();
        // nev > n is structural: must fail once, not climb the ladder.
        let err = sym_eigs_recovering(
            &a,
            11,
            Which::Smallest,
            &EigenConfig::default(),
            &FallbackConfig::default(),
            &mut log,
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
        assert_eq!(log.events.len(), 1);
    }

    #[test]
    fn dense_rung_gating() {
        // Above the dense cap the ladder has three rungs: with all three
        // forced to fail it returns the last error instead of densifying a
        // 5,000 x 5,000 operator.
        let fb = FallbackConfig { inject_failures: 3 };
        let a = ring_laplacian(5_000);
        let mut log = RecoveryLog::new();
        let err = sym_eigs_recovering(
            &a,
            2,
            Which::Smallest,
            &EigenConfig::default(),
            &fb,
            &mut log,
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::NotConverged { .. }));
        assert_eq!(log.events.len(), 3);
        assert!(log.events.iter().all(|e| e.rung != FallbackRung::Dense));
    }

    #[test]
    fn recovery_log_round_trips_through_serde() {
        let mut log = RecoveryLog::new();
        log.record(FallbackRung::Baseline, false, "x");
        log.record(FallbackRung::Dense, true, "");
        let node = serde::Serialize::to_node(&log);
        let back: RecoveryLog = serde::Deserialize::from_node(&node).unwrap();
        assert_eq!(back.events.len(), 2);
        assert_eq!(back.events[0].rung, FallbackRung::Baseline);
        assert!(back.events[1].succeeded);
    }
}
