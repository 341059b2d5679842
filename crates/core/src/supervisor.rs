//! Fault-tolerant pipeline execution.
//!
//! [`run_supervised`] wraps [`partition_network`] with the full recovery
//! stack:
//!
//! 1. densities pass the density gate ([`roadpart_net::check_densities`])
//!    once, before any attempt: a refused vector is a data error, with no
//!    attempt recorded and no degradation tried;
//! 2. transient numerical failures ([`RoadpartError::is_retryable`]) are
//!    retried up to [`SupervisorConfig::max_attempts`] times, rotating the
//!    seed of every stochastic component between attempts
//!    ([`rotated_seed`]);
//! 3. when a supergraph scheme keeps failing (or fails structurally, as a
//!    broken mining stage does), the run degrades to the matching direct
//!    scheme (ASG → AG, NSG → NG) and retries there;
//! 4. every attempt — and every eigensolver fallback rung inside it — lands
//!    in a machine-readable [`RunReport`] the CLI can serialize.
//!
//! Structural errors (bad config, bad data, structural cut and clustering
//! failures) are never retried with another seed: re-running cannot change
//! them.

use crate::error::{Result, RoadpartError};
use crate::pipeline::{partition_network, PipelineConfig, PipelineResult, PipelineTimings};
use crate::sanitize::ValidationReport;
use crate::schemes::Scheme;
use roadpart_linalg::RecoveryLog;
use roadpart_net::{check_densities, RoadNetwork};
use serde::{Deserialize, Serialize};

/// Configuration for [`run_supervised`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The pipeline to supervise (scheme, k, framework knobs).
    pub pipeline: PipelineConfig,
    /// Attempts per scheme (the original and, if degradation kicks in, the
    /// direct fallback each get this many). Clamped to at least 1.
    pub max_attempts: usize,
}

/// Seed offset between consecutive retry attempts, shared by the batch
/// supervisor and the stream engine.
pub const SEED_STRIDE: u64 = 0x9e37_79b9;

/// The seed a retry runs under: attempt 0 is `base` itself (the run as
/// configured), every further attempt shifts it by [`SEED_STRIDE`] so a
/// retry is not a bit-identical rerun of the failure.
pub fn rotated_seed(base: u64, attempt: usize) -> u64 {
    base.wrapping_add(attempt as u64 * SEED_STRIDE)
}

impl SupervisorConfig {
    /// Supervision with the default robustness posture: three attempts
    /// per scheme, degradation enabled.
    pub fn new(pipeline: PipelineConfig) -> Self {
        Self {
            pipeline,
            max_attempts: 3,
        }
    }
}

/// One supervised call into [`partition_network`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// Zero-based attempt index across the whole run.
    pub attempt: usize,
    /// The scheme this attempt ran (differs from the configured scheme
    /// after degradation).
    pub scheme: Scheme,
    /// The mining/spectral seed in force.
    pub seed: u64,
    /// Whether the attempt produced a partition.
    pub succeeded: bool,
    /// The full error chain when it did not.
    pub error: Option<String>,
}

/// Machine-readable account of a supervised run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// The scheme originally requested.
    pub requested_scheme: Scheme,
    /// The scheme that finally produced the partition (when one did).
    pub final_scheme: Option<Scheme>,
    /// Every attempt, in execution order.
    pub attempts: Vec<AttemptRecord>,
    /// Degeneracy diagnostics ([`crate::sanitize`]) of the road graph the
    /// successful attempt partitioned.
    pub validation: ValidationReport,
    /// Eigensolver fallback activity of the successful attempt.
    pub recoveries: RecoveryLog,
    /// True when the result came from a degraded (direct) scheme.
    pub degraded: bool,
    /// True when a partition was produced at all.
    pub succeeded: bool,
    /// Per-module timings of the successful attempt.
    pub timings: Option<PipelineTimings>,
}

/// A successful supervised run: the pipeline result plus its report.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The partitioning result of the attempt that succeeded.
    pub result: PipelineResult,
    /// The full execution report.
    pub report: RunReport,
}

/// Formats an error with its full `source()` chain on one line.
pub fn error_chain(err: &dyn std::error::Error) -> String {
    let mut out = err.to_string();
    let mut src = err.source();
    while let Some(cause) = src {
        out.push_str(" <- ");
        out.push_str(&cause.to_string());
        src = cause.source();
    }
    out
}

/// Runs the pipeline under supervision; see the module docs for the ladder.
///
/// # Errors
/// Returns the density gate's error ([`check_densities`]) for a refused
/// vector, or the last attempt's error once every scheme in the
/// degradation schedule is out of attempts. The error chain of every failed
/// attempt survives in the report of a *successful* run; a fully failed run
/// only reports the final error.
pub fn run_supervised(
    net: &RoadNetwork,
    densities: &[f64],
    cfg: &SupervisorConfig,
) -> Result<SupervisedRun> {
    check_densities(densities, net.segment_count())?;

    let requested = cfg.pipeline.scheme;
    let mut schedule = vec![requested];
    schedule.extend(requested.degraded());
    let max_attempts = cfg.max_attempts.max(1);
    let base_seed = cfg.pipeline.framework.mining.seed;

    let mut attempts: Vec<AttemptRecord> = Vec::new();
    let mut last_err: Option<RoadpartError> = None;

    for (phase, &scheme) in schedule.iter().enumerate() {
        for _ in 0..max_attempts {
            let attempt = attempts.len();
            let mut run_cfg = cfg.pipeline.clone();
            run_cfg.scheme = scheme;
            let seed = rotated_seed(base_seed, attempt);
            if attempt > 0 {
                run_cfg = run_cfg.with_seed(seed);
            }
            match partition_network(net, densities, &run_cfg) {
                Ok(result) => {
                    attempts.push(AttemptRecord {
                        attempt,
                        scheme,
                        seed,
                        succeeded: true,
                        error: None,
                    });
                    let report = RunReport {
                        requested_scheme: requested,
                        final_scheme: Some(scheme),
                        attempts,
                        validation: ValidationReport::of(&result.graph),
                        recoveries: result.recovery.clone(),
                        degraded: phase > 0,
                        succeeded: true,
                        timings: Some(result.timings),
                    };
                    return Ok(SupervisedRun { result, report });
                }
                Err(err) => {
                    attempts.push(AttemptRecord {
                        attempt,
                        scheme,
                        seed,
                        succeeded: false,
                        error: Some(error_chain(&err)),
                    });
                    let retryable = err.is_retryable();
                    last_err = Some(err);
                    if !retryable {
                        // Structural failure: more seeds will not help.
                        // Move straight to the next phase — for a
                        // supergraph scheme that is degradation to its
                        // direct counterpart (the mining stage is what
                        // breaks structurally); a direct scheme has no next
                        // phase and the error propagates.
                        break;
                    }
                }
            }
        }
    }

    Err(last_err
        .unwrap_or_else(|| RoadpartError::InvalidConfig("supervisor ran zero attempts".into())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadpart_net::UrbanConfig;
    use roadpart_traffic::{CongestionField, TemporalProfile};

    fn small_net_and_densities() -> (RoadNetwork, Vec<f64>) {
        let net = UrbanConfig::d1().scaled(0.3).generate(17).unwrap();
        let field = CongestionField::urban_default(&net, 17);
        let densities = field.densities(&net, 0.3, &TemporalProfile::morning());
        (net, densities)
    }

    #[test]
    fn clean_run_has_single_successful_attempt() {
        let (net, densities) = small_net_and_densities();
        let cfg = SupervisorConfig::new(PipelineConfig::asg(4).with_seed(5));
        let run = run_supervised(&net, &densities, &cfg).unwrap();
        assert!(run.report.succeeded);
        assert!(!run.report.degraded);
        assert_eq!(run.report.attempts.len(), 1);
        assert!(run.report.attempts[0].succeeded);
        assert_eq!(run.report.final_scheme, Some(Scheme::ASG));
        assert!(run.report.recoveries.is_clean());
        assert!(run.report.timings.is_some());
        assert_eq!(run.result.partition.len(), net.segment_count());
    }

    #[test]
    fn anomalous_densities_are_refused_before_any_attempt() {
        let (net, mut densities) = small_net_and_densities();
        for i in (3..densities.len()).step_by(7) {
            densities[i] = f64::NAN;
        }
        // The gate's data error, not an attempt's: nothing ran, so nothing
        // was retried or degraded to AG.
        let cfg = SupervisorConfig::new(PipelineConfig::asg(3).with_seed(5));
        match run_supervised(&net, &densities, &cfg) {
            Err(RoadpartError::Net(e)) => assert_eq!(e.to_string(), "density[3] is NaN"),
            other => panic!("expected the gate's error, got {other:?}"),
        }
    }

    #[test]
    fn forced_solver_failures_climb_the_ladder() {
        let (net, densities) = small_net_and_densities();
        let mut pipeline = PipelineConfig::asg(3).with_seed(5);
        pipeline.framework.spectral.fallback.inject_failures = 2;
        let cfg = SupervisorConfig::new(pipeline);
        let run = run_supervised(&net, &densities, &cfg).unwrap();
        // The ladder absorbs the failures inside one pipeline attempt.
        assert_eq!(run.report.attempts.len(), 1);
        assert_eq!(run.report.recoveries.failures(), 2);
        assert!(run.report.recoveries.events.last().unwrap().succeeded);
    }

    #[test]
    fn mining_failure_degrades_to_direct_scheme() {
        let (net, densities) = small_net_and_densities();
        let mut pipeline = PipelineConfig::asg(3).with_seed(5);
        // Break the mining stage structurally; the spectral stage is fine,
        // so ASG must degrade to AG and succeed there.
        pipeline.framework.mining.mcg_threshold_frac = 2.0;
        let cfg = SupervisorConfig::new(pipeline);
        let run = run_supervised(&net, &densities, &cfg).unwrap();
        assert!(run.report.degraded);
        assert_eq!(run.report.final_scheme, Some(Scheme::AG));
        assert_eq!(
            run.report.attempts.len(),
            2,
            "one ASG failure, one AG success"
        );
        assert!(!run.report.attempts[0].succeeded);
        assert_eq!(run.report.attempts[0].scheme, Scheme::ASG);
        assert!(run.report.attempts[1].succeeded);
        assert_eq!(run.result.partition.len(), net.segment_count());
    }

    #[test]
    fn run_report_serializes() {
        let (net, densities) = small_net_and_densities();
        let cfg = SupervisorConfig::new(PipelineConfig::asg(3).with_seed(5));
        let run = run_supervised(&net, &densities, &cfg).unwrap();
        let json = serde_json::to_string_pretty(&run.report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.attempts.len(), run.report.attempts.len());
        assert_eq!(back.final_scheme, Some(Scheme::ASG));
        assert!(back.succeeded);
    }

    #[test]
    fn error_chain_walks_sources() {
        let inner = roadpart_linalg::LinalgError::NotConverged {
            iterations: 7,
            context: "test solve",
        };
        let outer = RoadpartError::from(roadpart_cut::CutError::from(inner));
        let chain = error_chain(&outer);
        assert!(chain.contains(" <- "), "{chain}");
        assert!(chain.contains("test solve"), "{chain}");
    }
}
