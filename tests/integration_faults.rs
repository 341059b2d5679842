//! Fault integration tests for the supervised pipeline at D1 scale: the
//! faults supervision can recover from — solver storms and a broken mining
//! stage — complete with a valid partition and a report that records
//! exactly how the run recovered, and corrupt densities are refused by the
//! density gate before any attempt runs.

use roadpart::prelude::*;
use roadpart::RoadpartError;

fn d1_case() -> (RoadNetwork, Vec<f64>) {
    // Scale/seed matching integration_pipeline: the mined supergraph has
    // enough supernodes (order > k) that the spectral solve actually runs —
    // smaller surrogates can condense to order <= k, where the partitioner
    // short-circuits without touching the eigensolver.
    let dataset = roadpart::datasets::d1(0.35, 21).unwrap();
    let densities = dataset.eval_densities().to_vec();
    (dataset.network, densities)
}

/// `densities` with every `stride`-th value from `offset` on set to `value`.
fn strided(densities: &[f64], stride: usize, offset: usize, value: f64) -> Vec<f64> {
    let mut d = densities.to_vec();
    for v in d.iter_mut().skip(offset).step_by(stride) {
        *v = value;
    }
    d
}

/// Every recoverable fault class completes via supervision with a valid
/// connected k-way partition and a report explaining the recovery: a
/// two-failure solver storm absorbed by the fallback ladder, and a broken
/// mining stage degraded from ASG to AG.
#[test]
fn supervisor_recovers_from_every_standard_fault() {
    let (net, densities) = d1_case();
    let mut storm = PipelineConfig::asg(4).with_seed(21);
    storm.framework.spectral.fallback.inject_failures = 2;
    let mut broken_mining = PipelineConfig::asg(4).with_seed(21);
    broken_mining.framework.mining.mcg_threshold_frac = 2.0;
    for (name, pipeline) in [
        ("forced-not-converged", storm),
        ("broken-mining", broken_mining),
    ] {
        let cfg = SupervisorConfig::new(pipeline);
        let run = run_supervised(&net, &densities, &cfg)
            .unwrap_or_else(|e| panic!("{name}: supervision failed: {e}"));

        // A valid partition: every segment labelled, partitions connected.
        assert_eq!(
            run.result.partition.len(),
            net.segment_count(),
            "{name}: label coverage"
        );
        assert!(run.result.partition.k() >= 2, "{name}: k collapsed");
        let comp = roadpart_cluster::constrained_components(
            run.result.graph.adjacency(),
            Some(run.result.partition.labels()),
        )
        .unwrap();
        let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
        assert_eq!(
            n_comp,
            run.result.partition.k(),
            "{name}: disconnected partition"
        );

        // The report must be explicit about what recovery happened.
        assert!(run.report.succeeded, "{name}");
        if name == "forced-not-converged" {
            assert_eq!(
                run.report.recoveries.failures(),
                2,
                "{name}: ladder rungs not recorded"
            );
            assert!(
                run.report.recoveries.events.last().unwrap().succeeded,
                "{name}: final rung did not succeed"
            );
            assert_eq!(run.report.attempts.len(), 1, "{name}: ladder absorbed it");
        } else {
            assert!(run.report.degraded, "{name}: degradation not recorded");
            assert_eq!(run.report.final_scheme, Some(Scheme::AG), "{name}");
        }

        // The report is machine-readable end to end.
        let json = serde_json::to_string_pretty(&run.report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.attempts.len(), run.report.attempts.len(), "{name}");
        assert_eq!(back.degraded, run.report.degraded, "{name}");
    }
}

/// A forced non-convergence storm on the main solve still yields a valid
/// k-way partition, with every exhausted rung on record.
#[test]
fn forced_not_converged_climbs_to_dense_rung() {
    let (net, densities) = d1_case();
    let mut pipeline = PipelineConfig::asg(4).with_seed(21);
    // Fail baseline, relaxed, and perturbed: only the dense rung remains.
    pipeline.framework.spectral.fallback.inject_failures = 3;
    let cfg = SupervisorConfig::new(pipeline);
    let run = run_supervised(&net, &densities, &cfg).unwrap();
    assert_eq!(run.report.recoveries.failures(), 3);
    let last = run.report.recoveries.events.last().unwrap();
    assert!(last.succeeded);
    assert_eq!(run.report.attempts.len(), 1, "ladder absorbed the storm");
    assert!(run.result.partition.k() >= 2);
}

/// Simultaneous faults — corrupt sensors *and* a flaky solver. The sensors
/// are refused by the gate before any attempt, so the error is the gate's,
/// not the solver's; once the sensors are clean, the flaky solver recovers
/// in a single supervised attempt.
#[test]
fn combined_faults_recover_together() {
    let (net, densities) = d1_case();
    let mut pipeline = PipelineConfig::asg(3).with_seed(21);
    pipeline.framework.spectral.fallback.inject_failures = 1;
    let cfg = SupervisorConfig::new(pipeline);

    let corrupt = strided(&densities, 11, 3, f64::NAN);
    match run_supervised(&net, &corrupt, &cfg) {
        Err(RoadpartError::Net(e)) => assert_eq!(e.to_string(), "density[3] is NaN"),
        Err(other) => panic!("expected the gate's error, got {other}"),
        Ok(_) => panic!("corrupt densities were accepted"),
    }

    let run = run_supervised(&net, &densities, &cfg).unwrap();
    assert_eq!(run.report.attempts.len(), 1);
    assert_eq!(run.report.recoveries.failures(), 1);
    assert_eq!(run.result.partition.len(), net.segment_count());
}

/// The batch path's only policy is strict: every way a density vector can
/// be bad — strided NaN, +inf and negative values, a short vector and a
/// long one — fails fast in `run_supervised` with the gate's own data
/// error instead of limping through.
#[test]
fn strict_policy_fails_fast_on_corrupt_densities() {
    let (net, base) = d1_case();
    let n = net.segment_count();
    let mut long = base.clone();
    long.push(0.1);
    let cases = [
        (
            strided(&base, 5, 0, f64::NAN),
            "density[0] is NaN".to_string(),
        ),
        (
            strided(&base, 9, 2, f64::INFINITY),
            "density[2] is +inf".to_string(),
        ),
        (
            strided(&base, 7, 1, -1.0),
            "density[1] is negative".to_string(),
        ),
        (
            base[..n - 10].to_vec(),
            format!("{} densities for {n} segments", n - 10),
        ),
        (long, format!("{} densities for {n} segments", n + 1)),
    ];
    let cfg = SupervisorConfig::new(PipelineConfig::asg(4).with_seed(21));
    for (densities, msg) in cases {
        match run_supervised(&net, &densities, &cfg) {
            Err(RoadpartError::Net(e)) => assert_eq!(e.to_string(), msg),
            Err(other) => panic!("{msg}: expected the gate's error, got {other}"),
            Ok(_) => panic!("{msg}: the run was accepted"),
        }
    }
}
