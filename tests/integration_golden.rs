//! Golden regression fixture for the deterministic pipeline.
//!
//! `tests/fixtures/golden_d1.json` snapshots the AG and ASG partitions of a
//! small D1-like synthetic network (labels plus inter/intra/GDBI/ANS
//! quality metrics). The pinning test recomputes both at 4 threads and
//! compares label for label — because every parallel kernel is
//! bit-identical across pool sizes, the snapshot pins the pipeline output
//! for *every* `ROADPART_THREADS` setting at once.
//!
//! Regenerate after an intentional algorithm change with
//!
//! ```text
//! cargo test -p roadpart --test integration_golden -- --ignored regenerate
//! ```
//!
//! and review the label/metric diff like any other golden update.

use roadpart::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 17;
const SCALE: f64 = 0.3;
const K: usize = 4;
/// Metrics are compared to the fixture within this tolerance (they travel
/// through JSON text, which is not guaranteed to round-trip bits).
const METRIC_TOL: f64 = 1e-9;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden_d1.json")
}

struct SchemeSnapshot {
    labels: Vec<usize>,
    inter: f64,
    intra: f64,
    gdbi: f64,
    ans: f64,
}

/// Runs one scheme on the fixture network and evaluates the paper metrics.
fn snapshot(scheme: Scheme) -> SchemeSnapshot {
    snapshot_with_reorth(scheme, roadpart_linalg::ReorthPolicy::default())
}

/// [`snapshot`] with an explicit reorthogonalization policy.
fn snapshot_with_reorth(scheme: Scheme, reorth: roadpart_linalg::ReorthPolicy) -> SchemeSnapshot {
    let dataset = roadpart::datasets::d1(SCALE, SEED).unwrap();
    let mut graph = RoadGraph::from_network(&dataset.network).unwrap();
    graph
        .set_features(dataset.eval_densities().to_vec())
        .unwrap();
    let mut framework = FrameworkConfig::default();
    framework.spectral.eigen.reorth = reorth;
    let cfg = PipelineConfig {
        scheme,
        k: K,
        framework,
    }
    .with_seed(SEED)
    .with_threads(4);
    let result = partition_network(&dataset.network, dataset.eval_densities(), &cfg).unwrap();
    let affinity = roadpart_cut::gaussian_affinity_par(
        graph.adjacency(),
        graph.features(),
        &roadpart_linalg::ThreadPool::serial(),
    )
    .unwrap();
    let report = QualityReport::compute(&affinity, graph.features(), result.partition.labels());
    SchemeSnapshot {
        labels: result.partition.labels().to_vec(),
        inter: report.inter,
        intra: report.intra,
        gdbi: report.gdbi,
        ans: report.ans,
    }
}

fn scheme_json(s: &SchemeSnapshot) -> serde_json::Value {
    serde_json::json!({
        "labels": s.labels,
        "inter": s.inter,
        "intra": s.intra,
        "gdbi": s.gdbi,
        "ans": s.ans,
    })
}

fn check_scheme(fixture: &serde_json::Value, name: &str, actual: &SchemeSnapshot) {
    let expected = fixture
        .get(name)
        .unwrap_or_else(|| panic!("fixture missing scheme {name}"));
    let labels: Vec<usize> = expected["labels"]
        .as_array()
        .expect("labels array")
        .iter()
        .map(|v| v.as_f64().expect("label") as usize)
        .collect();
    assert_eq!(
        labels, actual.labels,
        "{name}: partition labels drifted from the golden fixture; if the \
         change is intentional, regenerate with the ignored test"
    );
    for (metric, value) in [
        ("inter", actual.inter),
        ("intra", actual.intra),
        ("gdbi", actual.gdbi),
        ("ans", actual.ans),
    ] {
        let want = expected[metric].as_f64().expect("metric value");
        assert!(
            (want - value).abs() <= METRIC_TOL * want.abs().max(1.0),
            "{name}: {metric} drifted: fixture {want}, got {value}"
        );
    }
}

#[test]
fn golden_partition_snapshot() {
    let raw = std::fs::read_to_string(fixture_path())
        .expect("golden fixture missing; run the ignored regenerate test");
    let fixture: serde_json::Value = serde_json::from_str(&raw).expect("valid fixture JSON");
    assert_eq!(fixture["seed"].as_f64(), Some(SEED as f64));
    assert_eq!(fixture["k"].as_f64(), Some(K as f64));
    check_scheme(&fixture, "ag", &snapshot(Scheme::AG));
    check_scheme(&fixture, "asg", &snapshot(Scheme::ASG));
}

/// The fixture must pin the pipeline under **both** reorthogonalization
/// policies. The D1 fixture network sits below `dense_cutoff`, so its
/// eigensolve takes the exact dense path either way — the policy knob (PR
/// 5's selective reorthogonalization) therefore cannot move a single
/// label, and this test keeps that equivalence honest: if a future change
/// routes small networks through Lanczos, any Full/Selective divergence
/// shows up here as a fixture mismatch.
#[test]
fn golden_fixture_is_invariant_to_reorth_policy() {
    let raw = std::fs::read_to_string(fixture_path())
        .expect("golden fixture missing; run the ignored regenerate test");
    let fixture: serde_json::Value = serde_json::from_str(&raw).expect("valid fixture JSON");
    for policy in [
        roadpart_linalg::ReorthPolicy::Full,
        roadpart_linalg::ReorthPolicy::Selective,
    ] {
        for (name, scheme) in [("ag", Scheme::AG), ("asg", Scheme::ASG)] {
            check_scheme(&fixture, name, &snapshot_with_reorth(scheme, policy));
        }
    }
}

#[test]
#[ignore = "writes the golden fixture; run only for intentional algorithm changes"]
fn regenerate() {
    let dataset = roadpart::datasets::d1(SCALE, SEED).unwrap();
    let ag = snapshot(Scheme::AG);
    let asg = snapshot(Scheme::ASG);
    let value = serde_json::json!({
        "description": "D1-like synth network golden partition snapshot (see integration_golden.rs)",
        "seed": SEED,
        "scale": SCALE,
        "k": K,
        "segments": dataset.network.segment_count(),
        "ag": scheme_json(&ag),
        "asg": scheme_json(&asg),
    });
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, serde_json::to_string_pretty(&value).unwrap()).unwrap();
    println!("wrote {}", path.display());
}
