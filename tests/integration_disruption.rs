//! Integration: fault-injection replay through the self-healing engine.
//!
//! Replays disruption scenarios (`roadpart_traffic::Scenario`) and injected
//! faults (corrupt feeds, solver failures, blown deadlines) through the
//! online repartitioning engine, asserting the robustness contract:
//!
//! 1. the engine never panics and never publishes a torn or invalid
//!    partition — refused snapshots never reach the aggregate, and failed
//!    epochs leave readers on the last good snapshot;
//! 2. `EpochResilience::degraded` accurately reflects what happened each
//!    epoch;
//! 3. after the disruption clears, the served partition recovers to within
//!    a quality margin of a clean-rerun oracle built from scratch on the
//!    post-disruption densities.

use roadpart_eval::QualityReport;
use roadpart_linalg::CsrMatrix;
use roadpart_net::RoadGraph;
use roadpart_stream::{DeadlineMode, EngineConfig, EpochAction, StreamEngine, StreamError};
use roadpart_traffic::Scenario;

const PLATEAUS: usize = 6;
const PER_PLATEAU: usize = 8;
const N: usize = PLATEAUS * PER_PLATEAU;

/// Path network with 6 constant-density plateaus of 8 segments.
fn plateau_graph() -> RoadGraph {
    let edges: Vec<(usize, usize, f64)> = (0..N - 1).map(|i| (i, i + 1, 1.0)).collect();
    let adj = CsrMatrix::from_undirected_edges(N, &edges).unwrap();
    let feats: Vec<f64> = (0..N)
        .map(|i| (i / PER_PLATEAU) as f64 * 0.3 + 0.05)
        .collect();
    RoadGraph::from_parts(adj, feats, vec![]).unwrap()
}

/// Fine stripes across the plateaus: forces a global rebuild.
fn flipped() -> Vec<f64> {
    (0..N)
        .map(|i| if i % 2 == 0 { 0.05 } else { 0.95 })
        .collect()
}

/// A corrupt feed must not move the served partition at all: every bad
/// snapshot is refused where it enters, and the run with garbage on the
/// wire ends on exactly the labels of an identical clean-only run.
#[test]
fn refused_garbage_does_not_poison_the_partition() {
    let cfg = EngineConfig::new(4).with_seed(11);
    let mut live = StreamEngine::new(plateau_graph(), cfg.clone()).unwrap();
    let mut oracle = StreamEngine::new(plateau_graph(), cfg).unwrap();
    let baseline = plateau_graph().features().to_vec();

    let mut corrupt = baseline.clone();
    corrupt[0] = f64::NAN;
    corrupt[1] = -5.0;
    for epoch in 0..6 {
        // Both engines get the same clean feed...
        live.ingest(&baseline).unwrap();
        oracle.ingest(&baseline).unwrap();
        // ...but the live one is also offered garbage from a broken source.
        for garbage in [&corrupt[..], &[]] {
            match live.ingest(garbage) {
                Err(StreamError::InvalidUpdate(_)) => {}
                other => panic!("epoch {epoch}: expected InvalidUpdate, got {other:?}"),
            }
        }
        let r_live = live.run_epoch().unwrap();
        let r_oracle = oracle.run_epoch().unwrap();
        assert_eq!(r_live.resilience.accepted, 1, "epoch {epoch}");
        assert_eq!(r_live.action, r_oracle.action, "epoch {epoch}");
        assert_eq!(r_live.version, r_oracle.version, "epoch {epoch}");
    }

    assert_eq!(
        live.store().read().labels(),
        oracle.store().read().labels(),
        "garbage leaked into the served partition"
    );
}

/// Solver faults first exhaust the retry budget and degrade the epoch, then
/// the engine recovers on its own once the faults clear — and the recovered
/// partition matches the quality of a clean-rerun oracle.
#[test]
fn solver_faults_degrade_then_recover_to_oracle_quality() {
    let mut cfg = EngineConfig::new(4).with_seed(7);
    cfg.resilience.max_retries = 1;
    let mut engine = StreamEngine::new(plateau_graph(), cfg).unwrap();
    let store = engine.store();
    let feed = flipped();

    // Enough faults for every rung: Global (2 attempts) + Regional (2).
    engine.arm_fault_injection(4);
    for _ in 0..3 {
        engine.ingest(&feed).unwrap();
    }
    let degraded = engine.run_epoch().unwrap();
    assert_eq!(degraded.intended, EpochAction::Global);
    assert_eq!(degraded.action, EpochAction::NoOp, "fully degraded");
    assert!(degraded.resilience.degraded);
    assert_eq!(degraded.resilience.attempts.len(), 4);
    assert!(degraded.resilience.attempts.iter().all(|a| !a.succeeded));
    assert_eq!(
        store.read().version,
        1,
        "degraded epoch must not touch the store"
    );

    // Faults exhausted: the next epoch heals without intervention.
    for _ in 0..3 {
        engine.ingest(&feed).unwrap();
    }
    let recovered = engine.run_epoch().unwrap();
    assert_eq!(recovered.action, EpochAction::Global);
    assert!(!recovered.resilience.degraded);
    assert_eq!(store.read().version, 2);

    // Clean-rerun oracle: a fresh engine whose graph starts on the same
    // densities the live one recovered on.
    let mut oracle_graph = plateau_graph();
    oracle_graph.set_features(feed.clone()).unwrap();
    let oracle = StreamEngine::new(oracle_graph, EngineConfig::new(4).with_seed(7)).unwrap();
    let affinity = {
        let graph = plateau_graph();
        roadpart_cut::gaussian_affinity_par(
            graph.adjacency(),
            &feed,
            &roadpart_linalg::ThreadPool::serial(),
        )
        .unwrap()
    };
    let served = QualityReport::compute(&affinity, &feed, store.read().labels());
    let clean = QualityReport::compute(&affinity, &feed, oracle.store().read().labels());
    // Sign-robust quality margin: alpha-cut is lower-better and can be
    // negative, so the allowance is half the oracle's magnitude.
    assert!(
        served.alpha_cut <= clean.alpha_cut + 0.5 * clean.alpha_cut.abs() + 1e-9,
        "recovered alpha-cut {} too far from oracle {}",
        served.alpha_cut,
        clean.alpha_cut
    );
}

/// A mid-stream blockade on a simulated city: the engine reacts while the
/// blockade holds, never violates the serving contract, and once the
/// blockade lifts the served partition lands within a quality margin of an
/// oracle rebuilt from scratch on the final densities.
#[test]
fn mid_stream_blockade_recovers_within_margin_of_oracle() {
    let dataset = roadpart::datasets::d1(0.3, 21).unwrap();
    let suite = Scenario::standard_suite(&dataset.network);
    let blockade = suite.iter().find(|s| s.name == "blockade").unwrap();
    let disrupted = blockade.apply_history(&dataset.network, &dataset.history);
    let steps = disrupted.len();
    assert!(steps >= 12, "need a real trace, got {steps} steps");

    let mut graph = RoadGraph::from_network(&dataset.network).unwrap();
    graph.set_features(disrupted.at(0).to_vec()).unwrap();
    let cfg = EngineConfig::new(4).with_seed(21);
    let mut engine = StreamEngine::new(graph, cfg).unwrap();
    let store = engine.store();

    let epochs = 10usize;
    let per_epoch = (steps - 1).div_ceil(epochs).max(1);
    let mut last_version = store.read().version;
    let mut reacted = false;
    let mut t = 1;
    while t < steps {
        let end = (t + per_epoch).min(steps);
        for s in t..end {
            engine.ingest(disrupted.at(s)).unwrap();
        }
        t = end;
        let r = engine.run_epoch().unwrap();
        // Serving contract under disruption: monotonic versions, complete
        // snapshots, finite probes, no degraded epoch.
        assert!(r.version >= last_version, "version ran backwards");
        last_version = r.version;
        let snap = store.read();
        assert_eq!(snap.len(), dataset.network.segment_count());
        assert!(snap.labels().iter().all(|&l| l < snap.k));
        assert!(r.probe.max_divergence.is_finite());
        assert!(!r.resilience.degraded, "no faults were injected");
        if r.action != EpochAction::NoOp {
            reacted = true;
        }
    }
    assert!(reacted, "a central blockade must trigger a repartition");

    // Clean-rerun oracle on the post-disruption densities.
    let final_densities = disrupted.at(steps - 1).to_vec();
    let mut oracle_graph = RoadGraph::from_network(&dataset.network).unwrap();
    oracle_graph.set_features(final_densities.clone()).unwrap();
    let oracle = StreamEngine::new(oracle_graph, EngineConfig::new(4).with_seed(21)).unwrap();

    let eval_graph = RoadGraph::from_network(&dataset.network).unwrap();
    let affinity = roadpart_cut::gaussian_affinity_par(
        eval_graph.adjacency(),
        &final_densities,
        &roadpart_linalg::ThreadPool::serial(),
    )
    .unwrap();
    let served = QualityReport::compute(&affinity, &final_densities, store.read().labels());
    let clean = QualityReport::compute(&affinity, &final_densities, oracle.store().read().labels());
    assert!(
        served.alpha_cut <= clean.alpha_cut + 0.5 * clean.alpha_cut.abs() + 1e-9,
        "served alpha-cut {} too far from clean-rerun oracle {}",
        served.alpha_cut,
        clean.alpha_cut
    );
}

/// A blown epoch budget degrades (default) or fails (`DeadlineMode::Fail`)
/// — and in both modes readers keep the pre-epoch snapshot.
#[test]
fn blown_deadlines_degrade_or_fail_without_touching_the_store() {
    // Degrade mode: the epoch lands as a no-op and flags itself.
    let mut cfg = EngineConfig::new(4).with_seed(5);
    cfg.resilience.epoch_budget_ms = Some(0.0);
    let mut engine = StreamEngine::new(plateau_graph(), cfg).unwrap();
    for _ in 0..3 {
        engine.ingest(&flipped()).unwrap();
    }
    let r = engine.run_epoch().unwrap();
    assert_eq!(r.action, EpochAction::NoOp);
    assert!(r.resilience.deadline_blown);
    assert!(r.resilience.degraded);
    assert_eq!(engine.store().read().version, 1);

    // Fail mode: the epoch errors out; the snapshot is still the old one.
    let mut cfg = EngineConfig::new(4).with_seed(5);
    cfg.resilience.epoch_budget_ms = Some(0.0);
    cfg.resilience.deadline_mode = DeadlineMode::Fail;
    let mut engine = StreamEngine::new(plateau_graph(), cfg).unwrap();
    for _ in 0..3 {
        engine.ingest(&flipped()).unwrap();
    }
    match engine.run_epoch() {
        Err(StreamError::DeadlineExceeded { budget_ms, .. }) => assert_eq!(budget_ms, 0.0),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(engine.store().read().version, 1);
}
