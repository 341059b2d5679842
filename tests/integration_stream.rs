//! Integration: the online repartitioning engine's serving contract.
//!
//! Drives 12 epochs through three traffic phases (stable → mildly shifted →
//! structurally inverted) while concurrent readers hammer the snapshot
//! store, asserting the three guarantees the engine makes:
//!
//! 1. snapshot reads always return a *complete* partition (every segment
//!    labeled, even mid-repartition);
//! 2. versions are monotonic, bumping exactly when a repartition publishes;
//! 3. drift below the policy thresholds yields no-op epochs.

use roadpart_linalg::CsrMatrix;
use roadpart_net::RoadGraph;
use roadpart_stream::{EngineConfig, EpochAction, StreamEngine, StreamLog};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

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

#[test]
fn twelve_epoch_replay_obeys_the_serving_contract() {
    let graph = plateau_graph();
    let baseline = graph.features().to_vec();
    let mut engine = StreamEngine::new(graph, EngineConfig::new(4).with_seed(7)).unwrap();
    let store = engine.store();

    // Concurrent readers: every observed snapshot must be complete and
    // versions must never run backwards, no matter what the epoch loop is
    // doing on the main thread. Each reader takes its first snapshot before
    // the barrier the epoch loop waits on, so every reader reads at least
    // once; it asserts only after the barrier, so a failing reader cannot
    // leave the main thread waiting.
    let stop = Arc::new(AtomicBool::new(false));
    let first_reads = Arc::new(Barrier::new(4));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let store = engine.store();
            let stop = Arc::clone(&stop);
            let first_reads = Arc::clone(&first_reads);
            thread::spawn(move || {
                let mut snap = store.read();
                first_reads.wait();
                let mut last = 0u64;
                let mut observed = 0usize;
                loop {
                    assert_eq!(snap.len(), N, "incomplete snapshot served");
                    assert!(
                        snap.labels().iter().all(|&l| l < snap.k),
                        "label outside 0..k"
                    );
                    assert!(snap.version >= last, "version ran backwards");
                    last = snap.version;
                    observed += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    snap = store.read();
                }
                observed
            })
        })
        .collect();
    first_reads.wait();

    let mut log = StreamLog::new();
    for epoch in 0..12usize {
        let feed: Vec<f64> = match epoch {
            // Phase 1: the exact baseline — nothing to react to.
            0..=3 => baseline.clone(),
            // Phase 2: every density up 30% — means move, structure intact.
            4..=7 => baseline.iter().map(|d| d * 1.3).collect(),
            // Phase 3: fine stripes across the plateaus — the natural
            // congestion grouping no longer resembles the served one.
            _ => (0..N)
                .map(|i| if i % 2 == 0 { 0.05 } else { 0.95 })
                .collect(),
        };
        for _ in 0..3 {
            engine.ingest(&feed).unwrap();
        }
        log.push(engine.run_epoch().unwrap());
    }

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader never got a snapshot");
    }

    assert_eq!(engine.epochs(), 12);
    assert_eq!(log.len(), 12);

    // Guarantee 3: the stable phase is all no-ops at the initial version.
    for r in &log.reports[..4] {
        assert_eq!(r.action, EpochAction::NoOp, "epoch {}", r.epoch);
        assert_eq!(r.version, 1, "no-op must not republish");
        assert!(r.drift.is_none());
    }

    // Guarantee 2: versions monotonic across epochs, and every repartition
    // bumps by exactly one.
    for w in log.reports.windows(2) {
        assert!(w[1].version >= w[0].version, "versions monotonic");
        let bumped = w[1].version - w[0].version;
        match w[1].action {
            EpochAction::NoOp => assert_eq!(bumped, 0),
            _ => assert_eq!(bumped, 1),
        }
    }

    // The shifted phases actually reacted: at least one repartition, and
    // the structural inversion forced at least one global rebuild.
    let (noop, regional, global) = log.action_counts();
    assert!(noop >= 4, "stable phase must be no-op ({noop})");
    assert!(global >= 1, "inverted phase must rebuild ({global})");
    assert_eq!(noop + regional + global, 12);

    // Repartitioning epochs carry drift measurements.
    for r in &log.reports {
        match r.action {
            EpochAction::NoOp => assert!(r.drift.is_none()),
            _ => assert!(r.drift.is_some(), "epoch {} missing drift", r.epoch),
        }
        assert!(r.k >= 1 && r.k <= N);
        assert!(r.probe.max_divergence.is_finite());
        assert!((0.0..=1.0).contains(&r.probe.trial_nmi));
    }

    // Guarantee 1 (main thread view): the final snapshot is complete and
    // matches the last report's metadata.
    let snap = store.read();
    assert_eq!(snap.len(), N);
    let last = log.reports.last().unwrap();
    assert_eq!(snap.version, last.version);
    assert_eq!(snap.k, last.k);

    // The whole log serializes (the CLI's output path).
    let json = serde_json::to_string(&log).unwrap();
    assert!(json.contains("\"epoch\""));
}

#[test]
fn warm_rebuilds_follow_cold_initialization() {
    let graph = plateau_graph();
    let mut engine = StreamEngine::new(graph, EngineConfig::new(4).with_seed(3)).unwrap();
    // Two consecutive structural flips: both rebuilds should be able to
    // reuse artifacts (the first from initialization, the second from the
    // first rebuild).
    for flip in 0..2 {
        let feed: Vec<f64> = (0..N)
            .map(|i| if (i + flip) % 3 == 0 { 0.9 } else { 0.05 })
            .collect();
        for _ in 0..3 {
            engine.ingest(&feed).unwrap();
        }
        let r = engine.run_epoch().unwrap();
        if r.action == EpochAction::Global {
            assert!(r.warm_started, "global rebuilds must reuse artifacts");
        }
    }
}
