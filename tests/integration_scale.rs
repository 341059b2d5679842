//! Scalability integration: Melbourne-sized (scaled) networks through the
//! full pipeline, exercising the Lanczos path and the condensation claims.

use roadpart::prelude::*;

/// M1 at moderate scale runs the entire pipeline within sane time and the
/// supergraph shrinks the eigenproblem dramatically.
#[test]
fn m1_scaled_pipeline() {
    let dataset = roadpart::datasets::melbourne(Melbourne::M1, 0.08, 37).unwrap();
    let n = dataset.network.segment_count();
    assert!(n > 800, "want a four-digit segment count, got {n}");
    let cfg = PipelineConfig::asg(4).with_seed(37);
    let result = partition_network(&dataset.network, dataset.eval_densities(), &cfg).unwrap();
    assert_eq!(result.partition.len(), n);
    let order = result.supergraph_order.unwrap();
    assert!(
        (order as f64) < 0.5 * n as f64,
        "supergraph {order} vs {n} segments"
    );
    // Quality sanity: ANS must be finite and better than the trivial
    // everything-is-one-partition score of 0 is impossible; just bound it.
    let report = QualityReport::compute(
        result.graph.adjacency(),
        result.graph.features(),
        result.partition.labels(),
    );
    assert!(report.ans.is_finite());
    assert!(report.k >= 2);
}

/// Forcing the Lanczos path (tiny dense cutoff) reproduces the dense path's
/// eigenvalues on a real road-graph affinity matrix, and still yields a
/// valid connected partition. (Label-level agreement is ill-posed: close
/// eigenvalues make the embedding basis non-unique, so the two paths may
/// legitimately tie-break differently.)
#[test]
fn lanczos_matches_dense_eigenvalues_on_road_affinity() {
    use roadpart_linalg::{
        sym_eigs_recovering, EigenConfig, FallbackConfig, RankOneUpdate, RecoveryLog, SymOp,
        ThreadPool, Which,
    };
    let dataset = roadpart::datasets::d1(0.4, 41).unwrap();
    let mut graph = roadpart_net::RoadGraph::from_network(&dataset.network).unwrap();
    graph
        .set_features(dataset.eval_densities().to_vec())
        .unwrap();
    let affinity = roadpart_cut::gaussian_affinity_par(
        graph.adjacency(),
        graph.features(),
        &ThreadPool::serial(),
    )
    .unwrap();

    // The alpha-Cut operator M = d d^T / s - A, both solver paths, each on
    // the ladder's baseline rung.
    let d = affinity.degrees();
    let s: f64 = d.iter().sum();
    let op = RankOneUpdate::new(&affinity, d, 1.0 / s, -1.0).unwrap();
    let solve = |cfg: &EigenConfig| {
        let mut log = RecoveryLog::new();
        let dec = sym_eigs_recovering(
            &op,
            5,
            Which::Smallest,
            cfg,
            &FallbackConfig::default(),
            &mut log,
        )
        .unwrap();
        assert!(log.is_clean(), "solve needed a fallback rung");
        dec
    };
    let dense = solve(&EigenConfig {
        dense_cutoff: 100_000,
        ..EigenConfig::default()
    });
    let lanczos = solve(&EigenConfig {
        dense_cutoff: 0,
        tol: 1e-9,
        ..EigenConfig::default()
    });
    for j in 0..5 {
        assert!(
            (dense.values[j] - lanczos.values[j]).abs() < 1e-6,
            "eigenvalue {j}: dense {} vs lanczos {}",
            dense.values[j],
            lanczos.values[j]
        );
        // Residual check for the Lanczos vectors on the true operator.
        let q = lanczos.vector(j);
        let mut mq = vec![0.0; q.len()];
        op.apply(&q, &mut mq);
        for i in 0..q.len() {
            assert!((mq[i] - lanczos.values[j] * q[i]).abs() < 1e-6);
        }
    }

    // The Lanczos-driven partition is still structurally valid.
    let mut lanczos_cfg = SpectralConfig::default().with_seed(41);
    lanczos_cfg.eigen.dense_cutoff = 0;
    let p = roadpart_cut::spectral_partition_recovering(
        &affinity,
        4,
        roadpart_cut::CutKind::Alpha,
        &lanczos_cfg,
        &mut RecoveryLog::new(),
    )
    .unwrap();
    assert_eq!(p.len(), affinity.dim());
    let comp = roadpart_cluster::constrained_components(&affinity, Some(p.labels())).unwrap();
    let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
    assert_eq!(n_comp, p.k());
}

/// MNTG traffic generation at M2 scale stays deterministic and loaded.
#[test]
fn m2_traffic_statistics() {
    let dataset = roadpart::datasets::melbourne(Melbourne::M2, 0.03, 43).unwrap();
    assert_eq!(dataset.history.len(), 100);
    assert!(dataset.stats.departed > 0);
    let peak = dataset.history.peak_step().unwrap();
    assert!(dataset.history.mean_at(peak) > 0.0);
    // Density vector dimensions track the network.
    assert_eq!(
        dataset.history.at(peak).len(),
        dataset.network.segment_count()
    );
}
