//! The traced path must reproduce the library's results bit for bit.

use roadbench::inputs::{self, City, ALGO_SEED, K};
use roadbench::layers::{counted_alpha_eigs, traced_partition};
use roadbench::trace::Tracer;
use roadpart::{mine_supergraph, partition_network, PipelineConfig, Scheme};
use roadpart_cut::{embedding_recovering, gaussian_affinity_par, CutKind, SpectralConfig};
use roadpart_linalg::{CsrMatrix, DenseMatrix, RecoveryLog};
use roadpart_net::RoadGraph;
use std::time::Instant;

const SCALE: f64 = 0.05;

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn pipeline(scheme: Scheme) -> PipelineConfig {
    let mut cfg = PipelineConfig::asg(K).with_seed(ALGO_SEED).with_threads(2);
    cfg.scheme = scheme;
    cfg
}

#[test]
fn traced_labels_are_bit_identical_to_partition_network() {
    for (city, scheme) in [(City::M3, Scheme::ASG), (City::M1, Scheme::AG)] {
        let net = inputs::city(city, SCALE).unwrap();
        let snaps = inputs::snapshots(&net, &inputs::snapshot_times(3));
        let cfg = pipeline(scheme);
        for d in &snaps {
            let mut tr = Tracer::new(true, Instant::now());
            let traced = traced_partition(&mut tr, &net, d, &cfg).unwrap();
            let reference = partition_network(&net, d, &cfg).unwrap();
            assert_eq!(traced.labels, reference.partition.labels(), "{scheme:?}");
            assert_eq!(traced.supergraph_order, reference.supergraph_order);
            assert!(traced.matvecs > 0, "{scheme:?}: breakdown eigensolve ran");
            for name in ["partition", "net.road_graph", "cut.spectral", "breakdown"] {
                assert_eq!(tr.durations_ms(name).len(), 1, "{scheme:?}: span {name}");
            }
        }
    }
}

/// The counting operator's eigenvectors, against `embedding_recovering`
/// on the same graph.
fn assert_counting_matches(adj: &CsrMatrix) {
    let spectral = SpectralConfig::default().with_seed(ALGO_SEED);
    let expected = embedding_recovering(
        adj,
        K,
        CutKind::Alpha,
        &spectral.eigen,
        &spectral.fallback,
        &mut RecoveryLog::new(),
    )
    .unwrap();
    let (counted, applies, ms) =
        counted_alpha_eigs(adj, K, &spectral.eigen, &spectral.fallback).unwrap();
    assert!(applies > 0 && ms >= 0.0);
    assert_eq!(bits(&counted), bits(&expected));
}

#[test]
fn counting_operator_eigenvectors_equal_embedding_recovering_bits() {
    let net = inputs::city(City::M1, SCALE).unwrap();
    let d = &inputs::snapshots(&net, &[0.3])[0];
    let mut graph = RoadGraph::from_network(&net).unwrap();
    graph.set_features(d.clone()).unwrap();
    // AG's affinity graph is past the dense cutoff, so Lanczos runs.
    let affinity = gaussian_affinity_par(
        graph.adjacency(),
        graph.features(),
        &roadpart_linalg::ThreadPool::new(2),
    )
    .unwrap();
    assert!(affinity.dim() > 512);
    assert_counting_matches(&affinity);
    // ASG's supergraph.
    let mining = mine_supergraph(&graph, &pipeline(Scheme::ASG).framework.mining).unwrap();
    assert_counting_matches(mining.supergraph.adjacency());
}
