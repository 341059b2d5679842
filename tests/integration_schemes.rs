//! Cross-scheme integration: the paper's comparative claims at small scale.

use roadpart::prelude::*;
use roadpart_net::RoadGraph;

fn d1_graph(scale: f64, seed: u64) -> (Dataset, RoadGraph) {
    let dataset = roadpart::datasets::d1(scale, seed).unwrap();
    let mut graph = RoadGraph::from_network(&dataset.network).unwrap();
    graph
        .set_features(dataset.eval_densities().to_vec())
        .unwrap();
    (dataset, graph)
}

/// Every scheme produces a valid k-partition on the same dataset.
#[test]
fn all_schemes_valid_on_d1() {
    let (_, graph) = d1_graph(0.35, 19);
    let cfg = FrameworkConfig::default().with_seed(19);
    for scheme in Scheme::all() {
        let out = roadpart::run_scheme(&graph, scheme, 4, &cfg).unwrap();
        assert_eq!(out.partition.len(), graph.node_count(), "{scheme:?}");
        assert!(out.partition.k() >= 2, "{scheme:?}");
        // Expanded partitions stay spatially connected.
        let comp = roadpart_cluster::constrained_components(
            graph.adjacency(),
            Some(out.partition.labels()),
        )
        .unwrap();
        let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
        assert_eq!(n_comp, out.partition.k(), "{scheme:?} disconnected");
    }
}

/// The supergraph alpha-Cut scheme finds genuinely congestion-aligned
/// partitions: its best ANS over a k sweep indicates far more internal
/// homogeneity than heterogeneity (ANS well below 1), which no
/// congestion-blind partitioning achieves on hotspot-structured data.
/// (Scheme-vs-scheme orderings are workload-dependent and are *reported*
/// by the fig4/table2 harness rather than hard-asserted here.)
#[test]
fn asg_best_ans_is_meaningful() {
    let (_, graph) = d1_graph(0.5, 23);
    let cfg = FrameworkConfig::default().with_seed(23);
    let affinity = roadpart_cut::gaussian_affinity_par(
        graph.adjacency(),
        graph.features(),
        &roadpart_linalg::ThreadPool::serial(),
    )
    .unwrap();
    let best = (2..=8)
        .map(|k| {
            let out = roadpart::run_scheme(&graph, Scheme::ASG, k, &cfg).unwrap();
            QualityReport::compute(&affinity, graph.features(), out.partition.labels()).ans
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        best < 0.8,
        "ASG best ANS {best} should show clear congestion structure"
    );
}

/// The JG baseline produces exactly k connected partitions.
#[test]
fn jg_baseline_valid() {
    let (_, graph) = d1_graph(0.35, 29);
    for k in [2, 4, 6] {
        let p = jg_partition(&graph, k, &JgConfig::default()).unwrap();
        assert_eq!(p.k(), k);
        let comp =
            roadpart_cluster::constrained_components(graph.adjacency(), Some(p.labels())).unwrap();
        let n_comp = comp.iter().copied().max().map_or(0, |m| m + 1);
        assert_eq!(n_comp, k, "JG partition disconnected at k = {k}");
    }
}

/// Scheme runs are reproducible given a seed, and seeds matter.
#[test]
fn scheme_determinism() {
    let (_, graph) = d1_graph(0.3, 31);
    let cfg = FrameworkConfig::default().with_seed(31);
    let a = roadpart::run_scheme(&graph, Scheme::ASG, 4, &cfg).unwrap();
    let b = roadpart::run_scheme(&graph, Scheme::ASG, 4, &cfg).unwrap();
    assert_eq!(a.partition.labels(), b.partition.labels());
}
