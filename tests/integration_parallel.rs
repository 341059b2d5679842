//! Differential suite for the deterministic parallel kernels.
//!
//! Every kernel built on `roadpart_linalg::par` uses fixed chunk boundaries
//! and ordered merges, so its output must be **bit-identical** at every
//! pool size — not merely close. These tests run each parallelized kernel
//! serially and at 2/4/8 threads on grid and spider synthetic networks
//! (both larger than one `DEFAULT_CHUNK`, so the chunking genuinely
//! splits) and compare outputs bit for bit, ending with a full pipeline
//! run compared label for label.

use roadpart::prelude::*;
use roadpart_cluster::{kmeans, KMeansConfig};
use roadpart_cut::gaussian_affinity_par;
use roadpart_linalg::par::ThreadPool;
use roadpart_linalg::{DenseMatrix, RankOneUpdate, SymOp};
use roadpart_net::RoadNetwork;

/// Pool sizes the differential tests compare against serial.
const POOL_SIZES: [usize; 3] = [2, 4, 8];

/// Deterministic pseudo-random unit-interval value.
fn hash01(i: usize) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(31)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A jittered-grid network with > 1024 segments (exceeds one chunk).
fn grid_network(seed: u64) -> (RoadNetwork, Vec<f64>) {
    let net = roadpart_net::UrbanConfig::m1()
        .scaled(0.08)
        .generate(seed)
        .unwrap();
    let field = CongestionField::urban_default(&net, seed);
    let densities = field.densities(&net, 0.4, &TemporalProfile::morning());
    (net, densities)
}

/// A spider-web network with > 1024 segments.
fn spider_network(seed: u64) -> (RoadNetwork, Vec<f64>) {
    use rand::SeedableRng;
    let cfg = roadpart_net::synth::spider::SpiderConfig {
        rings: 12,
        spokes: 30,
        ring_spacing_m: 180.0,
        jitter_rad: 0.05,
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let plan = roadpart_net::synth::spider::spider_plan(&cfg, &mut rng);
    let net = roadpart_net::synth::realize(&plan, 0.2, &mut rng).unwrap();
    let field = CongestionField::urban_default(&net, seed);
    let densities = field.densities(&net, 0.4, &TemporalProfile::morning());
    (net, densities)
}

fn both_networks(seed: u64) -> Vec<(&'static str, RoadNetwork, Vec<f64>)> {
    let (g, gd) = grid_network(seed);
    let (s, sd) = spider_network(seed ^ 0x51de);
    vec![("grid", g, gd), ("spider", s, sd)]
}

/// Asserts two float slices are bitwise equal, reporting the first
/// mismatch with its index.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: bit mismatch at {i}: {x:e} vs {y:e}"
        );
    }
}

#[test]
fn csr_and_dense_matvec_bit_identical_across_pools() {
    for (name, net, densities) in both_networks(11) {
        let mut graph = RoadGraph::from_network(&net).unwrap();
        graph.set_features(densities).unwrap();
        let affinity =
            gaussian_affinity_par(graph.adjacency(), graph.features(), &ThreadPool::serial())
                .unwrap();
        let n = affinity.dim();
        assert!(n > 1024, "{name}: network too small to exercise chunking");
        let x: Vec<f64> = (0..n).map(hash01).collect();

        // Serial reference from the pre-existing flat kernel.
        let mut y_ref = vec![0.0; n];
        affinity.matvec(&x, &mut y_ref).unwrap();

        let dense = roadpart_cut::dense_alpha_matrix(&affinity);
        let mut yd_ref = vec![0.0; n];
        dense.matvec(&x, &mut yd_ref).unwrap();

        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let mut y = vec![0.0; n];
            affinity.apply_par(&pool, &x, &mut y);
            assert_bits_eq(&y_ref, &y, &format!("{name}: csr apply_par @{threads}t"));

            let mut yd = vec![0.0; n];
            dense.apply_par(&pool, &x, &mut yd);
            assert_bits_eq(
                &yd_ref,
                &yd,
                &format!("{name}: dense apply_par @{threads}t"),
            );
        }
    }
}

#[test]
fn alpha_operator_apply_bit_identical_across_pools() {
    for (name, net, densities) in both_networks(13) {
        let mut graph = RoadGraph::from_network(&net).unwrap();
        graph.set_features(densities).unwrap();
        let affinity =
            gaussian_affinity_par(graph.adjacency(), graph.features(), &ThreadPool::serial())
                .unwrap();
        let n = affinity.dim();
        let d = affinity.degrees();
        let s: f64 = d.iter().sum();
        let op = RankOneUpdate::new(&affinity, d.clone(), 1.0 / s, -1.0).unwrap();
        let x: Vec<f64> = (0..n).map(hash01).collect();

        let mut y_ref = vec![0.0; n];
        op.apply_par(&ThreadPool::serial(), &x, &mut y_ref);

        for &threads in &POOL_SIZES {
            let pool = ThreadPool::new(threads);
            let mut y = vec![0.0; n];
            op.apply_par(&pool, &x, &mut y);
            assert_bits_eq(&y_ref, &y, &format!("{name}: alpha apply @{threads}t"));
        }
    }
}

#[test]
fn gaussian_affinity_bit_identical_across_pools() {
    for (name, net, densities) in both_networks(17) {
        let mut graph = RoadGraph::from_network(&net).unwrap();
        graph.set_features(densities).unwrap();
        let reference =
            gaussian_affinity_par(graph.adjacency(), graph.features(), &ThreadPool::serial())
                .unwrap();
        let ref_img: Vec<f64> = reference.iter().map(|(_, _, w)| w).collect();

        for &threads in &POOL_SIZES {
            let pool = ThreadPool::new(threads);
            let a = gaussian_affinity_par(graph.adjacency(), graph.features(), &pool).unwrap();
            assert_eq!(a.nnz(), reference.nnz(), "{name}: affinity nnz @{threads}t");
            let img: Vec<f64> = a.iter().map(|(_, _, w)| w).collect();
            assert_bits_eq(&ref_img, &img, &format!("{name}: affinity @{threads}t"));
        }
    }
}

#[test]
fn kmeans_bit_identical_across_pools() {
    for (name, net, densities) in both_networks(19) {
        let n = densities.len();
        let d = 4;
        let mut points = DenseMatrix::zeros(n, d);
        for (i, density) in densities.iter().enumerate() {
            for j in 0..d {
                points.set(i, j, hash01(i * d + j) + density);
            }
        }
        let base = KMeansConfig {
            restarts: 2,
            seed: 7,
            pool: ThreadPool::serial(),
            ..KMeansConfig::default()
        };
        let reference = kmeans(&points, 5, &base).unwrap();
        let _ = net; // networks only provide realistic density vectors here

        for &threads in &POOL_SIZES {
            let cfg = KMeansConfig {
                pool: ThreadPool::new(threads),
                ..base.clone()
            };
            let km = kmeans(&points, 5, &cfg).unwrap();
            assert_eq!(
                reference.assignments, km.assignments,
                "{name}: kmeans assignments @{threads}t"
            );
            assert!(
                reference.inertia.to_bits() == km.inertia.to_bits(),
                "{name}: kmeans inertia @{threads}t"
            );
            assert_bits_eq(
                reference.centers.as_slice(),
                km.centers.as_slice(),
                &format!("{name}: kmeans centers @{threads}t"),
            );
        }
    }
}

#[test]
fn superlinks_bit_identical_across_pools() {
    for (name, net, densities) in both_networks(23) {
        let mut graph = RoadGraph::from_network(&net).unwrap();
        graph.set_features(densities).unwrap();
        let n = graph.node_count();
        let n_super = 32.min(n);
        let member_of: Vec<usize> = (0..n).map(|i| i * n_super / n).collect();
        let super_features: Vec<f64> = (0..n_super).map(|s| 0.1 + 0.8 * hash01(s)).collect();

        let reference = roadpart::build_superlinks_par(
            graph.adjacency(),
            &member_of,
            &super_features,
            &ThreadPool::serial(),
        )
        .unwrap();
        let ref_img: Vec<f64> = reference.iter().map(|(_, _, w)| w).collect();

        for &threads in &POOL_SIZES {
            let pool = ThreadPool::new(threads);
            let w = roadpart::build_superlinks_par(
                graph.adjacency(),
                &member_of,
                &super_features,
                &pool,
            )
            .unwrap();
            assert_eq!(
                w.nnz(),
                reference.nnz(),
                "{name}: superlink nnz @{threads}t"
            );
            let img: Vec<f64> = w.iter().map(|(_, _, w)| w).collect();
            assert_bits_eq(&ref_img, &img, &format!("{name}: superlinks @{threads}t"));
        }
    }
}

/// End-to-end: the full pipeline (both the direct AG scheme and the
/// supergraph ASG scheme) produces identical labels serially and at 4
/// threads.
#[test]
fn pipeline_labels_identical_serial_vs_parallel() {
    for (name, net, densities) in both_networks(29) {
        for scheme in [Scheme::AG, Scheme::ASG] {
            let mk = |threads: usize| {
                PipelineConfig {
                    scheme,
                    k: 5,
                    framework: FrameworkConfig::default(),
                }
                .with_seed(31)
                .with_threads(threads)
            };
            let serial = partition_network(&net, &densities, &mk(1)).unwrap();
            let parallel = partition_network(&net, &densities, &mk(4)).unwrap();
            assert_eq!(
                serial.partition.labels(),
                parallel.partition.labels(),
                "{name}/{scheme:?}: labels differ between serial and 4-thread runs"
            );
            assert_eq!(
                serial.partition.k(),
                parallel.partition.k(),
                "{name}/{scheme:?}"
            );
        }
    }
}

/// `ROADPART_THREADS` only selects the default pool; explicit pools always
/// win, and an explicit serial pool matches an explicit 8-thread pool.
#[test]
fn explicit_pool_overrides_are_consistent() {
    let (net, densities) = grid_network(37);
    let serial = partition_network(
        &net,
        &densities,
        &PipelineConfig::asg(4).with_seed(3).with_threads(1),
    )
    .unwrap();
    let wide = partition_network(
        &net,
        &densities,
        &PipelineConfig::asg(4).with_seed(3).with_threads(8),
    )
    .unwrap();
    assert_eq!(serial.partition.labels(), wide.partition.labels());
}
