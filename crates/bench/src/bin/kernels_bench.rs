//! BENCH_kernels — serial vs multi-thread wall time for every deterministic
//! parallel kernel, plus an end-to-end pipeline differential run.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin kernels_bench -- --scale 0.15 --runs 5
//! ```
//!
//! Every kernel in `roadpart_linalg::par` uses fixed chunk boundaries with
//! an ordered merge, so the outputs at each pool size must be *bit
//! identical* — the bench asserts this (`diffs` columns) while timing the
//! kernels at 1/2/4/N threads on a jittered-grid and a spider-web synthetic
//! network. The closing section runs the full ASG pipeline serially and at
//! 4 threads and counts label differences (must be zero).
//!
//! Speedups depend on the host: on a single-core machine all pool sizes
//! degenerate to roughly serial time (the chunks still exist, there is just
//! nobody to run them concurrently); `host_threads` records what was
//! available so the JSON is interpretable either way.
//!
//! A **scalar-vs-lanes** section benchmarks the single-thread lane-unrolled
//! kernels (`roadpart_linalg::vecops` and friends) against the pre-PR scalar
//! implementations replicated locally, reporting per-kernel effective
//! bandwidth (GB/s from a bytes-moved model) and asserting that every lane
//! kernel matches its *canonical scalar reduction model* bit for bit — the
//! `simd_all_bit_identical` flag the CI `kernels-simd` gate greps.

use roadpart::prelude::*;
use roadpart_bench::{median, write_json, ExpArgs};
use roadpart_cluster::{kmeans, KMeansConfig};
use roadpart_cut::gaussian_affinity_par;
use roadpart_linalg::par::ThreadPool;
use roadpart_linalg::vecops::{self, LANES};
use roadpart_linalg::{CsrMatrix, DenseMatrix, RankOneUpdate, SymOp};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

/// Number of supernodes for the synthetic superlink cover.
const N_SUPER: usize = 48;
/// Embedding dimensionality for the k-means kernel.
const KM_DIM: usize = 4;
/// Clusters for the k-means kernel.
const KM_K: usize = 6;

/// Deterministic pseudo-random unit-interval value (no RNG state needed).
fn hash01(i: usize) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(31)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Grid (scaled M1) and spider-web synthetic networks with paper-style
/// congestion densities. Both are larger than one `DEFAULT_CHUNK`, so the
/// chunked kernels genuinely split.
fn networks(args: &ExpArgs) -> roadpart::Result<Vec<(&'static str, RoadNetwork, Vec<f64>)>> {
    use rand::SeedableRng;
    let grid = roadpart_net::UrbanConfig::m1()
        .scaled(args.scale)
        .generate(args.seed)?;
    let spider = {
        let cfg = roadpart_net::synth::spider::SpiderConfig {
            rings: 18,
            spokes: 40,
            ring_spacing_m: 150.0,
            jitter_rad: 0.05,
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.seed ^ 0x51de);
        let plan = roadpart_net::synth::spider::spider_plan(&cfg, &mut rng);
        roadpart_net::synth::realize(&plan, 0.2, &mut rng)?
    };
    let mut out = Vec::new();
    for (name, net) in [("grid", grid), ("spider", spider)] {
        let field = CongestionField::urban_default(&net, args.seed);
        let densities = net_densities(&field, &net);
        out.push((name, net, densities));
    }
    Ok(out)
}

fn net_densities(field: &CongestionField, net: &RoadNetwork) -> Vec<f64> {
    field.densities(net, 0.4, &TemporalProfile::morning())
}

/// Times `f` over `runs` samples and returns the median per-call
/// milliseconds. Sub-millisecond kernels are repeated inside each sample
/// until the sample lasts ≥ ~2 ms (calibrated from one warmup call), so
/// scheduler jitter on a busy one-core host does not drown the kernel
/// being measured.
fn time_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    let est = t0.elapsed().as_secs_f64();
    let reps = ((2e-3 / est.max(1e-9)).ceil() as usize).clamp(1, 8192);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e3 / reps as f64);
    }
    median(&mut samples)
}

/// Exact element count by which two float slices differ (bitwise).
fn bit_diffs(a: &[f64], b: &[f64]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count()
}

struct KernelRow {
    kernel: &'static str,
    ms: Vec<f64>,
    diffs: Vec<usize>,
}

// --- Scalar-vs-lanes differential arm -----------------------------------
//
// The scalar kernels below replicate the pre-PR single-accumulator
// implementations (the historical baseline being benchmarked away), and the
// `*_canonical` models replicate the blessed canonical lane order in plain
// scalar code. The lane kernels must match the canonical models bit for
// bit; the scalar baselines are the timing reference.

/// Pre-PR dot: one accumulator, left-to-right.
fn dot_scalar_seq(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Plain-scalar replication of the canonical lane order: strided lane
/// accumulators (`lane = index mod LANES`) folded by the fixed tree. Any
/// lane-unrolled dot must equal this bit for bit at every length.
fn dot_canonical_model(a: &[f64], b: &[f64]) -> f64 {
    if a.len() < LANES {
        return dot_scalar_seq(a, b);
    }
    let mut acc = [0.0f64; LANES];
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        acc[i % LANES] += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Pre-PR axpy: plain elementwise loop (elementwise kernels are
/// schedule-independent, so this is also the canonical model).
fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Pre-PR CSR matvec: per-row single-accumulator gather fold.
fn spmv_scalar_seq(m: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    for (i, yi) in y.iter_mut().enumerate() {
        let (cols, vals) = m.row(i);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c];
        }
        *yi = acc;
    }
}

/// Canonical per-row reduction model for CSR matvec: short rows fold
/// left-to-right, long rows use the strided lane model.
fn spmv_canonical(m: &CsrMatrix, x: &[f64], y: &mut [f64]) {
    for (i, yi) in y.iter_mut().enumerate() {
        let (cols, vals) = m.row(i);
        let gathered: Vec<f64> = cols.iter().map(|&c| x[c]).collect();
        *yi = dot_canonical_model(vals, &gathered);
    }
}

/// The historical Gaussian-affinity construction: per-link triplets fed
/// through the full `from_triplets` bucket-sort/merge rebuild, with the
/// same robust-MAD bandwidth `roadpart_cut` uses. `gaussian_affinity_par`
/// rewrites the adjacency's value array in place (`map_entries_par`), so
/// the two must agree entry-for-entry, bit-for-bit.
fn legacy_affinity(adj: &CsrMatrix, features: &[f64]) -> CsrMatrix {
    let sigma = robust_sigma_model(features);
    let var = sigma * sigma;
    const MIN_WEIGHT: f64 = 1e-12;
    let n = adj.dim();
    let mut triplets = Vec::new();
    for i in 0..n {
        let (cols, _) = adj.row(i);
        for &j in cols {
            let w = if var > 0.0 {
                let d = features[i] - features[j];
                (-(d * d) / (2.0 * var)).exp().max(MIN_WEIGHT)
            } else {
                1.0
            };
            triplets.push((i, j, w));
        }
    }
    CsrMatrix::from_triplets(n, &triplets).expect("finite weights")
}

/// `1.4826 x MAD` with std-dev fallback — mirrors the bandwidth estimator
/// in `roadpart_cut::affinity` (the differential assert below catches any
/// drift between the two).
fn robust_sigma_model(features: &[f64]) -> f64 {
    if features.is_empty() {
        return 0.0;
    }
    fn median_of_sorted(xs: &[f64]) -> f64 {
        let m = xs.len() / 2;
        if xs.len() % 2 == 1 {
            xs[m]
        } else {
            0.5 * (xs[m - 1] + xs[m])
        }
    }
    let mut scratch = features.to_vec();
    roadpart_linalg::ord::sort_f64(&mut scratch);
    let med = median_of_sorted(&scratch);
    scratch.iter_mut().for_each(|v| *v = (*v - med).abs());
    roadpart_linalg::ord::sort_f64(&mut scratch);
    let mad = median_of_sorted(&scratch);
    if mad > 0.0 {
        1.4826 * mad
    } else {
        let mean = features.iter().sum::<f64>() / features.len() as f64;
        (features
            .iter()
            .map(|f| (f - mean) * (f - mean))
            .sum::<f64>()
            / features.len() as f64)
            .sqrt()
    }
}

/// Pre-PR squared distance (left-to-right) — mirrors the cluster crate's
/// pinned accumulation order.
fn sq_dist_model(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Blocked four-center distance — mirrors the cluster crate's `sq_dist4`
/// (per-lane left-to-right accumulators, so each lane is bitwise one
/// `sq_dist_model` call).
fn sq_dist4_model(p: &[f64], c: [&[f64]; 4]) -> [f64; 4] {
    let mut acc = [0.0f64; 4];
    for (j, &x) in p.iter().enumerate() {
        for l in 0..4 {
            let d = x - c[l][j];
            acc[l] += d * d;
        }
    }
    acc
}

/// One exhaustive k-means assignment pass (`points` against `centers`),
/// center-at-a-time — the pre-PR scan. Returns assignments (as floats, for
/// the shared bit-diff image) plus total inertia.
fn assign_pass_scalar(points: &DenseMatrix, centers: &DenseMatrix) -> Vec<f64> {
    let k = centers.rows();
    let mut img = Vec::with_capacity(points.rows() + 1);
    let mut inertia = 0.0;
    for i in 0..points.rows() {
        let p = points.row(i);
        let (mut best_c, mut best_d) = (0usize, f64::INFINITY);
        for c in 0..k {
            let dist = sq_dist_model(p, centers.row(c));
            if dist < best_d {
                best_d = dist;
                best_c = c;
            }
        }
        inertia += best_d;
        img.push(best_c as f64);
    }
    img.push(inertia);
    img
}

/// The same pass with the blocked four-center scan (ascending-lane
/// comparisons), as the optimized k-means assignment now runs it.
fn assign_pass_blocked(points: &DenseMatrix, centers: &DenseMatrix) -> Vec<f64> {
    let k = centers.rows();
    let mut img = Vec::with_capacity(points.rows() + 1);
    let mut inertia = 0.0;
    for i in 0..points.rows() {
        let p = points.row(i);
        let (mut best_c, mut best_d) = (0usize, f64::INFINITY);
        let mut c = 0usize;
        while c + 4 <= k {
            let dists = sq_dist4_model(
                p,
                [
                    centers.row(c),
                    centers.row(c + 1),
                    centers.row(c + 2),
                    centers.row(c + 3),
                ],
            );
            for (l, &dist) in dists.iter().enumerate() {
                if dist < best_d {
                    best_d = dist;
                    best_c = c + l;
                }
            }
            c += 4;
        }
        while c < k {
            let dist = sq_dist_model(p, centers.row(c));
            if dist < best_d {
                best_d = dist;
                best_c = c;
            }
            c += 1;
        }
        inertia += best_d;
        img.push(best_c as f64);
    }
    img.push(inertia);
    img
}

/// One scalar-vs-lanes differential row: pre-PR scalar time, lane-kernel
/// time, effective bandwidth of the lane kernel under a bytes-moved model,
/// and whether the lane kernel matched the canonical reduction model bit
/// for bit.
struct SimdRow {
    kernel: &'static str,
    scalar_ms: f64,
    lanes_ms: f64,
    bytes: f64,
    bit_identical: bool,
}

impl SimdRow {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.lanes_ms.max(1e-9)
    }

    fn gbps(&self) -> f64 {
        self.bytes / (self.lanes_ms.max(1e-9) / 1e3) / 1e9
    }

    fn to_json(&self) -> serde_json::Value {
        json!({
            "kernel": self.kernel,
            "scalar_ms": self.scalar_ms,
            "lanes_ms": self.lanes_ms,
            "speedup_scalar_vs_lanes": self.speedup(),
            "gbps": self.gbps(),
            "bytes_moved": self.bytes,
            "bit_identical": self.bit_identical,
        })
    }

    fn print(&self) {
        println!(
            "{:<16}{:>10.3}{:>10.3}   {:>5.2}x {:>7.2} GB/s   bit-identical: {}",
            self.kernel,
            self.scalar_ms,
            self.lanes_ms,
            self.speedup(),
            self.gbps(),
            self.bit_identical
        );
    }
}

/// Scalar-vs-lanes rows on dense vectors at two sizes: streaming
/// (`1 << 20` elements, well past cache, so GB/s means DRAM bandwidth and
/// the lane advantage compresses toward the memory wall) and
/// solver-resident (4096 elements — the length of the reorthogonalization
/// dots the eigensolver actually issues, L2-resident, where the lane ILP
/// advantage is fully visible).
fn simd_vector_rows(runs: usize) -> Vec<SimdRow> {
    const NVEC: usize = 1 << 20;
    const NSOLVER: usize = 4096;
    let a: Vec<f64> = (0..NVEC).map(hash01).collect();
    let b: Vec<f64> = (0..NVEC).map(|i| hash01(i ^ 0x00ab_cdef)).collect();
    let mut rows = Vec::new();

    for (label, n) in [("dot", NVEC), ("dot_4k", NSOLVER)] {
        let (a, b) = (&a[..n], &b[..n]);
        let scalar_ms = time_ms(runs, || {
            black_box(dot_scalar_seq(black_box(a), black_box(b)));
        });
        let lanes_ms = time_ms(runs, || {
            black_box(vecops::dot(black_box(a), black_box(b)));
        });
        rows.push(SimdRow {
            kernel: label,
            scalar_ms,
            lanes_ms,
            bytes: 16.0 * n as f64,
            bit_identical: vecops::dot(a, b).to_bits() == dot_canonical_model(a, b).to_bits(),
        });
    }

    for (label, n) in [("axpy", NVEC), ("axpy_4k", NSOLVER)] {
        let a = &a[..n];
        let mut y_s = b[..n].to_vec();
        let mut y_l = b[..n].to_vec();
        axpy_scalar(0.37, a, &mut y_s);
        vecops::axpy(0.37, a, &mut y_l);
        let identical = bit_diffs(&y_s, &y_l) == 0;
        let scalar_ms = time_ms(runs, || {
            axpy_scalar(0.37, a, black_box(&mut y_s));
        });
        let lanes_ms = time_ms(runs, || {
            vecops::axpy(0.37, a, black_box(&mut y_l));
        });
        rows.push(SimdRow {
            kernel: label,
            scalar_ms,
            lanes_ms,
            bytes: 24.0 * n as f64,
            bit_identical: identical,
        });
    }

    rows
}

/// Scalar-vs-lanes rows on one network's affinity matrix: CSR matvec, the
/// Gaussian affinity construction, and the fused k-means assignment scan.
fn simd_network_rows(
    adj: &CsrMatrix,
    affinity: &CsrMatrix,
    features: &[f64],
    x: &[f64],
    points: &DenseMatrix,
    runs: usize,
) -> Vec<SimdRow> {
    let n = affinity.dim();
    let nnz = affinity.nnz() as f64;
    let spmv_bytes = 24.0 * nnz + 8.0 * n as f64 + 8.0 * (n + 1) as f64;
    let mut rows = Vec::new();

    // CSR matvec: pre-PR per-row fold vs the lane-order row kernel.
    let mut y_s = vec![0.0; n];
    let mut y_l = vec![0.0; n];
    let mut y_c = vec![0.0; n];
    spmv_scalar_seq(affinity, x, &mut y_s);
    affinity.matvec(x, &mut y_l).expect("dims fixed");
    spmv_canonical(affinity, x, &mut y_c);
    let identical = bit_diffs(&y_l, &y_c) == 0;
    let scalar_ms = time_ms(runs, || spmv_scalar_seq(affinity, x, black_box(&mut y_s)));
    let lanes_ms = time_ms(runs, || {
        affinity.matvec(x, black_box(&mut y_l)).expect("dims fixed");
    });
    rows.push(SimdRow {
        kernel: "spmv",
        scalar_ms,
        lanes_ms,
        bytes: spmv_bytes,
        bit_identical: identical,
    });

    // Affinity construction: triplet rebuild vs in-place value map.
    let legacy = legacy_affinity(adj, features);
    let serial = ThreadPool::serial();
    let current = gaussian_affinity_par(adj, features, &serial).expect("valid graph");
    let identical = legacy.dim() == current.dim()
        && legacy.nnz() == current.nnz()
        && legacy
            .iter()
            .zip(current.iter())
            .all(|((ri, ci, wi), (rj, cj, wj))| {
                (ri, ci) == (rj, cj) && wi.to_bits() == wj.to_bits()
            });
    let scalar_ms = time_ms(runs, || {
        black_box(legacy_affinity(adj, features));
    });
    let lanes_ms = time_ms(runs, || {
        black_box(gaussian_affinity_par(adj, features, &serial).expect("valid graph"));
    });
    rows.push(SimdRow {
        kernel: "affinity",
        scalar_ms,
        lanes_ms,
        bytes: 32.0 * nnz,
        bit_identical: identical,
    });

    // Fused k-means assignment scan: center-at-a-time vs blocked centers.
    let centers = DenseMatrix::from_fn(KM_K, KM_DIM, |i, j| hash01(i * KM_DIM + j + 7919));
    let img_s = assign_pass_scalar(points, &centers);
    let img_b = assign_pass_blocked(points, &centers);
    let identical = bit_diffs(&img_s, &img_b) == 0;
    let scalar_ms = time_ms(runs, || {
        black_box(assign_pass_scalar(points, &centers));
    });
    let lanes_ms = time_ms(runs, || {
        black_box(assign_pass_blocked(points, &centers));
    });
    rows.push(SimdRow {
        kernel: "kmeans_assign",
        scalar_ms,
        lanes_ms,
        bytes: 8.0 * (points.rows() * KM_DIM * (KM_K + 1)) as f64,
        bit_identical: identical,
    });

    rows
}

/// Benchmarks one kernel at every pool size against the serial reference.
///
/// `run` computes the kernel at the given pool and returns a flat float
/// image of its output (for the bitwise comparison).
fn bench_kernel<F>(kernel: &'static str, pools: &[ThreadPool], runs: usize, mut run: F) -> KernelRow
where
    F: FnMut(&ThreadPool) -> Vec<f64>,
{
    let reference = run(&pools[0]);
    let mut ms = Vec::with_capacity(pools.len());
    let mut diffs = Vec::with_capacity(pools.len());
    for pool in pools {
        let out = run(pool);
        diffs.push(bit_diffs(&reference, &out));
        ms.push(time_ms(runs, || {
            let _ = run(pool);
        }));
    }
    KernelRow { kernel, ms, diffs }
}

fn main() -> roadpart::Result<()> {
    let args = ExpArgs::parse(0.15, 5, 2);
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let thread_counts: Vec<usize> = {
        let mut t = vec![1, 2, 4];
        if !t.contains(&host_threads) {
            t.push(host_threads);
        }
        t
    };
    let pools: Vec<ThreadPool> = thread_counts.iter().map(|&t| ThreadPool::new(t)).collect();
    println!(
        "BENCH_kernels: pool sizes {thread_counts:?} (host has {host_threads} threads), \
         median of {} runs, scale {}\n",
        args.runs, args.scale
    );

    let mut net_records = Vec::new();
    let mut all_bit_identical = true;
    let mut simd_all_bit_identical = true;
    let mut largest: Option<(usize, f64)> = None; // (segments, 4-thread pipeline speedup)
    let mut pipeline_label_diffs_total = 0usize;

    println!("scalar vs lanes (single thread), {LANES}-lane canonical order:");
    println!("{:<16}{:>10}{:>10}", "kernel", "scalar ms", "lanes ms");
    let vector_rows = simd_vector_rows(args.runs);
    for row in &vector_rows {
        simd_all_bit_identical &= row.bit_identical;
        row.print();
    }
    println!();

    for (name, net, densities) in networks(&args)? {
        let mut graph = RoadGraph::from_network(&net)?;
        graph.set_features(densities.clone())?;
        let n = graph.node_count();
        let adj = graph.adjacency();
        let affinity = gaussian_affinity_par(adj, graph.features(), &pools[0])?;
        let x: Vec<f64> = (0..n).map(hash01).collect();

        // α-Cut operator M = d dᵀ/(1ᵀD1) − A (embedding.rs construction).
        let d = affinity.degrees();
        let s: f64 = d.iter().sum();
        let scale = if s > 0.0 { 1.0 / s } else { 0.0 };

        // Synthetic supernode cover: contiguous ranges of segments.
        let member_of: Vec<usize> = (0..n).map(|i| i * N_SUPER.min(n) / n.max(1)).collect();
        let super_features: Vec<f64> = (0..N_SUPER.min(n)).map(|s| 0.1 + 0.8 * hash01(s)).collect();

        // Embedding-like points for the k-means kernel.
        let mut points = DenseMatrix::zeros(n, KM_DIM);
        for (i, density) in densities.iter().enumerate() {
            for j in 0..KM_DIM {
                points.set(i, j, hash01(i * KM_DIM + j) + density);
            }
        }

        println!(
            "{name}: {n} segments, {} affinity non-zeros",
            affinity.nnz()
        );
        let header: String = thread_counts
            .iter()
            .map(|t| format!("{:>10}", format!("{t}t ms")))
            .collect();
        println!("{:<12}{header}   diffs", "kernel");

        let rows = vec![
            bench_kernel("spmv", &pools, args.runs, |pool| {
                let mut y = vec![0.0; n];
                affinity.apply_par(pool, &x, &mut y);
                y
            }),
            bench_kernel("alpha_apply", &pools, args.runs, |pool| {
                let op = RankOneUpdate::new(&affinity, d.clone(), scale, -1.0).expect("dims fixed");
                let mut y = vec![0.0; n];
                op.apply_par(pool, &x, &mut y);
                y
            }),
            bench_kernel("affinity", &pools, args.runs, |pool| {
                let a = gaussian_affinity_par(adj, graph.features(), pool).expect("valid graph");
                a.iter().map(|(_, _, w)| w).collect()
            }),
            bench_kernel("kmeans", &pools, args.runs, |pool| {
                let cfg = KMeansConfig {
                    restarts: 2,
                    seed: args.seed,
                    pool: *pool,
                    ..KMeansConfig::default()
                };
                let km = kmeans(&points, KM_K, &cfg).expect("valid points");
                let mut img: Vec<f64> = km.assignments.iter().map(|&a| a as f64).collect();
                img.push(km.inertia);
                img
            }),
            bench_kernel("superlinks", &pools, args.runs, |pool| {
                let w = roadpart::build_superlinks_par(adj, &member_of, &super_features, pool)
                    .expect("valid cover");
                w.iter().map(|(_, _, v)| v).collect()
            }),
        ];
        let mut kernel_records = Vec::new();
        for row in &rows {
            let identical = row.diffs.iter().all(|&d| d == 0);
            all_bit_identical &= identical;
            let cells: String = row.ms.iter().map(|m| format!("{m:>10.3}")).collect();
            println!("{:<12}{cells}   {:?}", row.kernel, row.diffs);
            kernel_records.push(json!({
                "kernel": row.kernel,
                "threads": thread_counts,
                "ms": row.ms,
                "speedup_vs_serial": row.ms.iter().map(|&m| row.ms[0] / m.max(1e-9)).collect::<Vec<f64>>(),
                "bit_diffs_vs_serial": row.diffs,
            }));
        }

        // Scalar-vs-lanes differential on this network's matrices.
        let simd_rows = simd_network_rows(adj, &affinity, graph.features(), &x, &points, args.runs);
        for row in &simd_rows {
            simd_all_bit_identical &= row.bit_identical;
            row.print();
        }
        let simd_records: Vec<serde_json::Value> = simd_rows.iter().map(|r| r.to_json()).collect();

        // End-to-end pipeline: serial vs 4 threads, label-for-label.
        let k = 6;
        let serial_cfg = PipelineConfig::asg(k).with_seed(args.seed).with_threads(1);
        let par_cfg = PipelineConfig::asg(k).with_seed(args.seed).with_threads(4);
        let serial_ms = time_ms(args.runs.min(3), || {
            let _ = partition_network(&net, &densities, &serial_cfg);
        });
        let par_ms = time_ms(args.runs.min(3), || {
            let _ = partition_network(&net, &densities, &par_cfg);
        });
        let serial_run = partition_network(&net, &densities, &serial_cfg)?;
        let par_run = partition_network(&net, &densities, &par_cfg)?;
        let label_diffs = serial_run
            .partition
            .labels()
            .iter()
            .zip(par_run.partition.labels())
            .filter(|(a, b)| a != b)
            .count();
        pipeline_label_diffs_total += label_diffs;
        let speedup = serial_ms / par_ms.max(1e-9);
        println!(
            "{:<12}serial {serial_ms:.1} ms, 4 threads {par_ms:.1} ms   label diffs: \
             {label_diffs} (speedup {speedup:.2}x)\n",
            "pipeline",
        );
        if largest.map_or(true, |(seg, _)| n > seg) {
            largest = Some((n, speedup));
        }

        net_records.push(json!({
            "network": name,
            "segments": n,
            "affinity_nnz": affinity.nnz(),
            "kernels": kernel_records,
            "simd": simd_records,
            "pipeline": {
                "k": k,
                "serial_ms": serial_ms,
                "par4_ms": par_ms,
                "speedup_4t": speedup,
                "label_diffs": label_diffs,
            },
        }));
    }

    let (largest_segments, largest_speedup) = largest.unwrap_or((0, 1.0));
    println!(
        "bit-identical across pool sizes: {all_bit_identical}; lanes bit-identical to canonical \
         models: {simd_all_bit_identical}; pipeline label diffs: {pipeline_label_diffs_total}; \
         largest network ({largest_segments} segments) 4-thread speedup: {largest_speedup:.2}x"
    );

    write_json(
        "BENCH_kernels",
        &json!({
            "scale": args.scale,
            "seed": args.seed,
            "runs": args.runs,
            "host_threads": host_threads,
            "thread_counts": thread_counts,
            "lanes": LANES,
            "all_bit_identical": all_bit_identical,
            "simd_all_bit_identical": simd_all_bit_identical,
            "pipeline_label_diffs": pipeline_label_diffs_total,
            "largest_segments": largest_segments,
            "largest_speedup_4t": largest_speedup,
            "simd_vectors": vector_rows.iter().map(|r| r.to_json()).collect::<Vec<_>>(),
            "networks": net_records,
        }),
    );
    Ok(())
}
