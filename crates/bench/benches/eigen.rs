//! Eigensolver microbenchmarks: dense tred2/tql2 vs matrix-free Lanczos on
//! road-graph-shaped operators.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use roadpart_linalg::{
    eigh, sym_eigs_recovering, CsrMatrix, EigenConfig, FallbackConfig, RankOneUpdate, RecoveryLog,
    Which,
};

/// Ring + random chords: sparse symmetric adjacency of dimension n.
fn test_graph(n: usize) -> CsrMatrix {
    let mut edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
    for i in 0..n / 2 {
        edges.push((i, (i * 7 + 3) % n, 0.5));
    }
    CsrMatrix::from_undirected_edges(n, &edges).unwrap()
}

fn bench_dense_eigh(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_eigh");
    for n in [32usize, 96, 192] {
        let a = test_graph(n).to_dense();
        group.bench_with_input(BenchmarkId::from_parameter(n), &a, |b, a| {
            b.iter(|| eigh(a).unwrap())
        });
    }
    group.finish();
}

fn bench_lanczos(c: &mut Criterion) {
    let mut group = c.benchmark_group("lanczos_smallest5");
    for n in [512usize, 2048] {
        let a = test_graph(n);
        let d = a.degrees();
        let s: f64 = d.iter().sum();
        let cfg = EigenConfig {
            dense_cutoff: 0,
            ..EigenConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let op = RankOneUpdate::new(&a, d.clone(), 1.0 / s, -1.0).unwrap();
                let mut log = RecoveryLog::new();
                let fallback = FallbackConfig::default();
                sym_eigs_recovering(&op, 5, Which::Smallest, &cfg, &fallback, &mut log).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dense_eigh, bench_lanczos);
criterion_main!(benches);
