//! alpha-Cut vs normalized cut on identical weighted graphs, at supergraph
//! sizes representative of the paper's M1 (~2k supernodes) and below.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use roadpart_cut::{spectral_partition_recovering, CutKind, SpectralConfig};
use roadpart_linalg::{CsrMatrix, RecoveryLog};

/// Planted 8-community weighted graph of dimension `n` — the shape of a
/// mined supergraph (community-structured, sparse, unit-scale weights).
fn planted_supergraph(n: usize) -> CsrMatrix {
    let communities = 8;
    let size = n / communities;
    let mut edges = Vec::new();
    for c in 0..communities {
        let base = c * size;
        for i in 0..size {
            // Ring within the community plus two chords per node.
            edges.push((base + i, base + (i + 1) % size, 0.9));
            edges.push((base + i, base + (i * 7 + 3) % size, 0.7));
        }
        // Weak bridge to the next community.
        edges.push((base, ((c + 1) % communities) * size, 0.05));
    }
    CsrMatrix::from_undirected_edges(n, &edges).unwrap()
}

fn bench_cuts(c: &mut Criterion) {
    let mut group = c.benchmark_group("supergraph_cuts_k8");
    group.sample_size(10);
    let cfg = SpectralConfig::default().with_seed(1);
    for n in [256usize, 1024, 2048] {
        let adj = planted_supergraph(n);
        for (name, kind) in [("alpha", CutKind::Alpha), ("ncut", CutKind::Normalized)] {
            group.bench_with_input(BenchmarkId::new(name, n), &adj, |b, a| {
                b.iter(|| {
                    spectral_partition_recovering(a, 8, kind, &cfg, &mut RecoveryLog::new())
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cuts);
criterion_main!(benches);
