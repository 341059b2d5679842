//! BENCH_stream — cold vs. warm full-repartition wall time across epochs
//! of a replayed D1 density trace.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin stream_bench -- --scale 2.0 --runs 7
//! ```
//!
//! Both arms solve the *same* sequence of spectral partitioning problems
//! (one per epoch, densities drifting along the microsim trace). The cold
//! arm starts every solve from scratch; the warm arm chains each epoch's
//! [`SpectralArtifacts`] (eigenvectors + k-means centroids) into the next
//! solve, the way the online engine does. `--runs` repeats the whole replay
//! and medians the per-epoch times. The dense-solver cutoff is lowered so
//! the iterative Lanczos path (where warm starts pay off) is exercised even
//! at small scales.

use roadpart_bench::{median, write_json, ExpArgs};
use roadpart_cut::{
    gaussian_affinity_par, spectral_partition_warm_ws, CutKind, SpectralArtifacts, SpectralConfig,
};
use roadpart_linalg::{CsrMatrix, RecoveryLog, ThreadPool, Workspace};
use roadpart_net::RoadGraph;
use serde_json::json;
use std::time::Instant;

const K: usize = 4;
const EPOCHS: usize = 6;

fn epoch_affinities(args: &ExpArgs) -> roadpart::Result<(usize, Vec<CsrMatrix>)> {
    let dataset = roadpart::datasets::d1(args.scale, args.seed)?;
    let graph = RoadGraph::from_network(&dataset.network)?;
    let steps = dataset.history.len();
    // EPOCHS + 1 evenly spaced snapshots: the first initializes the warm
    // chain, the rest are the timed epochs.
    let picks: Vec<usize> = (0..=EPOCHS)
        .map(|e| (e * (steps - 1)) / EPOCHS.max(1))
        .collect();
    let mut affinities = Vec::with_capacity(picks.len());
    for t in picks {
        affinities.push(gaussian_affinity_par(
            graph.adjacency(),
            dataset.history.at(t),
            &ThreadPool::serial(),
        )?);
    }
    Ok((graph.node_count(), affinities))
}

fn spectral_cfg(seed: u64) -> SpectralConfig {
    let mut cfg = SpectralConfig::default().with_seed(seed);
    // Force the iterative eigensolver: the default cutoff (512) would solve
    // scaled-down D1 densely, and dense solves cannot be warm-started.
    cfg.eigen.dense_cutoff = 64;
    cfg
}

/// One full replay; returns per-epoch solve milliseconds.
fn replay(affinities: &[CsrMatrix], seed: u64, warm: bool) -> roadpart::Result<Vec<f64>> {
    let cfg = spectral_cfg(seed);
    let mut log = RecoveryLog::new();
    // Every solve gets a fresh workspace, so the arms differ only in the
    // warm-start artifacts.
    let mut solve = |aff: &CsrMatrix, prev: Option<&SpectralArtifacts>| {
        let mut ws = Workspace::new();
        spectral_partition_warm_ws(aff, K, CutKind::Alpha, &cfg, prev, &mut log, &mut ws)
    };
    // Untimed initial solve seeds the warm chain (the engine's
    // initialization epoch).
    let (_, mut artifacts) = solve(&affinities[0], None)?;
    let mut times = Vec::with_capacity(affinities.len() - 1);
    for aff in &affinities[1..] {
        let prev = if warm { Some(&artifacts) } else { None };
        let t0 = Instant::now();
        let (_, next) = solve(aff, prev)?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        artifacts = if warm {
            next
        } else {
            // Keep the chain realistic for the warm arm only; the cold arm
            // carries nothing forward.
            SpectralArtifacts::empty()
        };
    }
    Ok(times)
}

fn main() -> roadpart::Result<()> {
    let args = ExpArgs::parse(2.0, 7, 2);
    let (segments, affinities) = epoch_affinities(&args)?;
    println!(
        "BENCH_stream: D1 at scale {} ({segments} segments), k = {K}, {EPOCHS} epochs, \
         median of {} replays\n",
        args.scale, args.runs
    );

    // Interleave cold and warm replays so drift in machine load hits both
    // arms equally.
    let mut cold_by_epoch: Vec<Vec<f64>> = vec![Vec::new(); EPOCHS];
    let mut warm_by_epoch: Vec<Vec<f64>> = vec![Vec::new(); EPOCHS];
    for run in 0..args.runs {
        let seed = args.seed.wrapping_add(run as u64 * 7919);
        for (e, ms) in replay(&affinities, seed, false)?.into_iter().enumerate() {
            cold_by_epoch[e].push(ms);
        }
        for (e, ms) in replay(&affinities, seed, true)?.into_iter().enumerate() {
            warm_by_epoch[e].push(ms);
        }
    }

    println!(
        "{:<8} {:>12} {:>12} {:>9}",
        "epoch", "cold ms", "warm ms", "speedup"
    );
    let mut cold_ms = Vec::with_capacity(EPOCHS);
    let mut warm_ms = Vec::with_capacity(EPOCHS);
    for e in 0..EPOCHS {
        let c = median(&mut cold_by_epoch[e]);
        let w = median(&mut warm_by_epoch[e]);
        println!("{:<8} {c:>12.2} {w:>12.2} {:>8.2}x", e + 1, c / w.max(1e-9));
        cold_ms.push(c);
        warm_ms.push(w);
    }
    let cold_total: f64 = cold_ms.iter().sum();
    let warm_total: f64 = warm_ms.iter().sum();
    let speedup = cold_total / warm_total.max(1e-9);
    println!(
        "\ntotal    {cold_total:>12.2} {warm_total:>12.2} {speedup:>8.2}x   \
         (warm faster: {})",
        warm_total < cold_total
    );

    write_json(
        "BENCH_stream",
        &json!({
            "dataset": "D1",
            "scale": args.scale,
            "seed": args.seed,
            "segments": segments,
            "k": K,
            "epochs": EPOCHS,
            "replays": args.runs,
            "cold_ms": cold_ms,
            "warm_ms": warm_ms,
            "cold_total_ms": cold_total,
            "warm_total_ms": warm_total,
            "speedup": speedup,
            "warm_faster": warm_total < cold_total,
        }),
    );
    Ok(())
}
