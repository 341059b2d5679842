//! Ablation A1 — the α-Cut ↔ modularity equivalence (paper §7).
//!
//! The paper observes that the modularity matrix `B = A − d dᵀ/2m` "actually
//! equals the negative of our α-Cut matrix", so minimizing α-Cut
//! approximately maximizes modularity. This ablation verifies both halves
//! empirically on random weighted graphs:
//!
//! 1. the matrix identity `M = −B` to machine precision;
//! 2. α-Cut partitions achieve modularity at least as high as
//!    normalized-cut partitions on modular graphs.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin ablation_modularity -- --runs 10
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use roadpart_bench::{run_experiment, write_json, ExpArgs, Flag::*};
use roadpart_cut::{dense_alpha_matrix, spectral_partition_recovering, CutKind, SpectralConfig};
use roadpart_eval::modularity;
use roadpart_linalg::CsrMatrix;
use roadpart_linalg::RecoveryLog;

/// Random planted-partition graph: `blocks` groups of `size` nodes,
/// within-probability 0.6, across-probability `p_cross`.
fn planted(blocks: usize, size: usize, p_cross: f64, rng: &mut ChaCha8Rng) -> CsrMatrix {
    let n = blocks * size;
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let same = i / size == j / size;
            let p = if same { 0.6 } else { p_cross };
            if rng.gen::<f64>() < p {
                edges.push((i, j, 0.5 + rng.gen::<f64>()));
            }
        }
    }
    CsrMatrix::from_undirected_edges(n, &edges).expect("valid random graph")
}

fn main() -> std::process::ExitCode {
    run_experiment(&[Seed, Runs(10)], run)
}

fn run(args: ExpArgs) {
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    println!("Ablation A1: alpha-Cut matrix == -modularity matrix, and modularity quality\n");

    // Part 1: matrix identity.
    let mut worst_dev = 0.0f64;
    for trial in 0..args.runs {
        let g = planted(3, 8, 0.05, &mut rng);
        let m = dense_alpha_matrix(&g);
        let d = g.degrees();
        let two_m: f64 = d.iter().sum();
        let mut dev = 0.0f64;
        for i in 0..g.dim() {
            for j in 0..g.dim() {
                let b = g.get(i, j) - d[i] * d[j] / two_m;
                dev = dev.max((m.get(i, j) + b).abs());
            }
        }
        worst_dev = worst_dev.max(dev);
        println!("trial {trial:>2}: max |M + B| = {dev:.3e}");
    }
    println!("=> matrix identity holds to {worst_dev:.3e}\n");

    // Part 2: modularity achieved by alpha-cut vs normalized-cut partitions.
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "trial", "Q(alpha-cut)", "Q(ncut)", "Q(planted)"
    );
    let mut alpha_wins = 0usize;
    let mut records = Vec::new();
    for trial in 0..args.runs {
        let blocks = 3;
        let size = 12;
        let g = planted(blocks, size, 0.04, &mut rng);
        let cfg = SpectralConfig::default().with_seed(args.seed + trial as u64);
        let cut =
            |kind| spectral_partition_recovering(&g, blocks, kind, &cfg, &mut RecoveryLog::new());
        let pa = cut(CutKind::Alpha).expect("alpha cut");
        let pn = cut(CutKind::Normalized).expect("normalized cut");
        let planted_labels: Vec<usize> = (0..blocks * size).map(|i| i / size).collect();
        let qa = modularity(&g, pa.labels());
        let qn = modularity(&g, pn.labels());
        let qp = modularity(&g, &planted_labels);
        println!("{trial:>6} {qa:>14.4} {qn:>14.4} {qp:>14.4}");
        if qa >= qn - 1e-9 {
            alpha_wins += 1;
        }
        records.push(serde_json::json!({
            "trial": trial, "q_alpha": qa, "q_ncut": qn, "q_planted": qp,
        }));
    }
    println!(
        "\n=> alpha-Cut matches or beats normalized cut on modularity in {alpha_wins}/{} trials",
        args.runs
    );
    write_json(
        "ablation_modularity",
        &serde_json::json!({
            "seed": args.seed, "runs": args.runs,
            "max_matrix_deviation": worst_dev,
            "alpha_wins": alpha_wins,
            "trials": records,
        }),
    );
}
