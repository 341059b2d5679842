//! Ablation A3 — MCG versus clustering gain versus clustering balance for
//! selecting the number of clusters (paper §4.2).
//!
//! The paper claims MCG improves on Jung et al.'s clustering gain by
//! "making the clusters compact and far apart". This ablation plants 1-D
//! Gaussian mixtures with a known component count and scores how often each
//! measure's optimum recovers it, then shows the measures' choices on the
//! actual D1 density data.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin ablation_optimality -- --runs 30
//! ```

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use roadpart_bench::{run_experiment, write_json, ExpArgs, Flag::*};
use roadpart_cluster::{optimality_sweep, OptimalityPoint};

/// 1-D Gaussian mixture with `c` components and moderate overlap.
fn mixture(c: usize, per: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    let mut values = Vec::with_capacity(c * per);
    for comp in 0..c {
        let centre = comp as f64 * 10.0;
        for _ in 0..per {
            // Box-Muller normal sample, sigma = 1.2.
            let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen());
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            values.push(centre + 1.2 * z);
        }
    }
    values
}

/// The paper's selection rule: gain-style measures saturate and fluctuate
/// past the true cluster count, so the *smallest* kappa within 90% of the
/// maximum wins (the threshold shortlist of Algorithm 1), not the argmax.
fn knee_by(sweep: &[OptimalityPoint], f: impl Fn(&OptimalityPoint) -> f64) -> usize {
    let max = sweep.iter().map(&f).fold(f64::NEG_INFINITY, f64::max);
    sweep
        .iter()
        .find(|p| f(p) >= 0.9 * max)
        .map(|p| p.kappa)
        .expect("non-empty sweep")
}

fn main() -> std::process::ExitCode {
    run_experiment(&[Scale(0.5), Seed, Runs(30), Kmax(9)], run)
}

fn run(args: ExpArgs) -> roadpart::Result<()> {
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    println!(
        "Ablation A3: cluster-count selection accuracy over {} planted mixtures\n",
        args.runs
    );

    let mut hits = [0usize; 3]; // mcg, gain, balance
    for c_true in [2usize, 3, 4, 5] {
        let mut local = [0usize; 3];
        let trials = args.runs.max(1);
        for _ in 0..trials {
            let values = mixture(c_true, 40, &mut rng);
            let sweep = optimality_sweep(&values, 2..=args.kmax)?;
            let picks = [
                knee_by(&sweep, |p| p.mcg),
                knee_by(&sweep, |p| p.gain),
                // Balance is minimized: knee on the negated, max-shifted curve.
                {
                    let worst = sweep
                        .iter()
                        .map(|p| p.balance)
                        .fold(f64::NEG_INFINITY, f64::max);
                    knee_by(&sweep, |p| worst - p.balance)
                },
            ];
            for (h, &pick) in local.iter_mut().zip(&picks) {
                if pick == c_true {
                    *h += 1;
                }
            }
        }
        println!(
            "true c = {c_true}: MCG {:>3}/{trials}  gain {:>3}/{trials}  balance {:>3}/{trials}",
            local[0], local[1], local[2]
        );
        for (total, l) in hits.iter_mut().zip(&local) {
            *total += l;
        }
    }
    let trials_total = 4 * args.runs.max(1);
    println!(
        "\noverall recovery: MCG {}/{t}  gain {}/{t}  balance {}/{t}",
        hits[0],
        hits[1],
        hits[2],
        t = trials_total
    );

    // The measures' choices on real D1 densities.
    let dataset = roadpart::datasets::d1(args.scale, args.seed)?;
    let graph = roadpart_bench::eval_graph(&dataset)?;
    let sweep = optimality_sweep(graph.features(), 2..=args.kmax)?;
    let worst = sweep
        .iter()
        .map(|p| p.balance)
        .fold(f64::NEG_INFINITY, f64::max);
    let d1_picks = (
        knee_by(&sweep, |p| p.mcg),
        knee_by(&sweep, |p| p.gain),
        knee_by(&sweep, |p| worst - p.balance),
    );
    println!(
        "\nD1 densities: MCG picks kappa = {}, gain picks {}, balance picks {}",
        d1_picks.0, d1_picks.1, d1_picks.2
    );

    write_json(
        "ablation_optimality",
        &serde_json::json!({
            "seed": args.seed, "runs": args.runs, "kmax": args.kmax,
            "recovery": { "mcg": hits[0], "gain": hits[1], "balance": hits[2],
                           "trials": trials_total },
            "d1_picks": { "mcg": d1_picks.0, "gain": d1_picks.1, "balance": d1_picks.2 },
        }),
    );
    Ok(())
}
