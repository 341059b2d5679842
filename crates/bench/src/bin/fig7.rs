//! Figure 7 — road supergraph partitioning results on the large networks:
//! `inter`, `intra`, GDBI and ANS versus k for the ASG scheme on M1, M2
//! and M3.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin fig7 -- --scale 1.0 --runs 3
//! ```
//!
//! Expected shape (paper §6.4): ANS minima at single-digit k (paper: 4 for
//! M1, 5 for M2/M3); ANS fluctuates at small k and settles at larger k;
//! larger networks partition slightly worse than D1 but far better than the
//! D1 baselines; `inter`/`intra` magnitudes are smaller than on D1 because
//! densities are lower.

use roadpart::prelude::*;
use roadpart_bench::{eval_graph, median_quality, run_experiment, write_json, ExpArgs, Flag::*};

fn main() -> std::process::ExitCode {
    run_experiment(&[Scale(0.05), Seed, Runs(3), Kmax(15)], run)
}

fn run(args: ExpArgs) -> roadpart::Result<()> {
    println!(
        "Figure 7: ASG quality vs k on M1/M2/M3 (scale {}, seed {}, {} runs)\n",
        args.scale, args.seed, args.runs
    );

    let mut out = serde_json::Map::new();
    for which in [Melbourne::M1, Melbourne::M2, Melbourne::M3] {
        let dataset = roadpart::datasets::melbourne(which, args.scale, args.seed)?;
        let graph = eval_graph(&dataset)?;
        println!(
            "[{}] {} segments (evaluating t = {})",
            dataset.name,
            graph.node_count(),
            dataset.eval_step
        );
        println!(
            "{:>4} {:>10} {:>10} {:>10} {:>10}",
            "k", "inter", "intra", "GDBI", "ANS"
        );
        let mut rows = Vec::new();
        let mut best: Option<(usize, f64)> = None;
        for k in 2..=args.kmax {
            let rep = median_quality(&graph, Scheme::ASG, k, args.runs, args.seed)?;
            println!(
                "{:>4} {:>10.6} {:>10.6} {:>10.4} {:>10.4}",
                k, rep.inter, rep.intra, rep.gdbi, rep.ans
            );
            if best.map_or(true, |(_, b)| rep.ans < b) {
                best = Some((k, rep.ans));
            }
            rows.push(serde_json::json!({
                "k": k, "inter": rep.inter, "intra": rep.intra,
                "gdbi": rep.gdbi, "ans": rep.ans,
            }));
        }
        let (k_opt, ans_opt) = best.expect("non-empty sweep");
        println!(
            "  ANS-optimal k = {k_opt} (ANS {ans_opt:.4}); paper: k = 4 @ 0.423 (M1), 5 @ 0.511 (M2), 5 @ 0.512 (M3)\n"
        );
        out.insert(
            dataset.name.to_string(),
            serde_json::json!({ "rows": rows, "k_opt": k_opt, "ans_opt": ans_opt }),
        );
    }
    write_json(
        "fig7",
        &serde_json::json!({
            "scale": args.scale, "seed": args.seed, "runs": args.runs, "series": out,
        }),
    );
    Ok(())
}
