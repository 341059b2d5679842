//! Figure 4 — road graph and supergraph partitioning results on the small
//! network (D1): `inter`, `intra`, GDBI and ANS versus k for the AG, ASG,
//! NG and NSG schemes, reported as medians over `--runs` executions
//! (the paper uses 100).
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin fig4 -- --scale 1.0 --runs 100
//! ```
//!
//! Expected shape (paper §6.3): AG and ASG sit below NG on GDBI and ANS at
//! every k; AG's `inter` peaks at the ANS-optimal k; `intra` of AG stays
//! below NG throughout.

use roadpart::prelude::*;
use roadpart_bench::{eval_graph, median_quality, run_experiment, write_json, ExpArgs, Flag::*};

fn main() -> std::process::ExitCode {
    run_experiment(&[Scale(0.5), Seed, Runs(5), Kmax(20)], run)
}

fn run(args: ExpArgs) -> roadpart::Result<()> {
    println!(
        "Figure 4: D1 scheme sweep (scale {}, seed {}, {} runs, k = 2..={})\n",
        args.scale, args.seed, args.runs, args.kmax
    );
    let dataset = roadpart::datasets::d1(args.scale, args.seed)?;
    let graph = eval_graph(&dataset)?;
    println!(
        "D1 surrogate: {} segments, {} links, evaluating t = {}\n",
        graph.node_count(),
        graph.link_count(),
        dataset.eval_step
    );

    let schemes = Scheme::all();
    let mut series = serde_json::Map::new();
    for scheme in schemes {
        println!(
            "[{}] {:>3} {:>10} {:>10} {:>10} {:>10}",
            scheme.name(),
            "k",
            "inter",
            "intra",
            "GDBI",
            "ANS"
        );
        let mut rows = Vec::new();
        for k in 2..=args.kmax {
            let rep = median_quality(&graph, scheme, k, args.runs, args.seed)?;
            println!(
                "     {:>3} {:>10.5} {:>10.5} {:>10.4} {:>10.4}",
                k, rep.inter, rep.intra, rep.gdbi, rep.ans
            );
            rows.push(serde_json::json!({
                "k": k, "inter": rep.inter, "intra": rep.intra,
                "gdbi": rep.gdbi, "ans": rep.ans,
            }));
        }
        println!();
        series.insert(scheme.name().to_string(), serde_json::Value::Array(rows));
    }

    // Head-to-head summary: fraction of k values where alpha-Cut beats
    // normalized cut (the paper's claim: all of them for GDBI/ANS).
    summarize(&series, "AG", "NG");
    summarize(&series, "ASG", "NSG");

    write_json(
        "fig4",
        &serde_json::json!({
            "scale": args.scale, "seed": args.seed, "runs": args.runs,
            "series": series,
        }),
    );
    Ok(())
}

fn summarize(series: &serde_json::Map<String, serde_json::Value>, a: &str, b: &str) {
    let get = |name: &str, metric: &str| -> Vec<f64> {
        series[name]
            .as_array()
            .expect("series array")
            .iter()
            .map(|row| row[metric].as_f64().expect("numeric metric"))
            .collect()
    };
    for metric in ["gdbi", "ans"] {
        let xa = get(a, metric);
        let xb = get(b, metric);
        let wins = xa
            .iter()
            .zip(&xb)
            .filter(|(x, y)| **x < **y - 1e-12)
            .count();
        let ties = xa
            .iter()
            .zip(&xb)
            .filter(|(x, y)| (**x - **y).abs() <= 1e-12)
            .count();
        println!(
            "{a} vs {b} on {}: {wins} wins, {ties} ties, {} losses over {} values of k",
            metric.to_uppercase(),
            xa.len() - wins - ties,
            xa.len()
        );
    }
}
