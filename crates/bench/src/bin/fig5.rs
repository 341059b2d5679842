//! Figure 5 — MCG measure and number of supernodes versus κ on the large
//! networks M1 and M2.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin fig5 -- --scale 1.0
//! ```
//!
//! Expected shape (paper §6.4): MCG rises steeply at small κ then flattens
//! (the paper's M1 peaks at κ = 18 but gains little beyond κ = 5); the
//! supernode count grows monotonically with κ. The chosen ε_θ keeps κ small
//! while the supergraph order drops roughly an order of magnitude below the
//! segment count.

use roadpart::prelude::*;
use roadpart_bench::{run_experiment, write_json, ExpArgs, Flag::*};
use roadpart_cluster::{constrained_components, kmeans_1d, optimality_sweep};

fn main() -> std::process::ExitCode {
    run_experiment(&[Scale(0.08), Seed, Kmax(30)], run)
}

fn run(args: ExpArgs) -> roadpart::Result<()> {
    println!(
        "Figure 5: MCG and supernode counts vs kappa (scale {}, seed {})\n",
        args.scale, args.seed
    );

    let mut out = serde_json::Map::new();
    for which in [Melbourne::M1, Melbourne::M2] {
        let dataset = roadpart::datasets::melbourne(which, args.scale, args.seed)?;
        let graph = roadpart_bench::eval_graph(&dataset)?;
        let features = graph.features().to_vec();
        println!(
            "[{}] {} segments; sweeping kappa = 2..={}",
            dataset.name,
            graph.node_count(),
            args.kmax
        );
        let sweep = optimality_sweep(&features, 2..=args.kmax.min(features.len() - 1))?;
        println!("{:>6} {:>14} {:>14}", "kappa", "MCG", "supernodes");
        let mut rows = Vec::new();
        for point in &sweep {
            let km = kmeans_1d(&features, point.kappa)?;
            let comp = constrained_components(graph.adjacency(), Some(&km.assignments))?;
            let n_super = comp.iter().copied().max().map_or(0, |m| m + 1);
            println!("{:>6} {:>14.2} {:>14}", point.kappa, point.mcg, n_super);
            rows.push(serde_json::json!({
                "kappa": point.kappa,
                "mcg": point.mcg,
                "gain": point.gain,
                "balance": point.balance,
                "supernodes": n_super,
            }));
        }
        // Where does the curve flatten? Report the kappa whose MCG first
        // reaches 90% of the maximum (the paper's threshold story).
        let max_mcg = sweep
            .iter()
            .map(|p| p.mcg)
            .fold(f64::NEG_INFINITY, f64::max);
        let knee = sweep
            .iter()
            .find(|p| p.mcg >= 0.9 * max_mcg)
            .map(|p| p.kappa)
            .unwrap_or(2);
        println!(
            "  max MCG {max_mcg:.2}; 90%-of-max first reached at kappa = {knee} (paper: major rise only up to kappa = 5)\n"
        );
        out.insert(dataset.name.to_string(), serde_json::Value::Array(rows));
    }
    write_json(
        "fig5",
        &serde_json::json!({ "scale": args.scale, "seed": args.seed, "series": out }),
    );
    Ok(())
}
