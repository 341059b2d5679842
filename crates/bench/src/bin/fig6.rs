//! Figure 6 — stability measures of supernodes on D1 and M2.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin fig6 -- --scale 1.0
//! ```
//!
//! Expected shape (paper §6.3/6.4): most supernodes are highly stable
//! (η near 1), with a thin tail of loose supernodes — the histogram mass
//! concentrates in the top bins.

use roadpart::prelude::*;
use roadpart_bench::{eval_graph, run_experiment, write_json, ExpArgs, Flag::*};

fn main() -> std::process::ExitCode {
    run_experiment(&[Scale(0.25), Seed], run)
}

fn run(args: ExpArgs) -> roadpart::Result<()> {
    println!(
        "Figure 6: supernode stability measures (scale {}, seed {})\n",
        args.scale, args.seed
    );

    let mut out = serde_json::Map::new();
    let d1 = roadpart::datasets::d1(args.scale, args.seed)?;
    let m2 = roadpart::datasets::melbourne(Melbourne::M2, (args.scale * 0.25).min(1.0), args.seed)?;
    for dataset in [d1, m2] {
        let graph = eval_graph(&dataset)?;
        let mining = mine_supergraph(&graph, &MiningConfig::default())?;
        let etas = &mining.stabilities;
        println!(
            "[{}] {} supernodes from {} segments (paper: 105 for D1, 5391 for M2)",
            dataset.name,
            etas.len(),
            graph.node_count()
        );
        // Ten-bin histogram over [0, 1].
        let mut hist = [0usize; 10];
        for &e in etas {
            hist[((e * 10.0) as usize).min(9)] += 1;
        }
        println!("{:>12} {:>8} {:>8}", "eta bin", "count", "share");
        for (b, &c) in hist.iter().enumerate() {
            println!(
                "[{:.1}, {:.1}) {:>9} {:>7.1}%",
                b as f64 / 10.0,
                (b + 1) as f64 / 10.0,
                c,
                100.0 * c as f64 / etas.len().max(1) as f64
            );
        }
        let highly_stable = hist[9] as f64 / etas.len().max(1) as f64;
        println!("  share with eta >= 0.9: {:.1}%\n", 100.0 * highly_stable);
        out.insert(
            dataset.name.to_string(),
            serde_json::json!({
                "supernodes": etas.len(),
                "segments": graph.node_count(),
                "histogram": hist.to_vec(),
                "etas_min": etas.iter().cloned().fold(f64::INFINITY, f64::min),
                "share_eta_ge_0_9": highly_stable,
            }),
        );
    }
    write_json(
        "fig6",
        &serde_json::json!({ "scale": args.scale, "seed": args.seed, "series": out }),
    );
    Ok(())
}
