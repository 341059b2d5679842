//! Ablation A2 — the stability-threshold trade-off (paper §3, §4.3.2).
//!
//! "A lower threshold value reduces the complexity by reducing the
//! supergraph order while sacrificing some level of accuracy ... a higher
//! value can give more accurate results at the cost of computational and
//! space complexity." This ablation sweeps ε_η from 0 (pure ASG) to 1
//! (effectively AG) and reports supergraph order, partition quality and
//! mining time at each point.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin ablation_stability -- --scale 1.0
//! ```

use roadpart::prelude::*;
use roadpart_bench::{eval_graph, run_experiment, write_json, ExpArgs, Flag::*};
use std::time::Instant;

fn main() -> std::process::ExitCode {
    run_experiment(&[Scale(0.5), Seed, Runs(3), Kmax(6)], run)
}

fn run(args: ExpArgs) -> roadpart::Result<()> {
    println!(
        "Ablation A2: stability threshold sweep on D1 (scale {}, seed {}, k = {})\n",
        args.scale, args.seed, args.kmax
    );
    let dataset = roadpart::datasets::d1(args.scale, args.seed)?;
    let graph = eval_graph(&dataset)?;
    let affinity = roadpart_cut::gaussian_affinity_par(
        graph.adjacency(),
        graph.features(),
        &roadpart_linalg::ThreadPool::serial(),
    )?;
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>12}",
        "eps_eta", "supernodes", "ANS", "GDBI", "mine+cut ms"
    );

    let mut rows = Vec::new();
    for &eps in &[0.0, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0] {
        let mut ans = Vec::new();
        let mut gdbi = Vec::new();
        let mut orders = Vec::new();
        let mut millis = Vec::new();
        for r in 0..args.runs {
            let mut cfg = FrameworkConfig::default().with_seed(args.seed + r as u64 * 31);
            cfg.mining.stability_threshold = eps;
            let t0 = Instant::now();
            let out = run_scheme(&graph, Scheme::ASG, args.kmax, &cfg)?;
            millis.push(t0.elapsed().as_secs_f64() * 1e3);
            let rep = QualityReport::compute(&affinity, graph.features(), out.partition.labels());
            ans.push(rep.ans);
            gdbi.push(rep.gdbi);
            orders.push(out.mining.expect("ASG mines").supergraph.order() as f64);
        }
        let row = (
            roadpart_bench::median(&mut orders),
            roadpart_bench::median(&mut ans),
            roadpart_bench::median(&mut gdbi),
            roadpart_bench::median(&mut millis),
        );
        println!(
            "{:>8.2} {:>12.0} {:>10.4} {:>10.4} {:>12.2}",
            eps, row.0, row.1, row.2, row.3
        );
        rows.push(serde_json::json!({
            "eps_eta": eps, "supernodes": row.0, "ans": row.1,
            "gdbi": row.2, "mine_cut_ms": row.3,
        }));
    }
    println!("\nExpected: supernode count grows with eps_eta; quality approaches the");
    println!("direct AG scheme at eps_eta = 1 while cost rises (paper Section 3).");
    write_json(
        "ablation_stability",
        &serde_json::json!({
            "scale": args.scale, "seed": args.seed, "runs": args.runs,
            "k": args.kmax, "rows": rows,
        }),
    );
    Ok(())
}
