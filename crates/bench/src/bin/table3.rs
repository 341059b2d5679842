//! Table 3 — running time (seconds) per framework module for D1, M1, M2
//! and M3.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin table3 -- --scale 1.0
//! ```
//!
//! Expected shape (paper §6.4): module 1 (graph construction) is the
//! cheapest; module 3 (spectral partitioning, dominated by
//! eigendecomposition) the most expensive; totals grow steeply with network
//! size. Absolute numbers differ from 2014 Matlab on 2014 hardware.

use roadpart::prelude::*;
use roadpart_bench::{run_experiment, write_json, ExpArgs, Flag::*};

fn main() -> std::process::ExitCode {
    run_experiment(&[Scale(0.05), Seed], run)
}

fn run(args: ExpArgs) -> roadpart::Result<()> {
    println!(
        "Table 3: per-module wall clock in seconds (scale {}, seed {}, ASG, k from ANS defaults)\n",
        args.scale, args.seed
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "dataset", "segments", "module1", "module2", "module3", "total"
    );

    let mut rows = Vec::new();
    // The paper's ANS-optimal k per dataset (6 for D1, 4/5/5 for M1/M2/M3).
    let jobs: [(&str, usize); 4] = [("D1", 6), ("M1", 4), ("M2", 5), ("M3", 5)];
    for (name, k) in jobs {
        let dataset = match name {
            "D1" => roadpart::datasets::d1(args.scale.max(0.25), args.seed)?,
            "M1" => roadpart::datasets::melbourne(Melbourne::M1, args.scale, args.seed)?,
            "M2" => roadpart::datasets::melbourne(Melbourne::M2, args.scale, args.seed)?,
            _ => roadpart::datasets::melbourne(Melbourne::M3, args.scale, args.seed)?,
        };
        let cfg = PipelineConfig {
            scheme: Scheme::ASG,
            k,
            framework: FrameworkConfig::default().with_seed(args.seed),
        };
        let result = partition_network(&dataset.network, dataset.eval_densities(), &cfg)?;
        let t = result.timings;
        println!(
            "{:<8} {:>10} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            name,
            dataset.network.segment_count(),
            t.module1.as_secs_f64(),
            t.module2.as_secs_f64(),
            t.module3.as_secs_f64(),
            t.total().as_secs_f64()
        );
        rows.push(serde_json::json!({
            "dataset": name,
            "segments": dataset.network.segment_count(),
            "supergraph_order": result.supergraph_order,
            "module1_s": t.module1.as_secs_f64(),
            "module2_s": t.module2.as_secs_f64(),
            "module3_s": t.module3.as_secs_f64(),
            "total_s": t.total().as_secs_f64(),
        }));
    }
    println!("\npaper reference (Matlab, 2014): D1 <1s; M1 9/54/66 = 129s; M2 24/848/1033 = 1905s; M3 137/2044/3726 = 5907s");
    write_json(
        "table3",
        &serde_json::json!({ "scale": args.scale, "seed": args.seed, "rows": rows }),
    );
    Ok(())
}
