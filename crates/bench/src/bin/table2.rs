//! Table 2 — overall quality of partitioning: the best (lowest) ANS and the
//! k attaining it, per scheme, plus the Ji & Geroliminis-style baseline.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin table2 -- --scale 1.0 --runs 20
//! ```
//!
//! Expected shape (paper Table 2): AG and ASG reach much lower ANS minima
//! than NG/NSG and the JG baseline; the JG baseline improves on plain NG.

use roadpart::prelude::*;
use roadpart_bench::{eval_graph, median_quality, run_experiment, write_json, ExpArgs, Flag::*};

fn main() -> std::process::ExitCode {
    run_experiment(&[Scale(0.5), Seed, Runs(5), Kmax(20)], run)
}

fn run(args: ExpArgs) -> roadpart::Result<()> {
    println!(
        "Table 2: best ANS per scheme on D1 (scale {}, seed {}, {} runs, k <= {})\n",
        args.scale, args.seed, args.runs, args.kmax
    );
    let dataset = roadpart::datasets::d1(args.scale, args.seed)?;
    let graph = eval_graph(&dataset)?;

    println!("{:<22} {:>10} {:>6}", "scheme", "ANS", "k");
    let mut rows = Vec::new();
    for scheme in Scheme::all() {
        let mut best: Option<(usize, f64)> = None;
        for k in 2..=args.kmax {
            let rep = median_quality(&graph, scheme, k, args.runs, args.seed)?;
            if best.map_or(true, |(_, b)| rep.ans < b) {
                best = Some((k, rep.ans));
            }
        }
        let (k, ans) = best.expect("non-empty sweep");
        println!("{:<22} {:>10.4} {:>6}", scheme.name(), ans, k);
        rows.push(serde_json::json!({ "scheme": scheme.name(), "ans": ans, "k": k }));
    }

    // JG-style baseline (single deterministic run per k; their method has
    // no eigenspace k-means randomness after the initial over-partition,
    // so we still take the median over runs for fairness).
    let affinity = roadpart_cut::gaussian_affinity_par(
        graph.adjacency(),
        graph.features(),
        &roadpart_linalg::ThreadPool::serial(),
    )?;
    let mut best: Option<(usize, f64)> = None;
    for k in 2..=args.kmax {
        let mut samples = Vec::with_capacity(args.runs);
        for r in 0..args.runs {
            let cfg = JgConfig {
                spectral: SpectralConfig::default()
                    .with_seed(args.seed.wrapping_add(r as u64 * 7919)),
                ..JgConfig::default()
            };
            let p = jg_partition(&graph, k, &cfg)?;
            let rep = QualityReport::compute(&affinity, graph.features(), p.labels());
            samples.push(rep.ans);
        }
        let ans = roadpart_bench::median(&mut samples);
        if best.map_or(true, |(_, b)| ans < b) {
            best = Some((k, ans));
        }
    }
    let (k, ans) = best.expect("non-empty sweep");
    println!("{:<22} {:>10.4} {:>6}", "Ji & Geroliminis [5]", ans, k);
    rows.push(serde_json::json!({ "scheme": "JG", "ans": ans, "k": k }));

    println!(
        "\npaper reference: AG 0.3392 (k=6), ASG 0.3526 (k=6), NG 0.9362 (k=8), JG 0.6210 (k=3)"
    );
    write_json(
        "table2",
        &serde_json::json!({
            "scale": args.scale, "seed": args.seed, "runs": args.runs, "rows": rows,
        }),
    );
    Ok(())
}
