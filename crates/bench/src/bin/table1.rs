//! Table 1 — dataset statistics.
//!
//! Regenerates the paper's dataset table from the synthetic surrogates and
//! prints generated-vs-paper counts side by side.
//!
//! ```text
//! cargo run -p roadpart-bench --release --bin table1 -- --scale 1.0
//! ```

use roadpart_bench::{run_experiment, write_json, ExpArgs, Flag::*};
use roadpart_net::UrbanConfig;

fn main() -> std::process::ExitCode {
    run_experiment(&[Scale(0.2), Seed], run)
}

fn run(args: ExpArgs) -> roadpart::Result<()> {
    println!(
        "Table 1: dataset statistics (scale {}, seed {})",
        args.scale, args.seed
    );
    println!("paper columns are the targets at scale 1.0\n");
    println!(
        "{:<8} {:<26} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "dataset", "place", "segs(gen)", "segs(paper)", "ints(gen)", "ints(paper)", "area mi^2"
    );

    let mut rows = Vec::new();
    let specs: [(&str, &str, UrbanConfig); 4] = [
        ("D1", "Downtown San Francisco", UrbanConfig::d1()),
        ("M1", "CBD Melbourne", UrbanConfig::m1()),
        ("M2", "CBD(+) Melbourne", UrbanConfig::m2()),
        ("M3", "Melbourne", UrbanConfig::m3()),
    ];
    for (id, place, cfg) in specs {
        let paper_segs = cfg.target_segments;
        let paper_ints = cfg.target_intersections;
        let area = cfg.area_sq_miles;
        let net = cfg.scaled(args.scale).generate(args.seed)?;
        println!(
            "{:<8} {:<26} {:>12} {:>12} {:>12} {:>12} {:>10.2}",
            id,
            place,
            net.segment_count(),
            paper_segs,
            net.intersection_count(),
            paper_ints,
            area
        );
        rows.push(serde_json::json!({
            "dataset": id,
            "place": place,
            "segments_generated": net.segment_count(),
            "segments_paper": paper_segs,
            "intersections_generated": net.intersection_count(),
            "intersections_paper": paper_ints,
            "area_sq_miles_paper": area,
            "area_sq_miles_generated": net.area_sq_miles(),
            "weakly_connected": net.is_weakly_connected(),
        }));
    }
    println!("\n(at --scale 1.0 the generated counts land within a few percent of the paper's)");
    write_json(
        "table1",
        &serde_json::json!({ "scale": args.scale, "seed": args.seed, "rows": rows }),
    );
    Ok(())
}
