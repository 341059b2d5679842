//! `roadpart` — command-line interface for congestion-based spatial
//! partitioning of urban road networks (Anwar et al., EDBT 2014).
//!
//! ```text
//! roadpart generate --preset d1 --scale 0.5 --seed 42 --out city.net --densities city.densities
//! roadpart partition --net city.net --densities city.densities --k 6 \
//!                    --scheme asg --labels out.labels --geojson out.geojson \
//!                    --policy clamp --report run-report.json
//! roadpart metrics   --net city.net --densities city.densities --labels out.labels
//! roadpart select-k  --net city.net --densities city.densities --kmax 12 --scheme asg
//! roadpart stream    --preset d1 --scale 0.35 --k 4 --epochs 10 --log stream-log.json
//! roadpart serve     --preset d1 --scale 0.35 --k 4 --threads 4 --queries 500
//! ```
//!
//! Exit codes distinguish the failure class so scripts can react:
//! `0` success, `2` configuration/usage error, `3` data error (unreadable or
//! unrepairable input), `4` numerical error (solver and clustering
//! failures), `5` epoch deadline exceeded (`stream --deadline fail`),
//! `7` no route between the requested `serve --from`/`--to` pair.

mod args;
mod commands;
mod errors;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::from(errors::EXIT_CONFIG);
    };
    let result = match command.as_str() {
        "generate" => commands::generate(rest),
        "partition" => commands::partition(rest),
        "metrics" => commands::metrics(rest),
        "select-k" => commands::select_k(rest),
        "stream" => commands::stream(rest),
        "serve" => commands::serve(rest),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(errors::CliError::config(format!(
            "unknown command '{other}'\n\n{}",
            commands::USAGE
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{err}");
            ExitCode::from(err.exit_code())
        }
    }
}
