//! # roadpart-bench
//!
//! Shared harness for the experiment binaries that regenerate every table
//! and figure of Anwar et al. (EDBT 2014), and for `drift_bench`, which
//! measures how the online engine recovers from disruptions. Each binary
//! accepts only the [`Flag`]s it uses, exits with code 2 naming the flag
//! on any other usage error, and writes a machine-readable JSON record to
//! `target/experiments/`.

use roadpart::prelude::{Dataset, FrameworkConfig, QualityReport, Scheme};
use roadpart_net::RoadGraph;
use std::path::PathBuf;
use std::process::{ExitCode, Termination};
use std::str::FromStr;

/// A flag an experiment binary accepts, carrying the binary's default.
#[derive(Debug, Clone, Copy)]
pub enum Flag {
    /// `--scale <f64>`: dataset scale in `(0, 1]`; 1.0 = paper-sized.
    Scale(f64),
    /// `--seed <u64>`: master RNG seed, default 42.
    Seed,
    /// `--runs <usize>`: repetitions for median protocols, at least 1.
    Runs(usize),
    /// `--kmax <usize>`: upper bound of the k sweep, at least 2.
    Kmax(usize),
    /// `--epochs <usize>`: replay epochs, at least 2.
    Epochs(usize),
    /// Bare `--smoke`: shrink the run to a quick validity check.
    Smoke,
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Scale(_) => "scale",
            Flag::Seed => "seed",
            Flag::Runs(_) => "runs",
            Flag::Kmax(_) => "kmax",
            Flag::Epochs(_) => "epochs",
            Flag::Smoke => "smoke",
        }
    }
}

/// Parsed command-line arguments shared by all experiment binaries. A
/// field whose [`Flag`] the binary does not accept is never read.
#[derive(Debug, Clone, Default)]
pub struct ExpArgs {
    /// Dataset scale in `(0, 1]`; 1.0 reproduces paper-sized networks.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Repetitions for median protocols (the paper uses 100 for Figure 4).
    pub runs: usize,
    /// Upper bound of k sweeps.
    pub kmax: usize,
    /// Epochs a density trace is replayed in.
    pub epochs: usize,
    /// Shrink the run to a quick validity check.
    pub smoke: bool,
}

impl ExpArgs {
    /// Parses `argv` (program name excluded), accepting only `flags`, each
    /// starting from the default it carries.
    ///
    /// # Errors
    /// Returns a message naming the flag for a bare token, a flag not in
    /// `flags` or repeated, and a value missing, unparsable or out of range.
    pub fn parse(argv: &[String], flags: &[Flag]) -> Result<Self, String> {
        let mut out = Self::default();
        for &flag in flags {
            match flag {
                Flag::Scale(v) => out.scale = v,
                Flag::Seed => out.seed = 42,
                Flag::Runs(v) => out.runs = v,
                Flag::Kmax(v) => out.kmax = v,
                Flag::Epochs(v) => out.epochs = v,
                Flag::Smoke => {}
            }
        }
        let mut seen = Vec::new();
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(format!("expected a --flag, found '{token}'"));
            };
            let Some(&flag) = flags.iter().find(|f| f.name() == name) else {
                let names: Vec<&str> = flags.iter().map(|f| f.name()).collect();
                return Err(format!(
                    "unknown flag --{name} (accepted: --{})",
                    names.join(", --")
                ));
            };
            if seen.contains(&name) {
                return Err(format!("flag --{name} given more than once"));
            }
            seen.push(name);
            let it = &mut tokens;
            match flag {
                Flag::Smoke => out.smoke = true,
                Flag::Scale(_) => out.scale = value(it, name, |&v: &f64| v > 0.0 && v <= 1.0)?,
                Flag::Seed => out.seed = value(it, name, |_| true)?,
                Flag::Runs(_) => out.runs = value(it, name, |&v| v >= 1)?,
                Flag::Kmax(_) => out.kmax = value(it, name, |&v| v >= 2)?,
                Flag::Epochs(_) => out.epochs = value(it, name, |&v| v >= 2)?,
            }
        }
        Ok(out)
    }
}

/// Takes the next token as the value of `--name`, parsed and `valid`.
fn value<T: FromStr>(
    tokens: &mut std::slice::Iter<String>,
    name: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let raw = tokens
        .next()
        .ok_or_else(|| format!("flag --{name} is missing its value"))?;
    match raw.parse() {
        Ok(v) if valid(&v) => Ok(v),
        Ok(_) => Err(format!("flag --{name}: {raw} is out of range")),
        Err(_) => Err(format!("flag --{name}: cannot parse '{raw}'")),
    }
}

/// Entry point of an experiment binary: runs `body` on the parsed process
/// arguments, or exits with status 2 on a usage error, as the CLI does.
pub fn run_experiment<T: Termination>(flags: &[Flag], body: impl FnOnce(ExpArgs) -> T) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match ExpArgs::parse(&argv, flags) {
        Ok(args) => body(args).report(),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Median of a sample (destructive); 0.0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    roadpart_linalg::ord::sort_f64(xs);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Writes an experiment record to `target/experiments/<name>.json`.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = PathBuf::from("target/experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {dir:?}: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serializable"),
    ) {
        Ok(()) => println!("\n[json] {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {path:?}: {e}"),
    }
}

/// Builds the evaluation-ready road graph of a dataset (dual graph with the
/// evaluation-step densities as features).
///
/// # Errors
/// Propagates graph-construction failures.
pub fn eval_graph(dataset: &Dataset) -> roadpart::Result<RoadGraph> {
    let mut graph = RoadGraph::from_network(&dataset.network)?;
    graph.set_features(dataset.eval_densities().to_vec())?;
    Ok(graph)
}

/// Runs a scheme `runs` times with distinct seeds and returns the median of
/// each quality metric — the paper's "median values of evaluation metrics
/// obtained from 100 executions" protocol (§6.3).
///
/// # Errors
/// Propagates scheme failures.
pub fn median_quality(
    graph: &RoadGraph,
    scheme: Scheme,
    k: usize,
    runs: usize,
    seed: u64,
) -> roadpart::Result<QualityReport> {
    let affinity = roadpart_cut::gaussian_affinity_par(
        graph.adjacency(),
        graph.features(),
        &roadpart_linalg::ThreadPool::serial(),
    )?;
    let mut inter = Vec::with_capacity(runs);
    let mut intra = Vec::with_capacity(runs);
    let mut gdbi = Vec::with_capacity(runs);
    let mut ans = Vec::with_capacity(runs);
    let mut alpha = Vec::with_capacity(runs);
    let mut ncut = Vec::with_capacity(runs);
    let mut modularity = Vec::with_capacity(runs);
    let mut k_out = 0;
    for r in 0..runs.max(1) {
        let cfg = FrameworkConfig::default().with_seed(seed.wrapping_add(r as u64 * 7919));
        let out = roadpart::run_scheme(graph, scheme, k, &cfg)?;
        let rep = QualityReport::compute(&affinity, graph.features(), out.partition.labels());
        inter.push(rep.inter);
        intra.push(rep.intra);
        gdbi.push(rep.gdbi);
        ans.push(rep.ans);
        alpha.push(rep.alpha_cut);
        ncut.push(rep.ncut);
        modularity.push(rep.modularity);
        k_out = rep.k;
    }
    Ok(QualityReport {
        k: k_out,
        inter: median(&mut inter),
        intra: median(&mut intra),
        gdbi: median(&mut gdbi),
        ans: median(&mut ans),
        alpha_cut: median(&mut alpha),
        ncut: median(&mut ncut),
        modularity: median(&mut modularity),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[Flag] = &[
        Flag::Scale(0.5),
        Flag::Seed,
        Flag::Runs(5),
        Flag::Kmax(20),
        Flag::Epochs(12),
        Flag::Smoke,
    ];

    fn parse(line: &str, flags: &[Flag]) -> Result<ExpArgs, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        ExpArgs::parse(&argv, flags)
    }

    fn fields(a: ExpArgs) -> (f64, u64, usize, usize, usize, bool) {
        (a.scale, a.seed, a.runs, a.kmax, a.epochs, a.smoke)
    }

    #[test]
    fn flags_start_at_their_defaults_and_parse_in_any_order() {
        let defaults = fields(parse("", ALL).unwrap());
        assert_eq!(defaults, (0.5, 42, 5, 20, 12, false));
        let line = "--smoke --epochs 4 --scale 0.25 --seed 7 --runs 3 --kmax 12";
        let given = fields(parse(line, ALL).unwrap());
        assert_eq!(given, (0.25, 7, 3, 12, 4, true));
    }

    #[test]
    fn usage_errors_name_the_flag() {
        for (line, expected) in [
            ("--seed 1 --seed 2", "flag --seed given more than once"),
            ("--smoke --smoke", "flag --smoke given more than once"),
            ("--runs", "flag --runs is missing its value"),
            ("runs 3", "expected a --flag, found 'runs'"),
            ("--smoke 1", "expected a --flag, found '1'"),
            ("--runs abc", "flag --runs: cannot parse 'abc'"),
            ("--seed -1", "flag --seed: cannot parse '-1'"),
            ("--scale 0", "flag --scale: 0 is out of range"),
            ("--scale 1.5", "flag --scale: 1.5 is out of range"),
            ("--scale NaN", "flag --scale: NaN is out of range"),
            ("--runs 0", "flag --runs: 0 is out of range"),
            ("--kmax 1", "flag --kmax: 1 is out of range"),
            ("--epochs 1", "flag --epochs: 1 is out of range"),
        ] {
            assert_eq!(parse(line, ALL).unwrap_err(), expected, "{line}");
        }
        let err = parse("--runs 3", &[Flag::Scale(0.2), Flag::Seed]).unwrap_err();
        assert_eq!(err, "unknown flag --runs (accepted: --scale, --seed)");
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn median_quality_runs() {
        let ds = roadpart::datasets::d1(0.2, 3).unwrap();
        let graph = eval_graph(&ds).unwrap();
        let rep = median_quality(&graph, Scheme::ASG, 3, 2, 3).unwrap();
        assert!(rep.k >= 2);
        assert!(rep.ans.is_finite());
    }
}
