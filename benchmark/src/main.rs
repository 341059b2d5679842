//! `roadbench`: run the benchmark, or compare two recorded results.
//!
//! ```text
//! roadbench run [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
//!               [--threads N] [--smoke] [--out FILE]
//! roadbench compare A.json B.json
//! ```
//!
//! `run` executes each selected workload (default: all four) in a child
//! process of its own, one after another, so that peak memory and caches
//! stay separate per workload. It prints every metric as
//! `workload metric value unit`, writes the run record to
//! `benchmark/target/roadbench/` (or appends it to `--out FILE`), and ends
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is non-zero when any operation failed.

use roadbench::{compare, host, output_dir, RunConfig, Workload, END_TO_END, PER_LAYER};
use serde_json::{json, Map, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage: roadbench run [--workload NAME]... [--seed N] [--seconds S] \
[--trace [0|1]] [--threads N] [--smoke] [--out FILE]\n       roadbench compare A.json B.json";

/// Parsed `run`/`child` flags.
struct Flags {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workloads: Vec::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        threads: host::nproc(),
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                f.workloads
                    .push(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                f.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                f.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--threads" => {
                f.threads = value("--threads")?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?
                    .max(1);
            }
            "--trace" => {
                f.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => f.smoke = true,
            "--out" => f.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if f.workloads.is_empty() {
        f.workloads = Workload::ALL.to_vec();
    }
    Ok(f)
}

/// Runs one workload in this process and prints its report as one line.
fn child(flags: &Flags) -> ExitCode {
    let Some(&workload) = flags.workloads.first() else {
        return ExitCode::FAILURE;
    };
    let cfg = RunConfig {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        threads: flags.threads,
        smoke: flags.smoke,
        epoch: Instant::now(),
    };
    let report = roadbench::run_workload(&cfg);
    println!(
        "{}",
        serde_json::to_string(&report.to_json(&cfg)).unwrap_or_default()
    );
    ExitCode::SUCCESS
}

/// Runs `workload` in a child process and returns its report, or a failed
/// report when the child died or printed nothing parseable.
fn spawn(workload: Workload, flags: &Flags) -> Value {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("roadbench"));
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload.name()])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if flags.trace { "1" } else { "0" }])
        .args(["--threads", &flags.threads.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if flags.smoke {
        cmd.arg("--smoke");
    }
    let died = |why: String| {
        json!({
            "workload": workload.name(),
            "attempted": 1,
            "failed": 1,
            "failures": [why],
            "metrics": {},
            "layers": {},
        })
    };
    match cmd.output() {
        Ok(out) if out.status.success() => {
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines()
                .last()
                .and_then(|l| serde_json::from_str::<Value>(l).ok())
                .unwrap_or_else(|| died("workload printed no report".into()))
        }
        Ok(out) => died(format!("workload process exited with {}", out.status)),
        Err(e) => died(format!("cannot start workload process: {e}")),
    }
}

/// Stores the run record: appended to `--out FILE`, or written to
/// `benchmark/target/roadbench/run-<workloads>-seed<N>[-trace][-t<threads>].json`
/// (`<workloads>` is `all` or the selected names joined by `+`).
fn save(record: &Value, flags: &Flags) -> Result<PathBuf, String> {
    let (path, doc) = match &flags.out {
        Some(path) => {
            let mut runs: Vec<Value> = std::fs::read_to_string(path)
                .ok()
                .and_then(|t| serde_json::from_str::<Value>(&t).ok())
                .and_then(|v| {
                    v.get("runs")
                        .and_then(Value::as_array)
                        .map(<[Value]>::to_vec)
                })
                .unwrap_or_default();
            runs.push(record.clone());
            (path.clone(), json!({ "runs": runs }))
        }
        None => {
            let which = if flags.workloads.len() == Workload::ALL.len() {
                "all".to_string()
            } else {
                let names: Vec<&str> = flags.workloads.iter().map(|w| w.name()).collect();
                names.join("+")
            };
            let mut name = format!("run-{which}-seed{}", flags.seed);
            if flags.trace {
                name.push_str("-trace");
            }
            if flags.threads != host::nproc() {
                name.push_str(&format!("-t{}", flags.threads));
            }
            (output_dir().join(format!("{name}.json")), record.clone())
        }
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&doc).map_err(|e| format!("{e:?}"))?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run(flags: &Flags) -> ExitCode {
    let (nproc, l2, llc) = (host::nproc(), host::l2_bytes(), host::llc_bytes());
    let bytes = |b: Option<u64>| b.map_or("unknown".to_string(), |b| b.to_string());
    println!(
        "roadbench: seed {} seconds {} trace {} nproc {nproc} pool width {} L2 {} B LLC {} B",
        flags.seed,
        flags.seconds,
        u8::from(flags.trace),
        flags.threads,
        bytes(l2),
        bytes(llc),
    );
    let specs = if flags.trace { PER_LAYER } else { END_TO_END };
    let section = if flags.trace { "layers" } else { "metrics" };
    let single = flags.workloads.len() == 1;
    let mut workloads = Map::new();
    let mut summary = Map::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for &w in &flags.workloads {
        let report = spawn(w, flags);
        let name = w.name();
        let (a, f) = (
            report["attempted"].as_u64().unwrap_or(1),
            report["failed"].as_u64().unwrap_or(1),
        );
        attempted += a;
        failed += f;
        for spec in specs {
            let m = &report[section][spec.name];
            if let Some(v) = m["value"].as_f64() {
                println!("{name} {} {v} {}", spec.name, spec.unit);
                let key = if single {
                    spec.name.to_string()
                } else {
                    format!("{name}/{}", spec.name)
                };
                summary.insert(key, m.clone());
            }
        }
        println!("{name} ops_attempted {a} count");
        println!("{name} ops_failed {f} count");
        if let Some(list) = report["failures"].as_array() {
            for why in list {
                eprintln!("roadbench: {name}: {}", why.as_str().unwrap_or("?"));
            }
        }
        workloads.insert(name.to_string(), report);
    }
    let record = json!({
        "seed": flags.seed,
        "seconds": flags.seconds,
        "trace": flags.trace,
        "threads": flags.threads,
        "smoke": flags.smoke,
        "host": {
            "nproc": nproc,
            "pool_width": flags.threads,
            "l2_bytes": l2,
            "llc_bytes": llc,
        },
        "workloads": Value::Object(workloads),
    });
    match save(&record, flags) {
        Ok(path) => eprintln!("roadbench: wrote {}", path.display()),
        Err(e) => eprintln!("roadbench: cannot save results: {e}"),
    }
    let attempted = attempted.max(1);
    println!(
        "{}",
        serde_json::to_string(&json!({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": Value::Object(summary),
        }))
        .unwrap_or_default()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| serde_json::from_str::<Value>(&t).map_err(|e| format!("{p}: {e:?}")))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, regressed) = compare::compare(&a, &b);
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("roadbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "compare" => compare_files(rest),
        "run" | "child" => match parse_flags(rest) {
            Ok(flags) if command == "run" => run(&flags),
            Ok(flags) => child(&flags),
            Err(e) => {
                eprintln!("roadbench: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
