//! Smoke runs of the whole benchmark against its declaration in
//! `BENCHMARK.json`.

use serde_json::Value;
use std::process::Command;

fn declaration() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to benchmark/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(decl: &Value, section: &str) -> Vec<(String, String)> {
    decl[section]
        .as_array()
        .unwrap_or_else(|| panic!("{section} is a list"))
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().unwrap_or("").to_string(),
            )
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs `roadbench run --smoke` and returns the final JSON line.
fn smoke(trace: bool) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_roadbench"));
    cmd.args([
        "run",
        "--smoke",
        "--seed",
        "3",
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    let out = cmd.output().expect("roadbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {}: {stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).expect("last line is JSON")
}

fn assert_emits(section: &str, trace: bool) {
    let decl = declaration();
    let result = smoke(trace);
    assert_eq!(result["correct"].as_bool(), Some(true));
    assert_eq!(result["failed"].as_u64(), Some(0));
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
    let metrics = result["metrics"].as_object().expect("metrics object");
    for (workload, _) in names(&decl, "workloads") {
        for (metric, unit) in names(&decl, section) {
            let key = format!("{workload}/{metric}");
            let m = metrics.get(&key).unwrap_or_else(|| panic!("{key} missing"));
            assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{key} unit");
            let v = m["value"].as_f64().unwrap_or(f64::NAN);
            assert!(v.is_finite(), "{key} = {v}");
        }
    }
}

#[test]
fn declared_names_are_well_formed_and_match_the_code() {
    let decl = declaration();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for (name, unit) in names(&decl, section) {
            assert!(is_name(&name), "{section}: bad name {name:?}");
            assert!(
                section == "workloads"
                    || (!unit.is_empty()
                        && unit.len() <= 16
                        && unit.chars().all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-'))),
                "{name}: bad unit {unit:?}"
            );
        }
    }
    let workloads: Vec<String> = names(&decl, "workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<&str> = roadbench::Workload::ALL
        .map(roadbench::Workload::name)
        .to_vec();
    assert_eq!(workloads, ours);
    for (section, specs) in [
        ("end_to_end", roadbench::END_TO_END),
        ("per_layer", roadbench::PER_LAYER),
    ] {
        let declared = decl[section].as_array().expect("list");
        assert_eq!(declared.len(), specs.len(), "{section} length");
        for (d, s) in declared.iter().zip(specs) {
            assert_eq!(d["name"].as_str(), Some(s.name));
            assert_eq!(d["unit"].as_str(), Some(s.unit), "{}", s.name);
            let better = if s.lower_is_better { "lower" } else { "higher" };
            assert_eq!(d["better"].as_str(), Some(better), "{}", s.name);
            if section == "end_to_end" {
                assert_eq!(d["bound"].as_f64(), Some(s.bound), "{}", s.name);
            }
        }
    }
}

#[test]
fn smoke_run_emits_every_end_to_end_metric() {
    assert_emits("end_to_end", false);
}

#[test]
fn traced_smoke_run_emits_every_per_layer_metric() {
    assert_emits("per_layer", true);
}
