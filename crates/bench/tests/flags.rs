//! Flag validation through the built experiment binaries: every flag
//! `run_experiments.sh` passes is accepted, and a bad flag exits with
//! status 2 naming the flag before any experiment work starts.

use std::path::Path;

/// Asserts `bin args` exits 2 with a message containing `named`.
fn rejects(bin: &str, args: &[&str], named: &str) {
    // Cargo builds every binary of the package next to this one.
    let exe = Path::new(env!("CARGO_BIN_EXE_table1"))
        .with_file_name(format!("{bin}{}", std::env::consts::EXE_SUFFIX));
    let out = std::process::Command::new(&exe)
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(named), "{bin} {args:?}: {stderr}");
}

/// Parsing is in order, so an unknown trailing flag is the one named only
/// if every flag before it was accepted.
fn accepts(bin: &str, args: &[&str]) {
    let args = [args, &["--no-such-flag", "1"]].concat();
    rejects(bin, &args, "unknown flag --no-such-flag");
}

#[test]
fn every_run_experiments_command_parses() {
    let script = include_str!("../../../run_experiments.sh");
    let commands: Vec<Vec<&str>> = script
        .lines()
        .filter_map(|line| line.trim().strip_prefix("run "))
        .map(|rest| rest.split_whitespace().collect())
        .collect();
    assert_eq!(commands.len(), 10, "one per paper artefact and ablation");
    for command in commands {
        accepts(command[0], &command[1..]);
    }
    // run_checks.sh and CI run the drift bench with a bare --smoke.
    accepts("drift_bench", &["--smoke", "--epochs", "4", "--seed", "1"]);
    // A binary accepts only the flags it uses.
    rejects("table1", &["--runs", "3"], "unknown flag --runs");
    rejects(
        "fig4",
        &["--runs", "abc"],
        "flag --runs: cannot parse 'abc'",
    );
}
