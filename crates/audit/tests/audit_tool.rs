//! End-to-end tests for the audit pass: a synthetic workspace with seeded
//! violations must fail (exit 1), baselining must absorb them (exit 0),
//! and the real roadpart workspace must be clean against its committed
//! baseline — with the call-graph self-checks (resolution rate, root
//! coverage, hot-set re-derivation) pinned on the real code.

use roadpart_audit::{Config, EXIT_CLEAN, EXIT_VIOLATIONS};
use std::path::{Path, PathBuf};

/// Builds a throwaway workspace with one crate whose lib seeds one
/// violation of every per-file rule plus a panic site.
fn seeded_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("roadpart-audit-{tag}-{}", std::process::id()));
    let src_dir = root.join("crates/seeded/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .unwrap();
    std::fs::write(
        root.join("crates/seeded/Cargo.toml"),
        "[package]\nname = \"seeded\"\nversion = \"0.0.0\"\n",
    )
    .unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        r#"
/// Seeded violations, one per audit rule.
pub fn panics(x: Option<usize>) -> usize {
    x.unwrap()
}

pub fn compares(a: f64, b: f64) -> bool {
    a.partial_cmp(&b).is_some()
}

pub fn pokes(m: &CsrLike) -> usize {
    m.row_ptr[0]
}

/// Returns a result but never says when it errs.
pub fn undocumented() -> Result<(), ()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        None::<usize>.unwrap();
    }
}
"#,
    )
    .unwrap();
    root
}

fn config_for(root: &Path) -> Config {
    Config::for_root(root.to_path_buf())
}

/// Real-workspace config with scratch output paths so parallel test
/// binaries don't race on `target/audit`.
fn real_workspace_config(tag: &str) -> Config {
    // CARGO_MANIFEST_DIR = crates/audit → workspace root two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf();
    let mut cfg = Config::for_root(root);
    let scratch = std::env::temp_dir();
    cfg.report_path = scratch.join(format!(
        "roadpart-audit-{tag}-report-{}.json",
        std::process::id()
    ));
    cfg.callgraph_path = scratch.join(format!(
        "roadpart-audit-{tag}-callgraph-{}.json",
        std::process::id()
    ));
    cfg
}

#[test]
fn seeded_violations_fail_with_nonzero_exit() {
    let root = seeded_workspace("fail");
    let cfg = config_for(&root);
    let outcome = roadpart_audit::run(&cfg).unwrap();

    assert_eq!(outcome.exit_code, EXIT_VIOLATIONS);
    assert_eq!(outcome.crates_scanned, 1);
    let rules: Vec<&str> = outcome.violations.iter().map(|v| v.rule.as_str()).collect();
    for rule in [
        "panic-reachability",
        "total-order",
        "csr-raw-indexing",
        "missing-errors-doc",
    ] {
        assert!(
            rules.contains(&rule),
            "missing seeded rule {rule}: {rules:?}"
        );
    }
    // The cfg(test) unwrap is exempt: exactly one panic finding, and with
    // no declared entry points in the synthetic crate its note says so.
    let panics: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == "panic-reachability")
        .collect();
    assert_eq!(panics.len(), 1);
    assert!(panics[0]
        .note
        .as_deref()
        .unwrap()
        .contains("not reachable from any declared entry point"));

    // The machine-readable report landed and mirrors the exit code.
    let report = std::fs::read_to_string(&cfg.report_path).unwrap();
    let value: serde_json::Value = serde_json::from_str(&report).unwrap();
    assert_eq!(value["summary"]["exit_code"].as_f64(), Some(1.0));
    assert_eq!(
        value["summary"]["violations"].as_f64(),
        Some(outcome.violations.len() as f64)
    );

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn update_baseline_absorbs_then_ratchets() {
    let root = seeded_workspace("ratchet");
    let mut cfg = config_for(&root);

    cfg.update_baseline = true;
    let outcome = roadpart_audit::run(&cfg).unwrap();
    assert_eq!(outcome.exit_code, EXIT_CLEAN);
    assert!(cfg.baseline_path.is_file(), "baseline file written");
    // Freshly absorbed allowances carry the TODO marker until a reviewer
    // writes a real justification, and stay visible as unjustified.
    let baseline_text = std::fs::read_to_string(&cfg.baseline_path).unwrap();
    assert!(baseline_text.contains("\"version\": 2"));
    assert!(baseline_text.contains("TODO"));

    // Same workspace against the fresh baseline: clean but flagged.
    cfg.update_baseline = false;
    let outcome = roadpart_audit::run(&cfg).unwrap();
    assert_eq!(outcome.exit_code, EXIT_CLEAN);
    assert!(outcome.regressions.is_empty());
    assert!(outcome.ratchet.is_empty());
    assert!(
        !outcome.unjustified_allowances.is_empty(),
        "TODO-marked allowances must be reported"
    );

    // Fixing the panic site turns the allowance into a ratchet hint.
    let lib = root.join("crates/seeded/src/lib.rs");
    let fixed = std::fs::read_to_string(&lib)
        .unwrap()
        .replace("x.unwrap()", "x.unwrap_or(0)");
    std::fs::write(&lib, fixed).unwrap();
    let outcome = roadpart_audit::run(&cfg).unwrap();
    assert_eq!(outcome.exit_code, EXIT_CLEAN);
    assert_eq!(outcome.ratchet.len(), 1);
    assert_eq!(outcome.ratchet[0].rule, "panic-reachability");

    // Regressing fails against the same baseline: the fix above freed one
    // allowance slot, so it takes two fresh panic sites to exceed it.
    let lib_src = std::fs::read_to_string(&lib).unwrap().replace(
        "Ok(())",
        "{ None::<()>.unwrap(); Some(()).unwrap(); Ok(()) }",
    );
    std::fs::write(&lib, lib_src).unwrap();
    let outcome = roadpart_audit::run(&cfg).unwrap();
    assert_eq!(outcome.exit_code, EXIT_VIOLATIONS);
    assert!(outcome
        .regressions
        .iter()
        .any(|d| d.rule == "panic-reachability" && d.found > d.allowed));

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn legacy_v1_baseline_still_audits() {
    let root = seeded_workspace("v1compat");
    let cfg = config_for(&root);
    // A committed v1 baseline (bare counts, pre-rename rule id) must keep
    // the workspace green until --update-baseline migrates it.
    std::fs::write(
        &cfg.baseline_path,
        "{\"allowances\": {\"seeded\": {\"no-panic\": 1, \"total-order\": 1, \
         \"csr-raw-indexing\": 1, \"missing-errors-doc\": 1}}}",
    )
    .unwrap();
    let outcome = roadpart_audit::run(&cfg).unwrap();
    assert_eq!(
        outcome.exit_code, EXIT_CLEAN,
        "v1 allowances must absorb the seeded findings: {:?}",
        outcome.regressions
    );
    assert_eq!(
        outcome.unjustified_allowances.len(),
        4,
        "v1 entries all load as unjustified"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn real_workspace_is_clean_against_committed_baseline() {
    let cfg = real_workspace_config("selfcheck");
    let outcome = roadpart_audit::run(&cfg).unwrap();
    let mut diagnostics = Vec::new();
    roadpart_audit::report::human(&mut diagnostics, &outcome).unwrap();
    assert_eq!(
        outcome.exit_code,
        EXIT_CLEAN,
        "workspace regressed against AUDIT_baseline.json:\n{}",
        String::from_utf8_lossy(&diagnostics)
    );
    // The ratcheted-to-zero crates must stay spotless: no findings at
    // all, not even baselined ones. `hot-loop-alloc` is exempt — it is
    // a budget rule whose baseline deliberately pins the residual
    // allocation sites of the hot set (the EXIT_CLEAN check above still
    // enforces its ratchet).
    for krate in [
        "roadpart-cluster",
        "roadpart-cut",
        "roadpart-eval",
        "roadpart-serve",
    ] {
        let findings: Vec<_> = outcome
            .violations
            .iter()
            .filter(|v| v.krate == krate && v.rule != "hot-loop-alloc")
            .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.excerpt))
            .collect();
        assert!(
            findings.is_empty(),
            "{krate} must be violation-free:\n{}",
            findings.join("\n")
        );
    }
    // The serving Dijkstra inner loop is pinned harder still: its hot
    // kernels are designed allocation-free, so even the budget rule must
    // report nothing there.
    let serve_hot: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.krate == "roadpart-serve")
        .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.excerpt))
        .collect();
    assert!(
        serve_hot.is_empty(),
        "roadpart-serve must have zero findings of any rule:\n{}",
        serve_hot.join("\n")
    );
    std::fs::remove_file(&cfg.report_path).ok();
    std::fs::remove_file(&cfg.callgraph_path).ok();
}

#[test]
fn real_workspace_call_graph_self_checks() {
    let cfg = real_workspace_config("graphcheck");
    let outcome = roadpart_audit::run(&cfg).unwrap();

    // Every declared entry point and hot root must resolve — a rename
    // that silently dropped interprocedural coverage fails here.
    assert!(
        outcome.missing_roots.is_empty(),
        "declared roots missing from the workspace: {:?}",
        outcome.missing_roots
    );
    assert!(
        outcome.entry_points >= 10,
        "expected the 10 declared entry points to resolve, got {}",
        outcome.entry_points
    );

    // Call-site extraction quality gate: at least 95% of
    // workspace-internal call sites resolve, over a non-vacuous corpus.
    assert!(
        outcome.resolution.internal_sites >= 1000,
        "suspiciously few internal call sites ({}) — extractor regression?",
        outcome.resolution.internal_sites
    );
    assert!(
        outcome.resolution.rate() >= 0.95,
        "internal call-site resolution dropped to {:.3} ({} / {})",
        outcome.resolution.rate(),
        outcome.resolution.resolved_sites,
        outcome.resolution.internal_sites
    );

    // Panic-freedom pin: zero panic-reachability findings anywhere in
    // library code — in particular every path out of the serve query
    // surface and the stream epoch loop.
    let panics: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == "panic-reachability")
        .map(|v| {
            format!(
                "{}:{} {} ({})",
                v.file,
                v.line,
                v.excerpt,
                v.note.as_deref().unwrap_or("")
            )
        })
        .collect();
    assert!(
        panics.is_empty(),
        "library code must be panic-free:\n{}",
        panics.join("\n")
    );

    // The inferred hot set must re-derive at least the 16 allocation
    // sites the old hardcoded file list pinned (linalg + cluster), purely
    // from the call-graph closure of the solver/serving roots.
    let hot_alloc: usize = outcome
        .counts
        .iter()
        .filter(|((krate, rule), _)| {
            rule == "hot-loop-alloc" && (krate == "roadpart-linalg" || krate == "roadpart-cluster")
        })
        .map(|(_, &n)| n)
        .sum();
    assert!(
        hot_alloc >= 16,
        "hot-set inference lost previously pinned allocation sites: {hot_alloc}"
    );
    assert!(outcome.hot_set_size >= 20, "hot set implausibly small");

    // Every committed baseline allowance carries a written justification.
    assert!(
        outcome.unjustified_allowances.is_empty(),
        "baseline entries without justification: {:?}",
        outcome.unjustified_allowances
    );

    // The call-graph dump is valid JSON with the documented top-level
    // shape and a consistent resolution block.
    let dump = std::fs::read_to_string(&cfg.callgraph_path).unwrap();
    let value: serde_json::Value = serde_json::from_str(&dump).unwrap();
    let functions = value["functions"].as_array().unwrap();
    assert!(functions.len() >= 400, "got {} functions", functions.len());
    assert!(!value["entry_points"].as_array().unwrap().is_empty());
    assert!(!value["hot_set"].as_array().unwrap().is_empty());
    assert_eq!(
        value["resolution"]["internal_sites"].as_f64(),
        Some(outcome.resolution.internal_sites as f64)
    );

    std::fs::remove_file(&cfg.report_path).ok();
    std::fs::remove_file(&cfg.callgraph_path).ok();
}
