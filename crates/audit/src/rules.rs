//! The audit rules: per-file matchers plus the interprocedural rules that
//! run over the workspace call graph (see [`crate::graph`]).
//!
//! Per-file rules (`total-order`, `csr-raw-indexing`, `thread-spawn`,
//! `missing-errors-doc`) need only one [`MaskedFile`]. The three
//! graph rules need the whole workspace:
//!
//! * [`PANIC_REACHABILITY`] — every panic site (`unwrap`/`expect`/
//!   `panic!`/`unreachable!`/`todo!`/`unimplemented!`) in library code is
//!   a violation; sites transitively reachable from a declared
//!   [`ENTRY_POINTS`] root carry the full entry-to-site call chain in the
//!   diagnostic.
//! * [`HOT_LOOP_ALLOC`] — allocation sites inside the *hot set*, the
//!   call-graph closure of the [`HOT_ROOTS`] (eigensolve, k-means, the
//!   Dijkstra serving kernels), are ratcheted. The hot set is inferred,
//!   not a hardcoded file list: a new helper called from a hot kernel is
//!   budgeted automatically.
//! * [`FLOAT_DETERMINISM`] — `max_by`/`min_by` without a total order,
//!   any `HashMap`/`HashSet` in library code (iteration order is
//!   per-process random), and unordered float reductions
//!   (`sum`/`product`/arithmetic `fold`) inside the hot set. The blessed
//!   reduction primitives — `linalg::par`'s ordered fixed-chunk merges and
//!   `linalg::vecops`' fixed-tree lane reductions — are the sanctioned
//!   homes for reductions and are exempt.

use crate::graph::CallGraph;
use crate::items::SiteKind;
use crate::scan::MaskedFile;
use crate::tokens::{indexed_idents, method_calls, token_positions};
use std::collections::BTreeSet;

/// Identifier for the interprocedural panic rule.
pub const PANIC_REACHABILITY: &str = "panic-reachability";
/// Identifier for the total-order float comparison rule.
pub const TOTAL_ORDER: &str = "total-order";
/// Identifier for the CSR encapsulation rule.
pub const CSR_RAW_INDEXING: &str = "csr-raw-indexing";
/// Identifier for the mandatory `# Errors` doc rule.
pub const MISSING_ERRORS_DOC: &str = "missing-errors-doc";
/// Identifier for the thread-spawn containment rule.
pub const THREAD_SPAWN: &str = "thread-spawn";
/// Identifier for the hot-set allocation rule.
pub const HOT_LOOP_ALLOC: &str = "hot-loop-alloc";
/// Identifier for the float-determinism rule.
pub const FLOAT_DETERMINISM: &str = "float-determinism";

/// `(id, requirement)` for every rule, in reporting order.
pub const RULES: &[(&str, &str)] = &[
    (
        PANIC_REACHABILITY,
        "library code must not call unwrap()/expect() or invoke \
         panic!/unreachable!/todo!/unimplemented!; propagate a Result or \
         use a total/defaulting combinator. Sites reachable from a \
         declared entry point (pipeline, stream epoch loop, serve query \
         path) report the full call chain",
    ),
    (
        TOTAL_ORDER,
        "float comparisons must route through roadpart_linalg::ord or \
         f64::total_cmp, never PartialOrd::partial_cmp",
    ),
    (
        CSR_RAW_INDEXING,
        "CSR internals (row_ptr/col_idx/indptr/indices) may be indexed \
         raw only inside roadpart-linalg; other crates use accessors",
    ),
    (
        MISSING_ERRORS_DOC,
        "public Result-returning APIs must document a `# Errors` section",
    ),
    (
        THREAD_SPAWN,
        "threads may be spawned only inside roadpart-linalg (the `par` \
         thread pool); other crates take a `ThreadPool` and stay \
         deterministic through its ordered reductions",
    ),
    (
        HOT_LOOP_ALLOC,
        "functions in the hot set — the call-graph closure of the \
         eigensolver, k-means, and Dijkstra serving kernels — must draw \
         scratch buffers from a Workspace/DijkstraScratch pool; \
         Vec::new/vec!/to_vec()/clone() sites there are ratcheted",
    ),
    (
        FLOAT_DETERMINISM,
        "float orderings use total_cmp/cmp_f64; library code uses BTree \
         collections (HashMap/HashSet iteration order is per-process \
         random); hot-set float reductions are written as explicit ordered \
         loops or routed through the blessed primitives: linalg::par's \
         fixed-chunk ordered merges and linalg::vecops' fixed-tree lane \
         reductions",
    ),
];

/// Declared interprocedural entry points `(crate, fn)` — the public
/// surfaces a deployment actually drives. A root listed here that no
/// longer resolves to a workspace function is reported via
/// [`GraphFindings::missing_roots`] (and pinned to empty by the audit
/// self-test), so a rename cannot silently drop coverage.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    // Offline pipeline (PAPER §3: the three-stage partitioning pipeline),
    // k selection (`select-k`) and the JG baseline (`partition --scheme
    // jg`); the core crate's package name is plain `roadpart`.
    ("roadpart", "partition_network"),
    ("roadpart", "run_supervised"),
    ("roadpart", "select_k"),
    ("roadpart", "jg_partition"),
    // Stream engine epoch loop and ingest surface.
    ("roadpart-stream", "run_epoch"),
    ("roadpart-stream", "ingest"),
    // Partition-aware query serving.
    ("roadpart-serve", "query"),
    ("roadpart-serve", "query_with"),
    ("roadpart-serve", "run_batch"),
    ("roadpart-serve", "refresh"),
    ("roadpart-serve", "exact_route"),
];

/// Hot-set roots `(crate, fn)`: the solver and serving kernels whose
/// call-graph closure defines where per-call allocation is budgeted.
pub const HOT_ROOTS: &[(&str, &str)] = &[
    ("roadpart-linalg", "sym_eigs_ws"),
    ("roadpart-linalg", "sym_eigs_recovering"),
    ("roadpart-linalg", "sym_eigs_recovering_ws"),
    ("roadpart-cluster", "kmeans"),
    ("roadpart-serve", "run_forward"),
    ("roadpart-serve", "run_backward"),
    ("roadpart-serve", "run_overlay"),
];

/// Files exempt from the float-reduction arm of [`FLOAT_DETERMINISM`]:
/// the blessed reduction primitives themselves — the ordered fixed-chunk
/// parallel reductions in `linalg::par`, and the fixed-order lane-unrolled
/// reductions in `linalg::vecops` (`dot`/`norm2` and friends), whose
/// `LANES`-wide accumulators fold through a fixed reduction tree and are
/// therefore bit-reproducible at every input length (see the vecops module
/// docs and its canonical-model tests).
const FLOAT_REDUCE_EXEMPT_FILES: &[&str] =
    &["crates/linalg/src/par.rs", "crates/linalg/src/vecops.rs"];

/// One lint finding at a specific source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule identifier (one of the constants in this module).
    pub rule: String,
    /// Package name of the crate the file belongs to.
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Trimmed raw source line, for diagnostics.
    pub excerpt: String,
    /// Interprocedural context — e.g. the entry-point call chain that
    /// reaches a panic site, or the hot root that pulls a function into
    /// the allocation budget.
    pub note: Option<String>,
}

/// What the graph rules produced beyond violations.
#[derive(Debug, Default)]
pub struct GraphFindings {
    /// Violations from the three interprocedural rules.
    pub violations: Vec<Violation>,
    /// Resolved entry-point node ids.
    pub entry_ids: Vec<usize>,
    /// The inferred hot set (node ids).
    pub hot_set: BTreeSet<usize>,
    /// Declared roots that matched no workspace function — extraction or
    /// rename drift; the self-test pins this empty on the real workspace.
    pub missing_roots: Vec<(String, String)>,
}

/// Runs the per-file rules over one prepared file.
pub fn apply_file(krate: &str, file: &str, masked: &MaskedFile) -> Vec<Violation> {
    let mut lines = Vec::new();
    total_order(masked, &mut lines);
    if krate != "roadpart-linalg" {
        csr_raw_indexing(masked, &mut lines);
        thread_spawn(masked, &mut lines);
    }
    missing_errors_doc(masked, &mut lines);
    lines
        .into_iter()
        .filter(|(_, line)| !masked.is_exempt(*line))
        .map(|(rule, line)| Violation {
            rule: rule.to_string(),
            krate: krate.to_string(),
            file: file.to_string(),
            line,
            excerpt: masked.excerpt(line),
            note: None,
        })
        .collect()
}

/// Runs the interprocedural rules over the workspace call graph.
pub fn apply_graph(g: &CallGraph) -> GraphFindings {
    let mut out = GraphFindings::default();

    let mut entry_ids = Vec::new();
    for &(krate, name) in ENTRY_POINTS {
        let ids = g.find_fns(krate, name);
        if ids.is_empty() {
            out.missing_roots
                .push((krate.to_string(), name.to_string()));
        }
        entry_ids.extend(ids);
    }
    let mut hot_roots = Vec::new();
    for &(krate, name) in HOT_ROOTS {
        let ids = g.find_fns(krate, name);
        if ids.is_empty() {
            out.missing_roots
                .push((krate.to_string(), name.to_string()));
        }
        hot_roots.extend(ids);
    }

    let entry_parents = g.reachable(&entry_ids);
    let hot_parents = g.reachable(&hot_roots);
    let hot_set: BTreeSet<usize> = hot_parents.keys().copied().collect();

    for site in &g.sites {
        if site.exempt {
            continue;
        }
        let in_hot = site.node.is_some_and(|id| hot_set.contains(&id));
        match site.kind {
            SiteKind::Panic => {
                let note = match site.node {
                    Some(id) if entry_parents.contains_key(&id) => Some(format!(
                        "{} reachable via {}",
                        site.what,
                        g.render_chain(&g.chain(id, &entry_parents))
                    )),
                    _ => Some(format!(
                        "{} (not reachable from any declared entry point)",
                        site.what
                    )),
                };
                out.violations
                    .push(violation(PANIC_REACHABILITY, site, note));
            }
            SiteKind::Alloc if in_hot => {
                let id = site.node.expect("in_hot implies an enclosing fn");
                let note = Some(format!(
                    "{} in hot set via {}",
                    site.what,
                    g.render_chain(&g.chain(id, &hot_parents))
                ));
                out.violations.push(violation(HOT_LOOP_ALLOC, site, note));
            }
            SiteKind::UntotaledOrd => {
                let note = Some(format!("{} without total_cmp/cmp_f64", site.what));
                out.violations
                    .push(violation(FLOAT_DETERMINISM, site, note));
            }
            SiteKind::HashCollection => {
                let note = Some(format!(
                    "{}: iteration order is per-process random; use the BTree \
                     counterpart",
                    site.what
                ));
                out.violations
                    .push(violation(FLOAT_DETERMINISM, site, note));
            }
            SiteKind::FloatReduce
                if in_hot && !FLOAT_REDUCE_EXEMPT_FILES.contains(&site.file.as_str()) =>
            {
                let id = site.node.expect("in_hot implies an enclosing fn");
                let note = Some(format!(
                    "unordered {} reduction in hot set via {}",
                    site.what,
                    g.render_chain(&g.chain(id, &hot_parents))
                ));
                out.violations
                    .push(violation(FLOAT_DETERMINISM, site, note));
            }
            _ => {}
        }
    }

    out.entry_ids = entry_ids;
    out.hot_set = hot_set;
    out
}

fn violation(rule: &str, site: &crate::graph::SiteRef, note: Option<String>) -> Violation {
    Violation {
        rule: rule.to_string(),
        krate: site.krate.clone(),
        file: site.file.clone(),
        line: site.line,
        excerpt: site.excerpt.clone(),
        note,
    }
}

fn total_order(masked: &MaskedFile, out: &mut Vec<(&'static str, usize)>) {
    for off in method_calls(&masked.masked, "partial_cmp") {
        out.push((TOTAL_ORDER, masked.line_of(off)));
    }
}

fn csr_raw_indexing(masked: &MaskedFile, out: &mut Vec<(&'static str, usize)>) {
    // Bare identifiers only the CSR layout uses; `indices` is a common
    // local-variable name, so it counts only as a field access.
    for name in ["row_ptr", "col_idx", "indptr"] {
        for off in indexed_idents(&masked.masked, name, false) {
            out.push((CSR_RAW_INDEXING, masked.line_of(off)));
        }
    }
    for off in indexed_idents(&masked.masked, "indices", true) {
        out.push((CSR_RAW_INDEXING, masked.line_of(off)));
    }
}

/// Flags thread creation outside `roadpart-linalg`: any `spawn(...)` call
/// (method or path form) and `thread::scope` blocks. The parallel
/// substrate lives in `roadpart_linalg::par`; everything else routes
/// through a [`ThreadPool`] so reductions stay deterministic.
fn thread_spawn(masked: &MaskedFile, out: &mut Vec<(&'static str, usize)>) {
    for off in token_positions(&masked.masked, "spawn") {
        if masked.masked[off + "spawn".len()..]
            .trim_start()
            .starts_with('(')
        {
            out.push((THREAD_SPAWN, masked.line_of(off)));
        }
    }
    for off in token_positions(&masked.masked, "scope") {
        let before = masked.masked[..off].trim_end();
        if before.ends_with("thread::") || before.ends_with("thread ::") {
            out.push((THREAD_SPAWN, masked.line_of(off)));
        }
    }
}

/// Flags `pub fn` items returning `Result` whose doc comment lacks a
/// `# Errors` section. Works on raw lines because doc text is masked out.
fn missing_errors_doc(masked: &MaskedFile, out: &mut Vec<(&'static str, usize)>) {
    for (idx, raw) in masked.raw.iter().enumerate() {
        let trimmed = raw.trim_start();
        let is_pub_fn = [
            "pub fn ",
            "pub async fn ",
            "pub const fn ",
            "pub unsafe fn ",
        ]
        .iter()
        .any(|p| trimmed.starts_with(p));
        if !is_pub_fn {
            continue;
        }
        // Assemble the signature up to its body/terminator.
        let mut signature = String::new();
        for sig_line in masked.raw.iter().skip(idx).take(24) {
            signature.push_str(sig_line);
            signature.push(' ');
            if sig_line.contains('{') || sig_line.trim_end().ends_with(';') {
                break;
            }
        }
        let returns_result = signature.split_once("->").is_some_and(|(_, ret)| {
            ret.contains("Result<") || ret.trim_start().starts_with("Result")
        });
        if !returns_result {
            continue;
        }
        // Walk the contiguous doc/attribute block above the item.
        let mut has_errors_doc = false;
        for j in (0..idx).rev() {
            let above = masked.raw[j].trim_start();
            if above.starts_with("///") {
                if above.contains("# Errors") {
                    has_errors_doc = true;
                    break;
                }
            } else if !(above.starts_with("#[") || above.starts_with("#!")) {
                break;
            }
        }
        if !has_errors_doc {
            out.push((MISSING_ERRORS_DOC, idx + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PreparedFile;
    use crate::scan::mask_source;

    fn rules_on(src: &str) -> Vec<(String, usize)> {
        apply_file("some-crate", "f.rs", &mask_source(src))
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    fn graph_on(files: &[(&str, &str, &str)]) -> (CallGraph, GraphFindings) {
        let prepared: Vec<PreparedFile> = files
            .iter()
            .map(|(k, f, s)| PreparedFile::new(k, f, s))
            .collect();
        let g = CallGraph::build(&prepared);
        let findings = apply_graph(&g);
        (g, findings)
    }

    #[test]
    fn partial_cmp_flagged() {
        let found = rules_on("fn f(a: f64, b: f64) {\n    let _ = a.partial_cmp(&b);\n}\n");
        assert_eq!(found, vec![(TOTAL_ORDER.to_string(), 2)]);
    }

    #[test]
    fn csr_indexing_flagged_outside_linalg_only() {
        let src = "fn f(m: &M) -> usize {\n    m.row_ptr[3] + m.indices[0]\n}\n";
        let outside = apply_file("roadpart-net", "f.rs", &mask_source(src));
        assert_eq!(outside.len(), 2);
        assert!(outside.iter().all(|v| v.rule == CSR_RAW_INDEXING));
        let inside = apply_file("roadpart-linalg", "f.rs", &mask_source(src));
        assert!(inside.is_empty());
    }

    #[test]
    fn plain_indices_variable_is_not_flagged() {
        let found = rules_on("fn f(indices: &[usize]) -> usize {\n    indices[0]\n}\n");
        assert!(found.is_empty());
    }

    #[test]
    fn result_fn_without_errors_doc_flagged() {
        let src = "\
/// Does a thing.
pub fn bad() -> Result<(), E> {
    Ok(())
}

/// Does a thing.
///
/// # Errors
/// Never, actually.
pub fn good() -> Result<(), E> {
    Ok(())
}

/// No Result here.
pub fn unrelated() -> usize {
    0
}
";
        let found = rules_on(src);
        assert_eq!(found, vec![(MISSING_ERRORS_DOC.to_string(), 2)]);
    }

    #[test]
    fn multi_line_signature_with_attribute_between_docs() {
        let src = "\
/// Docs.
///
/// # Errors
/// When it fails.
#[inline]
pub fn long(
    a: usize,
    b: usize,
) -> Result<usize, E> {
    Ok(a + b)
}
";
        assert!(rules_on(src).is_empty());
    }

    #[test]
    fn thread_spawn_flagged_outside_linalg_only() {
        let src = "fn f() {\n    std::thread::spawn(|| {});\n    std::thread::scope(|s| {\n        s.spawn(|| {});\n    });\n}\n";
        let outside = apply_file("roadpart-stream", "f.rs", &mask_source(src));
        let mut spawns: Vec<usize> = outside
            .iter()
            .filter(|v| v.rule == THREAD_SPAWN)
            .map(|v| v.line)
            .collect();
        spawns.sort_unstable();
        assert_eq!(spawns, vec![2, 3, 4]);
        let inside = apply_file("roadpart-linalg", "f.rs", &mask_source(src));
        assert!(inside.iter().all(|v| v.rule != THREAD_SPAWN));
    }

    #[test]
    fn unrelated_spawn_like_identifiers_pass() {
        let src = "fn f() {\n    let spawn_count = 1;\n    respawn(spawn_count);\n    let scope = 2;\n    let _ = (spawn_count, scope);\n}\n";
        let found = apply_file("roadpart-stream", "f.rs", &mask_source(src));
        assert!(found.iter().all(|v| v.rule != THREAD_SPAWN), "{found:?}");
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "fn f() {\n    // a.unwrap() here\n    let s = \"b.expect(c) panic!()\";\n    let _ = s;\n}\n";
        assert!(rules_on(src).is_empty());
    }

    // ---- interprocedural rules ----

    #[test]
    fn panic_sites_carry_entry_chains() {
        let (_, findings) = graph_on(&[(
            "roadpart-serve",
            "crates/serve/src/engine.rs",
            "\
pub fn query(x: Option<usize>) -> usize { inner(x) }
fn inner(x: Option<usize>) -> usize { x.unwrap() }
fn dead(x: Option<usize>) -> usize { x.expect(\"no\") }
",
        )]);
        let panics: Vec<&Violation> = findings
            .violations
            .iter()
            .filter(|v| v.rule == PANIC_REACHABILITY)
            .collect();
        assert_eq!(panics.len(), 2, "both sites flagged: {panics:?}");
        let reachable = panics.iter().find(|v| v.line == 2).unwrap();
        let note = reachable.note.as_deref().unwrap();
        assert!(
            note.contains("roadpart_serve::engine::query")
                && note.contains("roadpart_serve::engine::inner"),
            "chain in note: {note}"
        );
        let dead = panics.iter().find(|v| v.line == 3).unwrap();
        assert!(dead
            .note
            .as_deref()
            .unwrap()
            .contains("not reachable from any declared entry point"));
    }

    #[test]
    fn cfg_test_panics_are_exempt() {
        let (_, findings) = graph_on(&[(
            "roadpart-serve",
            "crates/serve/src/engine.rs",
            "\
pub fn query() -> usize { 0 }
#[cfg(test)]
mod tests {
    fn t(x: Option<usize>) -> usize { x.unwrap() }
}
",
        )]);
        assert!(findings
            .violations
            .iter()
            .all(|v| v.rule != PANIC_REACHABILITY));
    }

    #[test]
    fn hot_set_is_the_closure_of_hot_roots() {
        let (g, findings) = graph_on(&[
            (
                "roadpart-cluster",
                "crates/cluster/src/kmeans.rs",
                "\
pub fn kmeans(n: usize) -> Vec<f64> { seed_buffers(n) }
fn seed_buffers(n: usize) -> Vec<f64> { vec![0.0; n] }
",
            ),
            (
                "roadpart-cluster",
                "crates/cluster/src/labels.rs",
                "pub fn relabel(n: usize) -> Vec<usize> { vec![0; n] }\n",
            ),
        ]);
        // `seed_buffers` is hot via the kmeans root even though no file
        // list mentions it; `relabel` is cold, so its vec! passes.
        let hot: Vec<&Violation> = findings
            .violations
            .iter()
            .filter(|v| v.rule == HOT_LOOP_ALLOC)
            .collect();
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert_eq!(hot[0].line, 2);
        assert!(hot[0].note.as_deref().unwrap().contains("kmeans"));
        let relabel = g.find_fns("roadpart-cluster", "relabel")[0];
        assert!(!findings.hot_set.contains(&relabel));
    }

    #[test]
    fn float_determinism_arms() {
        let (_, findings) = graph_on(&[(
            "roadpart-cluster",
            "crates/cluster/src/kmeans.rs",
            "\
use std::collections::HashMap;
pub fn kmeans(xs: &[f64]) -> f64 {
    let _ = xs.iter().max_by(|a, b| a.partial_cmp(b).expect(\"cmp\"));
    xs.iter().sum::<f64>()
}
fn cold(xs: &[f64]) -> f64 { xs.iter().sum() }
",
        )]);
        let floats: Vec<(&str, usize)> = findings
            .violations
            .iter()
            .filter(|v| v.rule == FLOAT_DETERMINISM)
            .map(|v| (v.note.as_deref().unwrap_or(""), v.line))
            .collect();
        // HashMap import (line 1), untotaled max_by (line 3), hot sum
        // (line 4); the cold sum on line 6 passes.
        assert_eq!(floats.len(), 3, "{floats:?}");
        assert!(floats.iter().any(|(n, l)| *l == 1 && n.contains("HashMap")));
        assert!(floats.iter().any(|(n, l)| *l == 3 && n.contains("max_by")));
        assert!(floats
            .iter()
            .any(|(n, l)| *l == 4 && n.contains("reduction in hot set")));
    }

    #[test]
    fn par_primitives_are_reduce_exempt() {
        let (_, findings) = graph_on(&[
            (
                "roadpart-linalg",
                "crates/linalg/src/lanczos.rs",
                "pub fn sym_eigs_ws(xs: &[f64]) -> f64 { crate::par::chunk_sum(xs) }\n",
            ),
            (
                "roadpart-linalg",
                "crates/linalg/src/par.rs",
                "pub fn chunk_sum(xs: &[f64]) -> f64 { xs.iter().sum() }\n",
            ),
        ]);
        assert!(
            findings
                .violations
                .iter()
                .all(|v| v.rule != FLOAT_DETERMINISM),
            "{:?}",
            findings.violations
        );
    }

    #[test]
    fn vecops_lane_reductions_are_reduce_exempt() {
        // The lane-unrolled kernels in vecops are the second blessed
        // reduction home: hot-set reachable reductions there pass, while
        // the same construct in any other hot file is still flagged.
        let (_, findings) = graph_on(&[
            (
                "roadpart-linalg",
                "crates/linalg/src/lanczos.rs",
                "\
pub fn sym_eigs_ws(xs: &[f64]) -> f64 {
    crate::vecops::dot(xs) + crate::csr::row_sum(xs)
}
",
            ),
            (
                "roadpart-linalg",
                "crates/linalg/src/vecops.rs",
                "pub fn dot(xs: &[f64]) -> f64 { xs.iter().sum() }\n",
            ),
            (
                "roadpart-linalg",
                "crates/linalg/src/csr.rs",
                "pub fn row_sum(xs: &[f64]) -> f64 { xs.iter().sum() }\n",
            ),
        ]);
        let floats: Vec<&Violation> = findings
            .violations
            .iter()
            .filter(|v| v.rule == FLOAT_DETERMINISM)
            .collect();
        assert_eq!(floats.len(), 1, "{floats:?}");
        assert_eq!(floats[0].file, "crates/linalg/src/csr.rs");
    }

    #[test]
    fn missing_roots_are_reported() {
        let (_, findings) = graph_on(&[(
            "roadpart-serve",
            "crates/serve/src/engine.rs",
            "pub fn query() -> usize { 0 }\n",
        )]);
        assert!(findings
            .missing_roots
            .contains(&("roadpart".to_string(), "partition_network".to_string())));
        assert!(!findings
            .missing_roots
            .contains(&("roadpart-serve".to_string(), "query".to_string())));
    }
}
