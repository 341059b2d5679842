//! `roadbench compare A.json B.json`: parent (A) against change (B).
//!
//! Each file holds runs recorded with `roadbench run --out FILE`, which
//! appends; run `i` of A is paired with run `i` of B, so record them
//! alternately (A, B, A, B, ...) with the same seed per pair. For every
//! workload and metric the table shows each side's median and quartiles
//! and a verdict:
//!
//! * `improved` — at least 10 pairs, B wins at least 9 of every 10 pairs
//!   (ties count for neither), and the medians differ by more than the
//!   distance between A's own quartiles;
//! * `regressed` — B's median is worse than A's by more than the metric's
//!   bound, and A's spread is within the bound (or every B run is worse
//!   than every A run);
//! * `within-bound` — B's median is no worse than the bound allows and A's
//!   spread is within the bound;
//! * `unresolved` — anything else, e.g. A's own spread exceeds the bound.
//!
//! Per-layer metrics carry no bound; they get the `improved` test or
//! `info`.

use crate::stats::quartiles;
use crate::{MetricSpec, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::fmt::Write as _;

/// The verdict for one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by the pair rule.
    Improved,
    /// B is worse than the bound allows.
    Regressed,
    /// B is no worse than the bound allows.
    WithinBound,
    /// The spread is too wide to tell.
    Unresolved,
    /// A per-layer metric with no bound and no clear win.
    Info,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// Judges paired samples `a` (parent) and `b` (change) of one metric.
pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let pairs = a.len().min(b.len());
    let (a, b) = (&a[..pairs], &b[..pairs]);
    let better = |x: f64, y: f64| {
        if spec.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let (qa1, ma, qa3) = quartiles(a);
    let (_, mb, _) = quartiles(b);
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && better(mb, ma) && (mb - ma).abs() > qa3 - qa1 {
        return Verdict::Improved;
    }
    if spec.bound <= 0.0 {
        return Verdict::Info;
    }
    let scale = ma.abs().max(f64::MIN_POSITIVE);
    let worse = (if spec.lower_is_better {
        mb - ma
    } else {
        ma - mb
    }) / scale;
    let spread = (qa3 - qa1) / scale;
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if worse > spec.bound && (spread <= spec.bound || all_worse) {
        Verdict::Regressed
    } else if worse <= spec.bound && (spread <= spec.bound || all_better) {
        Verdict::WithinBound
    } else {
        Verdict::Unresolved
    }
}

/// The runs stored in a results file: its `runs` array, or the file's
/// single run record.
fn runs(doc: &Value) -> Vec<&Value> {
    match doc.get("runs").and_then(Value::as_array) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    }
}

/// Values of `metric` for `workload` across `runs`, skipping runs that
/// lack it.
fn series(runs: &[&Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            let w = &run["workloads"][workload];
            w["metrics"][metric]["value"]
                .as_f64()
                .or_else(|| w["layers"][metric]["value"].as_f64())
        })
        .collect()
}

/// Compares two results documents and renders the table. Returns the
/// table and whether any end-to-end metric regressed.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let (ra, rb) = (runs(a), runs(b));
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<10} {:<24} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B vs A", "wins"
    );
    for workload in crate::Workload::ALL.map(crate::Workload::name) {
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            let (sa, sb) = (
                series(&ra, workload, spec.name),
                series(&rb, workload, spec.name),
            );
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let v = verdict(spec, &sa, &sb);
            regressed |= v == Verdict::Regressed;
            let (qa1, ma, qa3) = quartiles(&sa);
            let (qb1, mb, qb3) = quartiles(&sb);
            let pairs = sa.len().min(sb.len());
            let wins = sa
                .iter()
                .zip(&sb)
                .filter(|&(&x, &y)| if spec.lower_is_better { y < x } else { y > x })
                .count();
            let change = if ma != 0.0 {
                format!("{:+.1}%", 100.0 * (mb - ma) / ma.abs())
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{workload:<10} {:<24} {:>28} {:>28} {change:>8} {:>6}  {}",
                spec.name,
                format!("{ma:.4} [{qa1:.4}, {qa3:.4}]"),
                format!("{mb:.4} [{qb1:.4}, {qb3:.4}]"),
                format!("{wins}/{pairs}"),
                v.name()
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: MetricSpec = MetricSpec {
        name: "p50_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.10,
    };

    fn around(centre: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| centre * (1.0 + 0.002 * i as f64)).collect()
    }

    #[test]
    fn clear_win_is_an_improvement() {
        assert_eq!(
            verdict(&LAT, &around(100.0, 10), &around(80.0, 10)),
            Verdict::Improved
        );
    }

    #[test]
    fn nine_pairs_cannot_claim_a_gain() {
        assert_eq!(
            verdict(&LAT, &around(100.0, 9), &around(80.0, 9)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn worse_beyond_bound_is_a_regression() {
        assert_eq!(
            verdict(&LAT, &around(100.0, 10), &around(120.0, 10)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&LAT, &around(100.0, 10), &around(105.0, 10)),
            Verdict::WithinBound
        );
    }

    #[test]
    fn wide_parent_spread_is_unresolved() {
        let a = [
            50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
        ];
        let b = [105.0; 10];
        assert_eq!(verdict(&LAT, &a, &b), Verdict::Unresolved);
    }
}
