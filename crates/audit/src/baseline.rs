//! The ratcheting baseline: pre-existing violations are tolerated at their
//! recorded per-`(crate, rule)` counts, new ones fail the audit, and any
//! count that drops below its allowance is reported so the baseline can be
//! tightened (`--update-baseline`). The file lives at the workspace root
//! as `AUDIT_baseline.json` and is committed, so the allowed debt only
//! ever moves down under review.
//!
//! Format v2 requires every allowance to carry a written justification:
//!
//! ```json
//! {
//!   "version": 2,
//!   "allowances": {
//!     "roadpart-linalg": {
//!       "hot-loop-alloc": {
//!         "count": 7,
//!         "justification": "one-time workspace warm-up, not per-iteration"
//!       }
//!     }
//!   }
//! }
//! ```
//!
//! The loader also accepts the legacy v1 shape (bare counts) and migrates
//! its rule names in memory — `no-panic` entries load as
//! `panic-reachability` allowances — so a pre-migration checkout still
//! audits; `--update-baseline` rewrites the file as v2. Entries without a
//! justification are surfaced through [`unjustified`] and pinned to zero
//! by the audit self-test.

use crate::{AuditError, Delta, Result};
use serde_json::{Map, Number, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One tolerated `(crate, rule)` debt entry.
#[derive(Debug, Clone, Default)]
pub struct Allowance {
    /// Violations tolerated.
    pub count: usize,
    /// Why this debt is intentional (required in format v2).
    pub justification: Option<String>,
}

/// Allowed violation counts keyed by `(crate, rule)`.
pub type Allowances = BTreeMap<(String, String), Allowance>;

/// Legacy v1 rule ids and their current names.
const RENAMED_RULES: &[(&str, &str)] = &[("no-panic", "panic-reachability")];

/// Loads the baseline; a missing file means "no allowances" (every
/// violation is new), so fresh checkouts fail closed rather than open.
///
/// # Errors
/// Returns [`AuditError`] when the file exists but cannot be read or is
/// not the expected JSON shape (v1 bare counts or v2 justified objects).
pub fn load(path: &Path) -> Result<Allowances> {
    if !path.exists() {
        return Ok(Allowances::new());
    }
    let text = std::fs::read_to_string(path).map_err(|e| AuditError::Io(path.to_path_buf(), e))?;
    let value: Value = serde_json::from_str(&text)
        .map_err(|e| AuditError::Parse(format!("{}: {e}", path.display())))?;
    let mut out = Allowances::new();
    let Some(allowances) = value.get("allowances").and_then(Value::as_object) else {
        return Err(AuditError::Parse(format!(
            "{}: missing `allowances` object",
            path.display()
        )));
    };
    for (krate, rules) in allowances.iter() {
        let Some(rules) = rules.as_object() else {
            return Err(AuditError::Parse(format!(
                "{}: allowances for `{krate}` must be an object",
                path.display()
            )));
        };
        for (rule, entry) in rules.iter() {
            let allowance = parse_allowance(entry).ok_or_else(|| {
                AuditError::Parse(format!(
                    "{}: allowance {krate}/{rule} must be a number (v1) or a \
                     {{count, justification}} object (v2)",
                    path.display()
                ))
            })?;
            let rule = RENAMED_RULES
                .iter()
                .find(|(old, _)| old == rule)
                .map_or(rule.as_str(), |(_, new)| new);
            out.insert((krate.clone(), rule.to_string()), allowance);
        }
    }
    Ok(out)
}

fn parse_allowance(entry: &Value) -> Option<Allowance> {
    if let Some(count) = entry.as_f64() {
        // v1: a bare count, no justification recorded.
        return Some(Allowance {
            count: count as usize,
            justification: None,
        });
    }
    let obj = entry.as_object()?;
    let count = obj.get("count").and_then(Value::as_f64)? as usize;
    let justification = obj
        .get("justification")
        .and_then(Value::as_str)
        .map(str::to_string)
        .filter(|s| !s.trim().is_empty());
    Some(Allowance {
        count,
        justification,
    })
}

/// `(crate, rule)` keys whose allowance lacks a written justification
/// (absent, or still carrying the `TODO` marker [`write()`] emits).
pub fn unjustified(allowances: &Allowances) -> Vec<(String, String)> {
    allowances
        .iter()
        .filter(|(_, a)| match a.justification.as_deref() {
            None => true,
            Some(j) => j.trim_start().starts_with("TODO"),
        })
        .map(|(k, _)| k.clone())
        .collect()
}

/// Splits the run's counts against the allowances into regressions
/// (found > allowed — these fail the run) and ratchet opportunities
/// (found < allowed — the baseline can be tightened).
pub fn compare(
    counts: &BTreeMap<(String, String), usize>,
    allowances: &Allowances,
) -> (Vec<Delta>, Vec<Delta>) {
    let mut regressions = Vec::new();
    let mut ratchet = Vec::new();
    let mut keys: Vec<&(String, String)> = counts.keys().chain(allowances.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        let found = counts.get(key).copied().unwrap_or(0);
        let allowed = allowances.get(key).map(|a| a.count).unwrap_or(0);
        let delta = Delta {
            krate: key.0.clone(),
            rule: key.1.clone(),
            found,
            allowed,
        };
        if found > allowed {
            regressions.push(delta);
        } else if found < allowed {
            ratchet.push(delta);
        }
    }
    (regressions, ratchet)
}

/// Rewrites the baseline as format v2 to exactly the current counts
/// (zero-count pairs are dropped). Justifications carry over from `old`
/// for surviving keys; a key without one gets an explicit `TODO` marker,
/// which [`unjustified`] (and the audit self-test) keeps visible until a
/// reviewer replaces it. Used by `--update-baseline` after reviewed
/// cleanups.
///
/// # Errors
/// Returns [`AuditError`] when the file cannot be written.
pub fn write(
    path: &Path,
    counts: &BTreeMap<(String, String), usize>,
    old: &Allowances,
) -> Result<()> {
    let mut by_crate: BTreeMap<&str, Map> = BTreeMap::new();
    for ((krate, rule), &count) in counts {
        if count == 0 {
            continue;
        }
        let justification = old
            .get(&(krate.clone(), rule.clone()))
            .and_then(|a| a.justification.clone())
            .unwrap_or_else(|| "TODO: justify this allowance".to_string());
        let mut entry = Map::new();
        entry.insert("count".into(), Value::Number(Number::PosInt(count as u64)));
        entry.insert("justification".into(), Value::String(justification));
        by_crate
            .entry(krate)
            .or_default()
            .insert(rule.clone(), Value::Object(entry));
    }
    let mut allowances = Map::new();
    for (krate, rules) in by_crate {
        allowances.insert(krate.to_string(), Value::Object(rules));
    }
    let mut root = Map::new();
    root.insert("version".to_string(), Value::Number(Number::PosInt(2)));
    root.insert(
        "comment".to_string(),
        Value::String(
            "Ratcheting allowances for pre-existing roadpart-audit violations; \
             counts may only decrease and every entry carries a justification. \
             Regenerate with `cargo run -p roadpart-audit -- --update-baseline`."
                .to_string(),
        ),
    );
    root.insert("allowances".to_string(), Value::Object(allowances));
    let text = serde_json::to_string_pretty(&Value::Object(root))
        .map_err(|e| AuditError::Parse(e.to_string()))?;
    std::fs::write(path, text + "\n").map_err(|e| AuditError::Io(path.to_path_buf(), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: &str, r: &str) -> (String, String) {
        (k.to_string(), r.to_string())
    }

    fn allow(count: usize, justification: Option<&str>) -> Allowance {
        Allowance {
            count,
            justification: justification.map(str::to_string),
        }
    }

    #[test]
    fn compare_splits_regressions_and_ratchet() {
        let mut counts = BTreeMap::new();
        counts.insert(key("a", "panic-reachability"), 3usize);
        counts.insert(key("b", "panic-reachability"), 1usize);
        let mut allowances = Allowances::new();
        allowances.insert(key("a", "panic-reachability"), allow(1, None));
        allowances.insert(key("b", "panic-reachability"), allow(1, None));
        allowances.insert(key("c", "total-order"), allow(4, None));
        let (regressions, ratchet) = compare(&counts, &allowances);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].krate, "a");
        assert_eq!((regressions[0].found, regressions[0].allowed), (3, 1));
        assert_eq!(ratchet.len(), 1);
        assert_eq!(ratchet[0].krate, "c");
        assert_eq!((ratchet[0].found, ratchet[0].allowed), (0, 4));
    }

    #[test]
    fn write_then_load_round_trips_with_justifications() {
        let dir = std::env::temp_dir().join(format!("audit-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("AUDIT_baseline.json");
        let mut counts = BTreeMap::new();
        counts.insert(key("roadpart-net", "hot-loop-alloc"), 5usize);
        counts.insert(key("roadpart-net", "missing-errors-doc"), 2usize);
        counts.insert(key("roadpart-eval", "panic-reachability"), 0usize);
        let mut old = Allowances::new();
        old.insert(
            key("roadpart-net", "hot-loop-alloc"),
            allow(9, Some("arena warm-up")),
        );
        write(&path, &counts, &old).unwrap();
        let loaded = load(&path).unwrap();
        let survived = loaded.get(&key("roadpart-net", "hot-loop-alloc")).unwrap();
        assert_eq!(survived.count, 5);
        assert_eq!(survived.justification.as_deref(), Some("arena warm-up"));
        let fresh = loaded
            .get(&key("roadpart-net", "missing-errors-doc"))
            .unwrap();
        assert_eq!(fresh.count, 2);
        assert!(fresh.justification.as_deref().unwrap().starts_with("TODO"));
        assert!(!loaded.contains_key(&key("roadpart-eval", "panic-reachability")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_counts_load_with_rule_renames() {
        let dir = std::env::temp_dir().join(format!("audit-v1-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("AUDIT_baseline.json");
        std::fs::write(
            &path,
            "{\"allowances\": {\"roadpart-linalg\": {\"no-panic\": 2, \"hot-loop-alloc\": 7}}}",
        )
        .unwrap();
        let loaded = load(&path).unwrap();
        let migrated = loaded
            .get(&key("roadpart-linalg", "panic-reachability"))
            .unwrap();
        assert_eq!(migrated.count, 2, "no-panic key migrates in memory");
        assert!(migrated.justification.is_none());
        assert!(loaded.contains_key(&key("roadpart-linalg", "hot-loop-alloc")));
        assert_eq!(
            unjustified(&loaded).len(),
            2,
            "v1 entries are all unjustified"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_baseline_is_empty_and_malformed_fails() {
        let missing = Path::new("/nonexistent/AUDIT_baseline.json");
        assert!(load(missing).unwrap().is_empty());
        let dir = std::env::temp_dir().join(format!("audit-bad-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("AUDIT_baseline.json");
        std::fs::write(&path, "{\"no_allowances\": true}").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
