//! The ratchet baseline: legacy findings are pinned, new findings fail.
//!
//! The reachability-based passes surface violations the old
//! crate-list linter never looked at (a `panic!` three calls below a
//! provisioning entry point, a float fold in a sim-visible path in a
//! crate the list never named). Failing tier-1 on every legacy finding
//! at once would force a big-bang sweep; silently allowing them would
//! defeat the gate. The ratchet is the same answer benchkit gave for
//! perf: a checked-in baseline (`results/lint_baseline.json`, schema
//! `contory-lint-baseline/1`) pins the *current* finding count per
//! `(rule, file)`; the gate fails iff any pair exceeds its pinned count
//! or appears without a pin. Counts (not line numbers) make the pin
//! robust to unrelated edits in the same file.
//!
//! Pragma-hygiene findings (`unused-pragma`) are never pinnable: a
//! stale pragma is always new debt.
//!
//! Re-base after an intentional change (fixing legacy findings, adding
//! a rule) with:
//!
//! ```text
//! cargo run -p lintkit -- --workspace --write-baseline results/lint_baseline.json
//! ```

use crate::RunReport;
use simkit::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Schema of the full report `--json` emits: per-file diagnostics, the
/// computed sim-visible crate set and the `(rule, path) → count` table
/// the ratchet operates on.
pub const REPORT_SCHEMA: &str = "contory-lint/1";
/// Schema of the checked-in ratchet baseline: just the count table.
pub const BASELINE_SCHEMA: &str = "contory-lint-baseline/1";

/// Rules whose findings can never be pinned in a baseline.
const NEVER_PINNED: &[&str] = &["unused-pragma"];

/// Finding counts keyed by `(rule, workspace-relative path)`.
pub type Counts = BTreeMap<(String, String), u64>;

/// Aggregates a report into the `(rule, path) → count` table.
pub fn counts_of(report: &RunReport) -> Counts {
    let mut counts = Counts::new();
    for d in &report.diagnostics {
        let key = (d.rule.to_string(), d.path.display().to_string());
        *counts.entry(key).or_insert(0) += 1;
    }
    counts
}

/// A parsed ratchet baseline.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    /// Pinned finding counts.
    pub counts: Counts,
}

impl Baseline {
    /// Parses a baseline document, validating the schema tag.
    pub fn parse(src: &str) -> Result<Baseline, String> {
        let v = Json::parse(src)?;
        let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != BASELINE_SCHEMA {
            return Err(format!(
                "baseline schema mismatch: got `{schema}`, want `{BASELINE_SCHEMA}`"
            ));
        }
        let mut counts = Counts::new();
        for entry in v.get("counts").and_then(Json::as_arr).unwrap_or(&[]) {
            let rule = entry.get("rule").and_then(Json::as_str).unwrap_or("");
            let path = entry.get("path").and_then(Json::as_str).unwrap_or("");
            if rule.is_empty() || path.is_empty() {
                return Err("baseline entry missing rule/path".to_string());
            }
            let count = match entry.get("count").and_then(Json::as_f64) {
                Some(n) if n >= 0.0 && n.fract() == 0.0 => n as u64,
                _ => return Err(format!("baseline entry `{rule}` `{path}`: bad count")),
            };
            counts.insert((rule.to_string(), path.to_string()), count);
        }
        Ok(Baseline { counts })
    }

    /// Renders a baseline document (stable order, trailing newline).
    pub fn render(counts: &Counts) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{BASELINE_SCHEMA}\",");
        let _ = writeln!(out, "  \"counts\": [");
        let pinnable: Vec<_> = counts
            .iter()
            .filter(|((rule, _), _)| !NEVER_PINNED.contains(&rule.as_str()))
            .collect();
        for (i, ((rule, path), count)) in pinnable.iter().enumerate() {
            let comma = if i + 1 == pinnable.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"rule\": {}, \"path\": {}, \"count\": {}}}{comma}",
                Json::str(rule).render_compact(),
                Json::str(path).render_compact(),
                count
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// One ratchet regression: a `(rule, path)` above its pin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative file.
    pub path: String,
    /// Current finding count.
    pub current: u64,
    /// Pinned count (0 when the pair is not in the baseline).
    pub pinned: u64,
}

/// Result of diffing a report against the baseline.
#[derive(Debug, Default)]
pub struct RatchetDiff {
    /// New findings (fail the gate).
    pub regressions: Vec<Regression>,
    /// Pairs now *below* their pin — fixed debt; re-base to lock in.
    pub improvements: Vec<Regression>,
    /// Total legacy findings covered by pins.
    pub pinned_total: u64,
}

/// Diffs report counts against the baseline. `unused-pragma` findings
/// are regressions regardless of any pin.
pub fn diff(current: &Counts, baseline: &Baseline) -> RatchetDiff {
    let mut out = RatchetDiff::default();
    for ((rule, path), &cur) in current {
        let pinned = if NEVER_PINNED.contains(&rule.as_str()) {
            0
        } else {
            baseline
                .counts
                .get(&(rule.clone(), path.clone()))
                .copied()
                .unwrap_or(0)
        };
        if cur > pinned {
            out.regressions.push(Regression {
                rule: rule.clone(),
                path: path.clone(),
                current: cur,
                pinned,
            });
        } else {
            out.pinned_total += cur;
            if cur < pinned {
                out.improvements.push(Regression {
                    rule: rule.clone(),
                    path: path.clone(),
                    current: cur,
                    pinned,
                });
            }
        }
    }
    // Pins whose file went fully clean are improvements too.
    for ((rule, path), &pinned) in &baseline.counts {
        if pinned > 0 && !current.contains_key(&(rule.clone(), path.clone())) {
            out.improvements.push(Regression {
                rule: rule.clone(),
                path: path.clone(),
                current: 0,
                pinned,
            });
        }
    }
    out
}

/// Renders the machine-readable report (`contory-lint/1`).
pub fn render_report(report: &RunReport, sim_visible: &BTreeSet<String>) -> String {
    let counts = counts_of(report);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{REPORT_SCHEMA}\",");
    let _ = writeln!(out, "  \"files\": {},", report.files);
    let _ = writeln!(out, "  \"allowed\": {},", report.allowed);
    let _ = write!(out, "  \"sim_visible\": [");
    for (i, k) in sim_visible.iter().enumerate() {
        let comma = if i + 1 == sim_visible.len() { "" } else { ", " };
        let _ = write!(out, "{}{comma}", Json::str(k).render_compact());
    }
    let _ = writeln!(out, "],");
    let _ = writeln!(out, "  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        let comma = if i + 1 == report.diagnostics.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"col\": {}, \"msg\": {}}}{comma}",
            Json::str(d.rule).render_compact(),
            Json::str(d.path.display().to_string()).render_compact(),
            d.line,
            d.col,
            Json::str(&d.msg).render_compact()
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"counts\": [");
    for (i, ((rule, path), count)) in counts.iter().enumerate() {
        let comma = if i + 1 == counts.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"rule\": {}, \"path\": {}, \"count\": {}}}{comma}",
            Json::str(rule).render_compact(),
            Json::str(path).render_compact(),
            count
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Diagnostic;
    use std::path::PathBuf;

    fn report_with(entries: &[(&'static str, &str, usize)]) -> RunReport {
        let mut r = RunReport::default();
        for (rule, path, n) in entries {
            for i in 0..*n {
                r.diagnostics.push(Diagnostic {
                    rule,
                    path: PathBuf::from(path),
                    line: i as u32 + 1,
                    col: 1,
                    msg: "m".into(),
                });
            }
        }
        r
    }

    #[test]
    fn baseline_round_trip() {
        let report = report_with(&[
            ("panic-reachable", "crates/simkit/src/sim.rs", 3),
            ("float-order", "crates/core/src/monitor.rs", 1),
            ("unused-pragma", "crates/core/src/facade.rs", 1),
        ]);
        let counts = counts_of(&report);
        let rendered = Baseline::render(&counts);
        let parsed = Baseline::parse(&rendered).expect("parse");
        // unused-pragma is never pinned.
        assert_eq!(parsed.counts.len(), 2);
        assert_eq!(
            parsed.counts
                .get(&("panic-reachable".into(), "crates/simkit/src/sim.rs".into())),
            Some(&3)
        );
    }

    #[test]
    fn baseline_rejects_bad_counts() {
        for count in ["-1", "1.5", "\"3\""] {
            let src = format!(
                "{{\"schema\": \"{BASELINE_SCHEMA}\", \"counts\": \
                 [{{\"rule\": \"r\", \"path\": \"p.rs\", \"count\": {count}}}]}}"
            );
            assert!(Baseline::parse(&src).is_err(), "count {count} accepted");
        }
    }

    #[test]
    fn baseline_parse_rejects_garbage() {
        let good = Baseline::render(&counts_of(&report_with(&[("panic-reachable", "a.rs", 1)])));
        assert!(Baseline::parse(&good).is_ok());
        let truncated = good.trim_end().trim_end_matches('}');
        let trailing = format!("{good}x");
        let dangling_comma = good.replacen("}\n  ]", "},\n  ]", 1);
        assert_ne!(dangling_comma, good, "fixture lost its counts array");
        for bad in [truncated, trailing.as_str(), dangling_comma.as_str()] {
            assert!(Baseline::parse(bad).is_err(), "accepted:\n{bad}");
        }
    }

    #[test]
    fn ratchet_polarity() {
        let baseline = Baseline::parse(&Baseline::render(&counts_of(&report_with(&[
            ("panic-reachable", "a.rs", 2),
            ("float-order", "b.rs", 1),
        ]))))
        .expect("parse");
        // Same counts: clean.
        let same = counts_of(&report_with(&[
            ("panic-reachable", "a.rs", 2),
            ("float-order", "b.rs", 1),
        ]));
        let d = diff(&same, &baseline);
        assert!(d.regressions.is_empty());
        assert_eq!(d.pinned_total, 3);
        // One more in a pinned file: regression.
        let worse = counts_of(&report_with(&[("panic-reachable", "a.rs", 3)]));
        let d = diff(&worse, &baseline);
        assert_eq!(d.regressions.len(), 1);
        assert_eq!(d.regressions[0].pinned, 2);
        // A new (rule, path) pair: regression.
        let novel = counts_of(&report_with(&[("shard-shared-state", "c.rs", 1)]));
        assert_eq!(diff(&novel, &baseline).regressions.len(), 1);
        // Fewer than pinned: improvement, not regression.
        let better = counts_of(&report_with(&[("panic-reachable", "a.rs", 1)]));
        let d = diff(&better, &baseline);
        assert!(d.regressions.is_empty());
        assert_eq!(d.improvements.len(), 2); // a.rs below pin + b.rs gone
        // unused-pragma is always a regression, pinned or not.
        let stale = counts_of(&report_with(&[("unused-pragma", "a.rs", 1)]));
        assert_eq!(diff(&stale, &baseline).regressions.len(), 1);
    }
}
