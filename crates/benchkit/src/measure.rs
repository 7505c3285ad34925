//! Typed measurements: the unit vocabulary and the per-row record every
//! scenario produces.
//!
//! A [`Measurement`] carries the measured statistic (mean, 90 % CI
//! half-width, extrema, sample count — usually lifted straight from a
//! [`simkit::stats::Summary`]), the paper's reference value where the
//! paper reports one, and the regression-gate tolerances the baseline
//! checker applies (see `baseline.rs`).

use simkit::json::Json;
use simkit::stats::Summary;

/// Closed unit vocabulary for measurements. The golden schema test
/// asserts every unit string in `BENCH_contory.json` parses back through
/// [`Unit::parse`], so exporters cannot drift into ad-hoc unit spellings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Milliseconds.
    Millis,
    /// Seconds.
    Secs,
    /// Joules.
    Joules,
    /// Joules per delivered context item.
    JoulesPerItem,
    /// Milliwatts.
    Milliwatts,
    /// Milliamps.
    Milliamps,
    /// Percent (0–100).
    Percent,
    /// Dimensionless count.
    Count,
    /// Dimensionless ratio ("×").
    Ratio,
    /// Events (or items) per second — throughput rows of the scale
    /// scenarios.
    PerSec,
}

impl Unit {
    /// Stable unit string used in exports and table headers.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Millis => "ms",
            Unit::Secs => "s",
            Unit::Joules => "J",
            Unit::JoulesPerItem => "J/item",
            Unit::Milliwatts => "mW",
            Unit::Milliamps => "mA",
            Unit::Percent => "%",
            Unit::Count => "count",
            Unit::Ratio => "x",
            Unit::PerSec => "/s",
        }
    }

    /// Inverse of [`Unit::as_str`].
    pub fn parse(s: &str) -> Option<Unit> {
        Some(match s {
            "ms" => Unit::Millis,
            "s" => Unit::Secs,
            "J" => Unit::Joules,
            "J/item" => Unit::JoulesPerItem,
            "mW" => Unit::Milliwatts,
            "mA" => Unit::Milliamps,
            "%" => Unit::Percent,
            "count" => Unit::Count,
            "x" => Unit::Ratio,
            "/s" => Unit::PerSec,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Unit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One measured quantity of a scenario run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Stable snake_case identifier (the baseline joins on
    /// `scenario/id`).
    pub id: String,
    /// Human row label (the paper's operation/condition wording).
    pub label: String,
    /// Unit of `value`.
    pub unit: Unit,
    /// Measured value (mean when `n > 1`).
    pub value: f64,
    /// 90 % confidence-interval half-width (0 for single samples).
    pub ci90: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: u64,
    /// The paper's reference value, when the paper reports one.
    pub paper: Option<f64>,
    /// Verbatim paper-column text (e.g. `"140.359 [0.337]"`); derived
    /// from `paper` when absent.
    pub paper_text: Option<String>,
    /// Relative tolerance for the PASS/WARN verdict against `paper`.
    pub paper_tol: f64,
    /// Free-form note rendered in the table's note column.
    pub note: String,
    /// True for lower-bound rows (the paper's `> x` WiFi energy cells).
    pub lower_bound: bool,
    /// Relative tolerance the baseline regression gate allows for this
    /// metric (fraction of the baseline value).
    pub gate_rel_tol: f64,
    /// Absolute tolerance the baseline regression gate allows on top of
    /// the relative band (useful near zero and for percent shares).
    pub gate_abs_tol: f64,
}

impl Measurement {
    fn base(id: &str, label: &str, unit: Unit) -> Measurement {
        Measurement {
            id: id.to_owned(),
            label: label.to_owned(),
            unit,
            value: 0.0,
            ci90: 0.0,
            min: 0.0,
            max: 0.0,
            n: 0,
            paper: None,
            paper_text: None,
            paper_tol: 0.15,
            note: String::new(),
            lower_bound: false,
            gate_rel_tol: 0.25,
            gate_abs_tol: 0.0,
        }
    }

    /// Builds a measurement from a [`Summary`] (mean / CI / extrema / n).
    pub fn from_summary(id: &str, label: &str, unit: Unit, s: &Summary) -> Measurement {
        let mut m = Measurement::base(id, label, unit);
        m.value = s.mean();
        m.ci90 = s.ci90_half();
        m.n = s.count();
        if s.count() > 0 {
            m.min = s.min();
            m.max = s.max();
        }
        m
    }

    /// Builds a single-sample measurement.
    pub fn scalar(id: &str, label: &str, unit: Unit, value: f64) -> Measurement {
        let mut m = Measurement::base(id, label, unit);
        m.value = value;
        m.min = value;
        m.max = value;
        m.n = 1;
        m
    }

    /// Attaches the paper's reference value (paper column and verdict).
    pub fn with_paper(mut self, value: f64) -> Measurement {
        self.paper = Some(value);
        self
    }

    /// Attaches the verbatim paper-column text (e.g. the paper's own
    /// `avg [ci]` cell); implies nothing about `paper`.
    pub fn with_paper_text(mut self, text: impl Into<String>) -> Measurement {
        self.paper_text = Some(text.into());
        self
    }

    /// Sets the relative tolerance for the PASS/WARN verdict.
    pub fn with_paper_tol(mut self, tol: f64) -> Measurement {
        self.paper_tol = tol;
        self
    }

    /// Sets the note-column text.
    pub fn with_note(mut self, note: impl Into<String>) -> Measurement {
        self.note = note.into();
        self
    }

    /// Marks the row as a lower bound (`> value`).
    pub fn as_lower_bound(mut self) -> Measurement {
        self.lower_bound = true;
        self
    }

    /// Sets the baseline regression gate's relative tolerance.
    pub fn with_gate_rel_tol(mut self, tol: f64) -> Measurement {
        self.gate_rel_tol = tol;
        self
    }

    /// Sets the baseline regression gate's absolute tolerance.
    pub fn with_gate_abs_tol(mut self, tol: f64) -> Measurement {
        self.gate_abs_tol = tol;
        self
    }

    /// Signed deviation from the paper's value in percent, when a paper
    /// value is attached.
    pub fn delta_pct(&self) -> Option<f64> {
        self.paper
            .filter(|p| *p != 0.0)
            .map(|p| 100.0 * (self.value - p) / p)
    }

    /// `measured` column text: `avg [ci]` for multi-sample rows, plain
    /// value otherwise, integer-formatted counts, `> ` prefix for lower
    /// bounds.
    pub fn measured_text(&self) -> String {
        let v = match self.unit {
            Unit::Count => format!("{:.0}", self.value),
            _ => format!("{:.3}", self.value),
        };
        let core = if self.n > 1 {
            format!("{v} [{:.3}]", self.ci90)
        } else {
            v
        };
        if self.lower_bound {
            format!("> {core}")
        } else {
            core
        }
    }

    /// `paper` column text.
    pub fn paper_column(&self) -> String {
        match (&self.paper_text, self.paper) {
            (Some(t), _) => t.clone(),
            (None, Some(p)) => format!("{p:.3}"),
            (None, None) => "-".to_owned(),
        }
    }

    /// PASS/WARN verdict against the paper value within `paper_tol`,
    /// when a paper value is attached.
    pub fn verdict(&self) -> Option<String> {
        let delta = self.delta_pct()?;
        let ok = delta.abs() <= 100.0 * self.paper_tol;
        Some(format!(
            "{} ({delta:+.1}%)",
            if ok { "PASS" } else { "WARN" }
        ))
    }

    /// Note-column text: verdict plus the free-form note.
    pub fn note_column(&self) -> String {
        match (self.verdict(), self.note.is_empty()) {
            (Some(v), false) => format!("{v}; {}", self.note),
            (Some(v), true) => v,
            (None, false) => self.note.clone(),
            (None, true) => String::new(),
        }
    }

    /// JSON export of the row (stable key order).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("id", Json::str(&self.id));
        o.set("label", Json::str(&self.label));
        o.set("unit", Json::str(self.unit.as_str()));
        o.set("value", Json::num(self.value));
        o.set("ci90", Json::num(self.ci90));
        o.set("min", Json::num(self.min));
        o.set("max", Json::num(self.max));
        o.set("n", Json::num(self.n as f64));
        o.set("paper", Json::opt_num(self.paper));
        o.set("delta_pct", Json::opt_num(self.delta_pct()));
        o.set("lower_bound", Json::Bool(self.lower_bound));
        o.set("note", Json::str(&self.note));
        o.set("gate_rel_tol", Json::num(self.gate_rel_tol));
        o.set("gate_abs_tol", Json::num(self.gate_abs_tol));
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_strings_roundtrip() {
        for u in [
            Unit::Millis,
            Unit::Secs,
            Unit::Joules,
            Unit::JoulesPerItem,
            Unit::Milliwatts,
            Unit::Milliamps,
            Unit::Percent,
            Unit::Count,
            Unit::Ratio,
            Unit::PerSec,
        ] {
            assert_eq!(Unit::parse(u.as_str()), Some(u));
        }
        assert_eq!(Unit::parse("furlongs"), None);
    }

    #[test]
    fn from_summary_lifts_stats() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        let m = Measurement::from_summary("lat", "latency", Unit::Millis, &s);
        assert_eq!(m.value, 2.0);
        assert_eq!(m.n, 3);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 3.0);
        assert!(m.ci90 > 0.0);
        assert!(m.measured_text().starts_with("2.000 ["));
    }

    #[test]
    fn verdict_pass_and_warn() {
        let pass = Measurement::scalar("a", "a", Unit::Millis, 100.0)
            .with_paper(102.0)
            .with_paper_tol(0.05);
        assert!(pass.verdict().unwrap().starts_with("PASS"));
        let warn = Measurement::scalar("b", "b", Unit::Millis, 100.0)
            .with_paper(200.0)
            .with_paper_tol(0.05);
        assert!(warn.verdict().unwrap().starts_with("WARN"));
        assert!((warn.delta_pct().unwrap() + 50.0).abs() < 1e-9);
    }

    #[test]
    fn lower_bound_and_count_formatting() {
        let m = Measurement::scalar("e", "energy", Unit::Joules, 1.25).as_lower_bound();
        assert_eq!(m.measured_text(), "> 1.250");
        let c = Measurement::scalar("n", "episodes", Unit::Count, 5.0);
        assert_eq!(c.measured_text(), "5");
    }

    #[test]
    fn json_has_schema_fields() {
        let m = Measurement::scalar("x", "X", Unit::Percent, 31.2).with_paper(29.5);
        let j = m.to_json();
        for key in [
            "id",
            "label",
            "unit",
            "value",
            "ci90",
            "min",
            "max",
            "n",
            "paper",
            "delta_pct",
            "lower_bound",
            "note",
            "gate_rel_tol",
            "gate_abs_tol",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("unit").and_then(Json::as_str), Some("%"));
    }
}
