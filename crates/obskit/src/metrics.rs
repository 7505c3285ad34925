//! The metrics registry: counters, gauges, histograms.
//!
//! A [`Registry`] maps metric names to values through [`BTreeMap`]s, so
//! the Prometheus-style [`Registry::snapshot`] is byte-deterministic for
//! the same recording sequence — no ordering comes from hashers or
//! insertion history. Merging registries (for roll-ups across phones or
//! runs) is supported for all three kinds.

use crate::hist::Histogram;
use simkit::json::{escape_into, fmt_f64};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A deterministic, name-keyed metrics store.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `by` to the counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, by: u64) {
        let c = self.counters.entry(name.to_owned()).or_insert(0);
        *c = c.saturating_add(by);
    }

    /// Sets the gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_owned(), v);
    }

    /// Records `v` into the histogram `name` (creating it if absent).
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms.entry(name.to_owned()).or_default().record(v);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name, if anything was observed into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into this registry: counters add, gauges take
    /// `other`'s value (last-writer-wins), histograms merge exactly.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            let c = self.counters.entry(name.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders a deterministic JSON snapshot of the registry.
    ///
    /// Schema (`obskit-metrics/1`):
    ///
    /// ```json
    /// {
    ///   "counters": {"name": 3},
    ///   "gauges": {"name": 0.5},
    ///   "histograms": {
    ///     "name": {"count": 2, "sum": 105, "min": 5, "max": 100,
    ///              "mean": 52.5, "p50": 7, "p90": 127, "p99": 127}
    ///   }
    /// }
    /// ```
    ///
    /// All three maps render in `BTreeMap` (name) order and quantiles
    /// come from [`Histogram::quantile`], which is monotone in `q` — so
    /// `p50 <= p90 <= p99` always holds and two identical recording
    /// sequences produce byte-identical JSON (the property the same-seed
    /// identity test pins down).
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            push_key(&mut out, i, name);
            let _ = write!(out, "{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            push_key(&mut out, i, name);
            out.push_str(&fmt_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            push_key(&mut out, i, name);
            let _ = write!(
                out,
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                fmt_f64(h.mean()),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders a Prometheus-style text snapshot.
    ///
    /// Counters and gauges print as `name value`; histograms print
    /// cumulative `name_bucket{le="..."}` lines plus `_sum`/`_count`.
    /// Output order is the `BTreeMap` order of names, so two identical
    /// recording sequences produce byte-identical snapshots.
    pub fn snapshot(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for (upper, n) in h.buckets() {
                cum += n;
                let _ = writeln!(out, "{name}_bucket{{le=\"{upper}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

/// Writes the `"name":` key of the `i`-th map entry, comma-separated
/// from the previous one. Names are plain identifiers in practice, but
/// the exporter must never emit malformed JSON, so they are escaped.
fn push_key(out: &mut String, i: usize, name: &str) {
    if i > 0 {
        out.push(',');
    }
    out.push('"');
    escape_into(name, out);
    out.push_str("\":");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.gauge_set("g", 0.5);
        r.gauge_set("g", 0.25);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("g"), Some(0.25));
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let mut r = Registry::new();
        r.counter_add("z_total", 1);
        r.counter_add("a_total", 1);
        r.observe("lat_us", 100);
        r.observe("lat_us", 5);
        let s1 = r.snapshot();
        let s2 = r.snapshot();
        assert_eq!(s1, s2);
        let a = s1.find("a_total").unwrap();
        let z = s1.find("z_total").unwrap();
        assert!(a < z, "names must render in sorted order:\n{s1}");
        assert!(s1.contains("lat_us_count 2"));
        assert!(s1.contains("lat_us_sum 105"));
        assert!(s1.contains("le=\"+Inf\"} 2"));
    }

    /// Satellite of the benchkit PR: the JSON exporter is deterministic —
    /// two identical recording sequences (the same "seed") produce
    /// byte-identical JSON, and quantile keys are monotone.
    #[test]
    fn json_snapshot_same_seed_byte_identity() {
        let record = || {
            let mut r = Registry::new();
            r.counter_add("requests_total", 7);
            r.counter_add("errors_total", 1);
            r.gauge_set("battery_pct", 81.25);
            r.gauge_set("rssi_dbm", -63.5);
            for v in [100u64, 5, 0, 90_000, 17, 17, 2_000_000] {
                r.observe("lat_us", v);
            }
            r.snapshot_json()
        };
        let a = record();
        let b = record();
        assert_eq!(a, b, "same recording sequence must export identical bytes");
        assert!(a.starts_with("{\"counters\":{"));
        assert!(a.contains("\"requests_total\":7"));
        assert!(a.contains("\"battery_pct\":81.25"));
        assert!(a.contains("\"lat_us\":{\"count\":7"));
    }

    #[test]
    fn json_snapshot_quantiles_monotone() {
        let mut r = Registry::new();
        for v in [1u64, 2, 4, 8, 1024, 1 << 20] {
            r.observe("h", v);
        }
        let h = r.histogram("h").unwrap();
        assert!(h.quantile(0.50) <= h.quantile(0.90));
        assert!(h.quantile(0.90) <= h.quantile(0.99));
        let json = r.snapshot_json();
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    fn json_snapshot_empty_registry() {
        assert_eq!(
            Registry::new().snapshot_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn merge_combines_all_kinds() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("c", 1);
        b.counter_add("c", 2);
        a.gauge_set("g", 1.0);
        b.gauge_set("g", 9.0);
        a.observe("h", 4);
        b.observe("h", 8);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h").unwrap().sum(), 12);
    }
}
