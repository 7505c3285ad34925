//! Golden schema test for the committed perf-observability artefacts:
//! `BENCH_contory.json` (schema `contory-bench/1`) and
//! `results/baseline.json` (schema `contory-bench-baseline/1`).
//!
//! This test is structural, not value-level: it pins field presence, the
//! closed unit vocabulary, quantile monotonicity and the baseline's
//! coverage of every exported measurement, so schema drift is caught by
//! `cargo test` without re-running the (minutes-long) §6 suite. Value
//! drift is the bench gate's job (`bench_all --check` in
//! `scripts/verify.sh`).
#![deny(warnings)]

use benchkit::{Baseline, Unit, BASELINE_SCHEMA, SCHEMA};
use simkit::json::Json;

fn read_repo_file(rel: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e}); run `scripts/bench.sh` to regenerate", path.display()))
}

/// The eight §6 regenerators plus the partitioned-engine scale
/// scenarios, in the fixed export order `bench_all` uses.
const SCENARIOS: [&str; 11] = [
    "table1_latency",
    "table2_energy",
    "idle_power",
    "fig4_power_trace",
    "fig5_failover",
    "sm_breakup",
    "ablation_discovery_cache",
    "ablation_merging",
    "scale_city",
    "broker_load",
    "broker_chaos",
];

#[test]
fn bench_json_schema_is_golden() {
    let doc = Json::parse(&read_repo_file("BENCH_contory.json")).expect("valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
    assert!(
        doc.get("paper")
            .and_then(Json::as_str)
            .is_some_and(|p| p.contains("Contory")),
        "paper tag missing"
    );

    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .expect("scenarios array");
    let names: Vec<&str> = scenarios
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, SCENARIOS, "scenario set/order drifted");

    for s in scenarios {
        let name = s.get("name").and_then(Json::as_str).expect("name");
        // Header fields.
        for key in ["title", "paper_ref", "seed", "sim_events", "sim_time_s"] {
            assert!(s.get(key).is_some(), "{name}: missing '{key}'");
        }
        assert!(
            s.get("sim_events").and_then(Json::as_f64).expect("sim_events") > 0.0,
            "{name}: no simulation cost tallied"
        );

        // Measurements: field presence + closed unit vocabulary.
        let measurements = s
            .get("measurements")
            .and_then(Json::as_arr)
            .expect("measurements array");
        assert!(!measurements.is_empty(), "{name}: no measurements");
        for m in measurements {
            let id = m.get("id").and_then(Json::as_str).expect("measurement id");
            for key in [
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
                assert!(m.get(key).is_some(), "{name}/{id}: missing '{key}'");
            }
            let unit = m.get("unit").and_then(Json::as_str).expect("unit string");
            assert!(
                Unit::parse(unit).is_some(),
                "{name}/{id}: unit '{unit}' outside the closed vocabulary"
            );
            let n = m.get("n").and_then(Json::as_f64).expect("n");
            assert!(n >= 1.0, "{name}/{id}: empty sample");
            let (min, max) = (
                m.get("min").and_then(Json::as_f64).expect("min"),
                m.get("max").and_then(Json::as_f64).expect("max"),
            );
            assert!(min <= max, "{name}/{id}: min {min} > max {max}");
        }

        // Checks: all committed checks pass, and carry their bands.
        for c in s.get("checks").and_then(Json::as_arr).expect("checks array") {
            let id = c.get("id").and_then(Json::as_str).expect("check id");
            assert_eq!(
                c.get("pass").and_then(Json::as_bool),
                Some(true),
                "{name}/{id}: committed artefact contains a failing check"
            );
            let unit = c.get("unit").and_then(Json::as_str).expect("check unit");
            assert!(Unit::parse(unit).is_some(), "{name}/{id}: bad unit '{unit}'");
        }

        // obskit block: span count + monotone histogram quantiles.
        let obs = s.get("obskit").expect("obskit block");
        assert!(obs.get("span_count").and_then(Json::as_f64).is_some());
        assert!(obs.get("phase_totals_ms").is_some());
        let metrics = obs.get("metrics").expect("metrics snapshot");
        for section in ["counters", "gauges", "histograms"] {
            assert!(metrics.get(section).is_some(), "{name}: metrics missing '{section}'");
        }
        if let Some(Json::Obj(hists)) = metrics.get("histograms") {
            for (hname, h) in hists {
                let q = |k: &str| {
                    h.get(k)
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("{name}: histogram '{hname}' missing '{k}'"))
                };
                let (p50, p90, p99) = (q("p50"), q("p90"), q("p99"));
                assert!(
                    p50 <= p90 && p90 <= p99,
                    "{name}: histogram '{hname}' quantiles not monotone: p50={p50} p90={p90} p99={p99}"
                );
                assert!(q("min") <= q("max"), "{name}: histogram '{hname}' min > max");
                assert!(q("count") >= 1.0, "{name}: empty histogram '{hname}' exported");
            }
        }
    }
}

#[test]
fn baseline_covers_every_exported_measurement() {
    let base = Baseline::parse(&read_repo_file("results/baseline.json")).expect("valid baseline");
    assert!(read_repo_file("results/baseline.json").contains(BASELINE_SCHEMA));

    let doc = Json::parse(&read_repo_file("BENCH_contory.json")).expect("valid JSON");
    let mut exported = Vec::new();
    for s in doc.get("scenarios").and_then(Json::as_arr).expect("scenarios") {
        let name = s.get("name").and_then(Json::as_str).expect("name");
        for m in s.get("measurements").and_then(Json::as_arr).expect("measurements") {
            exported.push((
                name.to_owned(),
                m.get("id").and_then(Json::as_str).expect("id").to_owned(),
            ));
        }
    }
    let pinned: Vec<(String, String)> = base
        .metrics
        .iter()
        .map(|m| (m.scenario.clone(), m.id.clone()))
        .collect();
    assert_eq!(
        pinned, exported,
        "baseline pins and exported measurements diverged — re-pin with \
         `bench_all --write-baseline` and review the diff"
    );
    for m in &base.metrics {
        assert!(
            m.rel_tol >= 0.0 && m.abs_tol >= 0.0,
            "{}/{}: negative tolerance",
            m.scenario,
            m.id
        );
        assert!(
            m.rel_tol > 0.0 || m.abs_tol > 0.0,
            "{}/{}: zero-width band would fail on any float jitter",
            m.scenario,
            m.id
        );
    }
}
