//! Golden schema test for the tracekit exports: the canonical span
//! JSONL stream (`tests/trace.sh` / transcript embedding) and the
//! break-up JSON (`contory-trace-breakup/1`).
//!
//! Like `tests/bench_schema.rs` this is structural *and* golden: the
//! JSONL line shape, key order and closed stage vocabulary are pinned
//! byte-for-byte on a hand-built trace, so any drift in the export —
//! field renames, reordered keys, float leakage — fails `cargo test`
//! without running the minutes-long suites. Span ids are deterministic
//! hashes, so the golden bytes are stable across platforms.
#![deny(warnings)]

use simkit::json::Json;
use simkit::{SimDuration, SimTime};
use tracekit::{assemble, Breakup, Stage, TraceCtx, TraceLog};

/// publish(dev 1000) → admit/enqueue/dispatch(broker 1) → deliver
/// (dev 2000), fully sampled: the minimal end-to-end delivery.
fn golden_log() -> TraceLog {
    let mut log = TraceLog::new();
    let ms = SimDuration::from_millis;
    let t0 = SimTime::from_secs(5);
    let root = TraceCtx::root(99, 0);
    let p = log.record(root, Stage::Publish, 1000, t0);
    let a = log.record(root.child(p), Stage::Admit, 1, t0 + ms(2));
    let e = log.record(root.child(a), Stage::Enqueue, 1, t0 + ms(2));
    let d = log.record(root.child(e), Stage::Dispatch, 1, t0 + ms(40));
    log.record(root.child(d), Stage::Deliver, 2000, t0 + ms(45));
    log
}

#[test]
fn trace_jsonl_export_is_golden() {
    let log = golden_log();
    let export = log.export_jsonl();

    // Structural contract: one object per line, fixed key order, hex
    // trace ids, integer fields, closed stage vocabulary.
    for line in export.lines() {
        let obj = Json::parse(line).expect("every line is a JSON object");
        let trace = obj.get("trace").and_then(Json::as_str).expect("trace key");
        assert_eq!(trace.len(), 16, "trace id is 16 hex chars");
        assert!(trace.chars().all(|c| c.is_ascii_hexdigit()));
        for key in ["span", "parent", "node", "hop", "at_us"] {
            let v = obj.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("{key} missing"));
            assert!(v >= 0.0 && v.fract() == 0.0, "{key} must be a non-negative integer");
        }
        let stage = obj.get("stage").and_then(Json::as_str).expect("stage key");
        assert!(
            Stage::ALL.iter().any(|s| s.as_str() == stage),
            "unknown stage {stage:?}"
        );
        let keys: Vec<&str> = ["trace", "span", "parent", "stage", "node", "hop", "at_us"]
            .into_iter()
            .filter(|k| line.contains(&format!("\"{k}\":")))
            .collect();
        assert_eq!(keys.len(), 7, "key set drifted: {line}");
    }

    // Round trip: parsing the export reproduces the log bit-for-bit.
    let back = TraceLog::parse_jsonl(&export).expect("export parses");
    assert_eq!(back.export_jsonl(), export);
    assert_eq!(back.digest(), log.digest());

    // Golden bytes: the exact canonical export of the hand-built trace.
    let expected = "\
{\"trace\":\"42f3a9364c476be3\",\"span\":3193901811,\"parent\":0,\"stage\":\"publish\",\"node\":1000,\"hop\":0,\"at_us\":5000000}
{\"trace\":\"42f3a9364c476be3\",\"span\":3095122015,\"parent\":3193901811,\"stage\":\"admit\",\"node\":1,\"hop\":0,\"at_us\":5002000}
{\"trace\":\"42f3a9364c476be3\",\"span\":2297123967,\"parent\":3095122015,\"stage\":\"enqueue\",\"node\":1,\"hop\":0,\"at_us\":5002000}
{\"trace\":\"42f3a9364c476be3\",\"span\":2811037471,\"parent\":2297123967,\"stage\":\"dispatch\",\"node\":1,\"hop\":0,\"at_us\":5040000}
{\"trace\":\"42f3a9364c476be3\",\"span\":1711173837,\"parent\":2811037471,\"stage\":\"deliver\",\"node\":2000,\"hop\":0,\"at_us\":5045000}
";
    assert_eq!(export, expected, "canonical trace JSONL drifted");
}

#[test]
fn breakup_json_schema_is_golden() {
    let breakup = Breakup::of(&assemble(&golden_log()));
    let json = breakup.to_json();
    let doc = Json::parse(&json).expect("breakup JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("contory-trace-breakup/1")
    );
    for key in ["deliveries", "latency_us_total", "latency_us_p50", "latency_us_p99"] {
        let v = doc.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("{key} missing"));
        assert!(v >= 0.0 && v.fract() == 0.0, "{key} must be an integer");
    }
    assert!(
        doc.get("latency_us_p99").and_then(Json::as_f64)
            >= doc.get("latency_us_p50").and_then(Json::as_f64),
        "quantiles out of order"
    );
    let stages = doc.get("stages").expect("stages object");
    let mut share_total = 0.0;
    for stage in Stage::ALL {
        let Some(row) = stages.get(stage.as_str()) else {
            continue;
        };
        for key in ["us", "share_pm", "samples"] {
            assert!(row.get(key).is_some(), "{stage}: missing '{key}'");
        }
        share_total += row.get("share_pm").and_then(Json::as_f64).expect("share_pm");
    }
    assert!(share_total <= 1000.0, "stage shares exceed 1000 per mille");

    // Golden: one delivery, 45 ms critical path, every µs attributed.
    assert_eq!(breakup.deliveries(), 1);
    assert_eq!(breakup.total_us(), 45_000);
    assert_eq!(
        json,
        "{\"schema\":\"contory-trace-breakup/1\",\"deliveries\":1,\
         \"latency_us_total\":45000,\"latency_us_p50\":45000,\"latency_us_p99\":45000,\
         \"stages\":{\
         \"admit\":{\"us\":2000,\"share_pm\":44,\"samples\":1},\
         \"deliver\":{\"us\":5000,\"share_pm\":111,\"samples\":1},\
         \"dispatch\":{\"us\":38000,\"share_pm\":844,\"samples\":1},\
         \"enqueue\":{\"us\":0,\"share_pm\":0,\"samples\":1}}}",
        "break-up JSON drifted"
    );
}
