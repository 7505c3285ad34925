//! benchkit — machine-readable perf observability over the paper's §6
//! evaluation suite.
//!
//! The eight bench binaries that regenerate the paper's tables and
//! figures used to print human tables straight into `results/*.txt`;
//! there was no machine-readable perf trajectory and no gate that
//! caught a latency/energy regression before it landed. benchkit closes
//! that gap:
//!
//! * [`Scenario`] — one trait unifying all eight §6 regenerators
//!   (name, seed, paper reference, `run` into typed [`Measurement`]s
//!   with units and paper reference values);
//! * [`RunCtx`] — the per-run collector: measurements, tolerance-band
//!   [`Check`]s, notes, text artifacts, and the simulation cost tally;
//!   the harness installs an [`obskit::Obs`] around every run and
//!   captures the metrics snapshot plus span-derived phase break-ups
//!   into the report;
//! * [`Report`] / [`ScenarioReport`] — one structured source of truth
//!   that renders both the human tables (`results/*.txt`) and the
//!   versioned `BENCH_contory.json` (schema [`report::SCHEMA`]);
//! * [`Baseline`] — the checked-in `results/baseline.json` with
//!   per-metric tolerance bands; `bench_all --check` diffs current vs.
//!   baseline and fails on out-of-band regressions, the perf sibling of
//!   the lintkit and obs gates.
//!
//! # Determinism
//!
//! Everything is seed-driven and sim-clock-only, and every exporter
//! renders from ordered containers — two same-seed `bench_all` runs
//! write byte-identical `BENCH_contory.json` files (asserted by the
//! determinism suite). The crate is dependency-free beyond `simkit` and
//! `obskit`; JSON comes from [`simkit::json`], the workspace's one
//! hand-rolled codec (the build environment is offline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod measure;
pub mod report;
pub mod scenario;

pub use baseline::{Baseline, BaselineMetric, Violation, BASELINE_SCHEMA};
pub use measure::{Measurement, Unit};
pub use report::{render_measurement_table, Report, ScenarioReport, SCHEMA};
pub use scenario::{run_scenario, Check, RunCtx, Scenario};

/// Runs every scenario in order and assembles the combined report.
pub fn run_all(scenarios: &[Box<dyn Scenario>]) -> Report {
    let mut report = Report::new();
    for s in scenarios {
        report.scenarios.push(run_scenario(s.as_ref()));
    }
    report
}

/// Convenience for the thin per-scenario bins: run one scenario and
/// return its report together with the rendered text.
pub fn run_and_render(s: &dyn Scenario) -> (ScenarioReport, String) {
    let report = run_scenario(s);
    let text = report.render_text();
    (report, text)
}
