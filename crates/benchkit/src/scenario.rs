//! The [`Scenario`] trait and the [`RunCtx`] collector every scenario
//! records into.
//!
//! A scenario is one of the paper's §6 regenerators (a table, a figure,
//! an in-text measurement set or an ablation). The harness installs an
//! [`obskit::Obs`] collector around [`Scenario::run`], so everything the
//! provisioning layers record during the run — counters, gauges,
//! histograms, spans — is captured into the scenario's report next to
//! the typed measurements the scenario pushes explicitly.

use crate::measure::{Measurement, Unit};
use crate::report::ScenarioReport;
use obskit::{Obs, Phase};
use simkit::json::Json;

/// One §6 regenerator behind a common harness interface.
pub trait Scenario {
    /// Stable snake_case scenario name (`table1_latency`, …); JSON key
    /// and `results/<name>.txt` stem.
    fn name(&self) -> &'static str;

    /// Human title (table/figure caption).
    fn title(&self) -> &'static str;

    /// Which part of the paper this regenerates (`"Table 1"`,
    /// `"Fig. 5"`, `"§6.1 in-text"`, `"ablation"`).
    fn paper_ref(&self) -> &'static str;

    /// Base seed of the scenario's deterministic testbeds (internal
    /// testbeds may derive offsets from it).
    fn seed(&self) -> u64;

    /// Runs the scenario, recording measurements, tolerance-band checks
    /// and notes into `ctx`.
    fn run(&self, ctx: &mut RunCtx);
}

/// A tolerance-band check: `lo <= value <= hi` with either bound
/// optional. This is the *one* assertion mechanism shared by the obs
/// gate (in-scenario bands like the §6.1 phase shares and the Fig. 5
/// 45 s gap SLO) and the bench gate (baseline diffing) — a failed band
/// fails the bench binary and `bench_all --check` alike.
#[derive(Clone, Debug)]
pub struct Check {
    /// Stable snake_case check id.
    pub id: String,
    /// Human description.
    pub label: String,
    /// Observed value.
    pub value: f64,
    /// Inclusive lower bound, if any.
    pub lo: Option<f64>,
    /// Inclusive upper bound, if any.
    pub hi: Option<f64>,
    /// Unit of `value`.
    pub unit: Unit,
    /// Whether the value landed inside the band.
    pub pass: bool,
}

impl Check {
    /// Renders the band as `[lo, hi]` with `-inf`/`+inf` for open ends.
    pub fn band_text(&self) -> String {
        let lo = self.lo.map_or("-inf".to_owned(), |v| format!("{v}"));
        let hi = self.hi.map_or("+inf".to_owned(), |v| format!("{v}"));
        format!("[{lo}, {hi}] {}", self.unit)
    }

    /// JSON export (stable key order).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("id", Json::str(&self.id));
        o.set("label", Json::str(&self.label));
        o.set("value", Json::num(self.value));
        o.set("lo", Json::opt_num(self.lo));
        o.set("hi", Json::opt_num(self.hi));
        o.set("unit", Json::str(self.unit.as_str()));
        o.set("pass", Json::Bool(self.pass));
        o
    }
}

/// The collector a scenario records into while it runs.
///
/// Also constructible directly (outside [`crate::run_scenario`]) so
/// tests — e.g. the determinism transcript — can assemble a report from
/// an existing run and render the same JSON.
pub struct RunCtx {
    obs: Obs,
    report: ScenarioReport,
}

impl RunCtx {
    /// Creates an empty collector with fresh [`Obs`] instrumentation.
    pub fn new(name: &str, title: &str, paper_ref: &str, seed: u64) -> RunCtx {
        RunCtx {
            obs: Obs::new(),
            report: ScenarioReport::new(name, title, paper_ref, seed),
        }
    }

    /// The obskit collector the harness installs around the run.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Records a measurement.
    pub fn push(&mut self, m: Measurement) {
        self.report.measurements.push(m);
    }

    /// Records a tolerance-band check (`lo <= value <= hi`, bounds
    /// inclusive and optional) and returns whether it passed. Failed
    /// checks fail the scenario's bench binary and `bench_all`.
    pub fn check_band(
        &mut self,
        id: &str,
        label: &str,
        value: f64,
        lo: Option<f64>,
        hi: Option<f64>,
        unit: Unit,
    ) -> bool {
        let pass = lo.is_none_or(|l| value >= l) && hi.is_none_or(|h| value <= h);
        self.report.checks.push(Check {
            id: id.to_owned(),
            label: label.to_owned(),
            value,
            lo,
            hi,
            unit,
            pass,
        });
        pass
    }

    /// Records a boolean check as a `[1, 1]` band on `cond as f64`.
    pub fn check_true(&mut self, id: &str, label: &str, cond: bool) -> bool {
        self.check_band(
            id,
            label,
            if cond { 1.0 } else { 0.0 },
            Some(1.0),
            Some(1.0),
            Unit::Count,
        )
    }

    /// Appends a prose note (rendered in the text report *and* exported
    /// in JSON).
    pub fn note(&mut self, line: impl Into<String>) {
        self.report.notes.push(line.into());
    }

    /// Attaches a free-form text artifact (ASCII power plots, raw
    /// report dumps). Rendered in the text report only — artifacts are
    /// bulky and already derivable, so the JSON stays structured.
    pub fn artifact(&mut self, title: &str, body: impl Into<String>) {
        self.report.artifacts.push((title.to_owned(), body.into()));
    }

    /// Accumulates a finished testbed's simulation cost (event count and
    /// final virtual time) into the report.
    pub fn tally_sim(&mut self, sim: &simkit::Sim) {
        self.tally_events(sim.events_processed(), sim.now());
    }

    /// Accumulates simulation cost from a run not driven by a classic
    /// [`simkit::Sim`] (the partitioned `ShardSim` engine reports its
    /// counters through this).
    pub fn tally_events(&mut self, events: u64, end: simkit::SimTime) {
        self.report.sim_events += events;
        self.report.sim_time_s += end.as_secs_f64();
    }

    /// Captures the obskit collector into the report and returns it.
    pub fn finish(self) -> ScenarioReport {
        let mut report = self.report;
        report.obs_span_count = self.obs.span_count() as u64;
        report.obs_metrics = match Json::parse(&self.obs.metrics_json()) {
            Ok(v) => v,
            Err(_) => Json::Null, // unreachable: our own exporter
        };
        let mut phases = Vec::new();
        for phase in Phase::ALL {
            let total_ms = self.obs.phase_total(phase).as_millis_f64();
            if total_ms > 0.0 {
                phases.push((phase.as_str().to_owned(), total_ms));
            }
        }
        report.obs_phases = phases;
        report
    }
}

/// Runs one scenario under a fresh obskit collector and returns its
/// report.
pub fn run_scenario(s: &dyn Scenario) -> ScenarioReport {
    let mut ctx = RunCtx::new(s.name(), s.title(), s.paper_ref(), s.seed());
    {
        let _guard = ctx.obs.clone().install();
        s.run(&mut ctx);
    }
    ctx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy;
    impl Scenario for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn title(&self) -> &'static str {
            "Toy scenario"
        }
        fn paper_ref(&self) -> &'static str {
            "none"
        }
        fn seed(&self) -> u64 {
            7
        }
        fn run(&self, ctx: &mut RunCtx) {
            obskit::count("toy_runs", 1);
            obskit::observe("toy_lat_us", 1234);
            let root = obskit::start(
                obskit::Phase::Transfer,
                "t",
                None,
                simkit::SimTime::ZERO,
            );
            obskit::end(root, simkit::SimTime::from_millis(4));
            ctx.push(Measurement::scalar("m", "metric", Unit::Millis, 4.0));
            assert!(ctx.check_band("b", "band", 4.0, Some(1.0), Some(10.0), Unit::Millis));
            ctx.note("a note");
        }
    }

    #[test]
    fn run_scenario_captures_obs() {
        let r = run_scenario(&Toy);
        assert_eq!(r.name, "toy");
        assert_eq!(r.seed, 7);
        assert_eq!(r.measurements.len(), 1);
        assert_eq!(r.checks.len(), 1);
        assert!(r.checks[0].pass);
        assert_eq!(r.obs_span_count, 1);
        assert_eq!(
            r.obs_metrics
                .get("counters")
                .and_then(|c| c.get("toy_runs"))
                .and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(r.obs_phases, vec![("transfer".to_owned(), 4.0)]);
    }

    #[test]
    fn same_seed_reports_render_identically() {
        let a = run_scenario(&Toy).to_json().render();
        let b = run_scenario(&Toy).to_json().render();
        assert_eq!(a, b);
    }

    #[test]
    fn check_band_bounds_inclusive_and_open() {
        let mut ctx = RunCtx::new("x", "x", "none", 0);
        assert!(ctx.check_band("a", "a", 45.0, None, Some(45.0), Unit::Secs));
        assert!(!ctx.check_band("b", "b", 45.001, None, Some(45.0), Unit::Secs));
        assert!(ctx.check_band("c", "c", 1e9, Some(1.0), None, Unit::Count));
        assert!(ctx.check_true("d", "d", true));
        assert!(!ctx.check_true("e", "e", false));
        let r = ctx.finish();
        assert_eq!(r.failed_checks().len(), 2);
    }
}
