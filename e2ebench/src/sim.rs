//! The two simulator workloads, driven through the public profiled
//! entry points: `brokerd::run_fleet_profiled` (`fleet_chaos`) and
//! `scale_city::run_city_profiled` (`city_gossip`).
//!
//! Each run sets up several times (a zero-length horizon builds and
//! drops every actor), runs the 1×1 reference once, then repeats the
//! horizon in the 1×1 layout until the time budget is spent, comparing
//! every outcome with the reference. The traced run adds one horizon in
//! the `nproc` × `nproc` layout, for the shard-engine rows and the
//! partition-invariance check.
//!
//! Horizons are timed in 1×1 because a parallel horizon needs both
//! virtual CPUs of the reference host at once, and the hypervisor takes
//! them away by turns: ten `fleet_chaos` seeds took 9.5–24.7 s per 2×2
//! horizon (spread 0.53) and ten `city_gossip` seeds 1.1–2.8 s (spread
//! 0.84), while their 1×1 horizons moved by about a quarter at worst.

use crate::clock;
use crate::spans::Tracer;
use crate::stats::{self, Summary};
use crate::Outcome;
use brokerd::{
    fault_edges, link_faults, link_label, restart_edges, run_fleet_profiled, FleetConfig,
    NodeConfig,
};
use contory_bench::scenarios::scale_city::{run_city_profiled, CityConfig};
use simkit::faults::{FaultPlan, LinkFault};
use simkit::shard::EngineProfile;
use simkit::{SimDuration, SimTime};

/// `fleet_chaos` population. `broker_chaos` runs 10,000 devices; this
/// keeps its traffic shape (4 brokers, every link lossy, one
/// crash-restart, lease renewal) at a size whose `nproc` × `nproc`
/// horizon (~9 s on a quiet host) fits a traced run, while that horizon
/// stays barrier-bound (~2.5 events per round).
pub const FLEET_DEVICES: u64 = 2_000;
const FLEET_BROKERS: u16 = 4;
const FLEET_HORIZON_SECS: u64 = 30;
/// Set-ups (a few ms each) timed per run, and horizons (~0.45 s each)
/// timed per run at least.
const FLEET_PLAN: Plan = Plan {
    spans: ("fleet.setup", "fleet.reference", "fleet.run"),
    setups: 21,
    min_horizons: 5,
};

/// `broker_chaos`'s per-link fault: ~6% drop, 5% duplication, 4%
/// reorder (bounded 60 ms), up to 20 ms jitter.
pub const LINK_FAULT: LinkFault = LinkFault {
    drop_ppm: 60_000,
    dup_ppm: 50_000,
    reorder_ppm: 40_000,
    reorder_delay: SimDuration::from_millis(60),
    jitter: SimDuration::from_millis(20),
};

/// `city_gossip` population and horizon (`scale_city` runs 30 sim-s;
/// 10 keeps its 100k-device working set and ~16.7k events per round).
pub const CITY_DEVICES: u64 = 100_000;
const CITY_HORIZON_SECS: u64 = 10;
/// Set-ups (~50 ms each) timed per run, and horizons (~1.8 s each)
/// timed per run at least.
const CITY_PLAN: Plan = Plan {
    spans: ("city.setup", "city.reference", "city.run"),
    setups: 9,
    min_horizons: 3,
};

/// `broker_chaos`'s fleet at [`FLEET_DEVICES`]: crash-restart of
/// broker 1 at 6 s for 5 s, chaos until 15 s, 12 s leases renewed
/// every 5 s, four forward attempts.
pub fn chaos_fleet(seed: u64, layout: u32, run_for: SimDuration) -> FleetConfig {
    let mut plan = FaultPlan::new(seed);
    for a in 0..FLEET_BROKERS {
        for b in 0..FLEET_BROKERS {
            if a != b {
                plan.lossy_link(&link_label(a, b), LINK_FAULT);
            }
        }
    }
    plan.crash_restart("broker:1", SimTime::from_secs(6), SimDuration::from_secs(5));
    let mut cfg = FleetConfig {
        seed,
        brokers: FLEET_BROKERS,
        devices: FLEET_DEVICES,
        shards: layout,
        threads: layout,
        run_for,
        node: NodeConfig::default(),
        ..FleetConfig::default()
    };
    cfg.node.fwd_attempts = 4;
    cfg.fault_edges = fault_edges(&plan, FLEET_BROKERS);
    cfg.restarts = restart_edges(&plan, FLEET_BROKERS);
    cfg.link_faults = link_faults(&plan, FLEET_BROKERS);
    cfg.chaos_until = Some(SimTime::from_secs(15));
    cfg.sub_lease = Some(SimDuration::from_secs(12));
    cfg.resub_every = Some(SimDuration::from_secs(5));
    cfg
}

/// What one horizon produced.
struct Horizon<O> {
    out: O,
    profile: EngineProfile,
    secs: f64,
}

/// How one simulator workload is measured.
struct Plan {
    /// Span names of a set-up, the 1×1 reference and a timed horizon.
    spans: (&'static str, &'static str, &'static str),
    /// Set-ups timed per run.
    setups: usize,
    /// Horizons timed per run at least, whatever the time budget.
    min_horizons: usize,
}

/// What the measurement loop of one simulator run collected.
struct SimRun<O> {
    setup_s: Vec<f64>,
    reference: Horizon<O>,
    /// Wall seconds of the timed horizons. Their outcomes are checked
    /// and dropped, so memory does not grow with the number a run fits.
    horizon_secs: Vec<f64>,
    /// The traced run's `nproc` × `nproc` horizon, for the shard rows.
    parallel: Option<Horizon<O>>,
    traced_secs: Vec<f64>,
    untraced_secs: Vec<f64>,
    checked: u64,
    mismatches: u64,
}

/// Runs one simulator workload's measurement loop. `run(layout, zero)`
/// runs one horizon (or a zero-length one) in `layout` × `layout`.
fn measure<O: PartialEq>(
    plan: &Plan,
    seconds: u64,
    nproc: u32,
    tr: &mut Tracer,
    mut run: impl FnMut(u32, bool) -> (O, EngineProfile),
) -> SimRun<O> {
    let (setup_span, reference_span, run_span) = plan.spans;
    let setup_s = (0..plan.setups)
        .map(|_| {
            let id = tr.open(setup_span, 0);
            let (_, ns) = clock::timed(|| run(1, true));
            tr.close(id, 1);
            ns as f64 / 1e9
        })
        .collect();
    let mut timed = |tr: &mut Tracer, name: &'static str, layout: u32| {
        let id = tr.open(name, 0);
        let ((out, profile), ns) = clock::timed(|| run(layout, false));
        tr.close(id, 1);
        Horizon {
            out,
            profile,
            secs: ns as f64 / 1e9,
        }
    };
    let reference = timed(tr, reference_span, 1);
    let mut checked = 0;
    let mut mismatches = 0;
    let mut check = |h: &Horizon<O>| {
        checked += 1;
        mismatches += u64::from(h.out != reference.out);
    };

    // The traced run alternates untraced and traced horizons so the
    // tracing overhead is measured on the same host state.
    let traced_run = tr.on();
    let start = clock::now();
    let mut horizon_secs = Vec::new();
    let (mut traced_secs, mut untraced_secs) = (Vec::new(), Vec::new());
    while horizon_secs.len() < plan.min_horizons || start.elapsed_s() < seconds as f64 {
        let on = traced_run && horizon_secs.len() % 2 == 1;
        tr.set_on(on);
        let h = timed(tr, run_span, 1);
        if on {
            &mut traced_secs
        } else {
            &mut untraced_secs
        }
        .push(h.secs);
        check(&h);
        horizon_secs.push(h.secs);
    }
    tr.set_on(traced_run);
    let parallel = traced_run.then(|| {
        let h = timed(tr, "shard.parallel_horizon", nproc);
        check(&h);
        h
    });
    SimRun {
        setup_s,
        reference,
        horizon_secs,
        parallel,
        traced_secs,
        untraced_secs,
        checked,
        mismatches,
    }
}

impl<O> SimRun<O> {
    fn latency_us(&self) -> Summary {
        let us: Vec<f64> = self.horizon_secs.iter().map(|s| s * 1e6).collect();
        stats::summarize(&us).unwrap_or(Summary {
            n: 0,
            p50: f64::NAN,
            tail: f64::NAN,
            tail_pct: 0.0,
        })
    }

    fn run_s(&self) -> f64 {
        self.latency_us().p50 / 1e6
    }

    /// Per-layer rows of the traced run: the parallel horizon's profile
    /// and time against the median 1×1 time (none in an untraced run).
    fn shard_layers(&self, events: u64) -> Vec<(&'static str, f64)> {
        let Some(p) = &self.parallel else {
            return Vec::new();
        };
        let (par_s, prof, seq_s) = (p.secs, &p.profile, self.run_s());
        let rounds = prof.rounds.max(1) as f64;
        vec![
            ("shard.rounds", prof.rounds as f64),
            ("shard.events_per_round", events as f64 / rounds),
            ("shard.barrier_us_per_round", (par_s - seq_s) * 1e6 / rounds),
            ("shard.ns_per_event_seq", seq_s * 1e9 / events.max(1) as f64),
            ("shard.stall_mean", prof.barrier_imbalance.mean() as f64),
            // Peak memory comes from the timed 1×1 horizons, so the
            // queue peak that drives it is the 1×1 one.
            (
                "shard.queue_peak",
                self.reference.profile.max_queue_peak() as f64,
            ),
            ("shard.seq_run_s", seq_s),
            ("shard.parallel_ratio", par_s / seq_s),
            (
                "bench.trace_overhead_ratio",
                stats::median(&self.traced_secs) / stats::median(&self.untraced_secs),
            ),
        ]
    }

    fn outcome(&self, events: u64, reference_ok: bool, mut notes: Vec<String>) -> Outcome {
        let secs: Vec<String> = self
            .horizon_secs
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect();
        notes.push(format!(
            "timed horizons {}, wall s: {}; 1x1 reference {:.3} s{}; outcomes checked {}, mismatches {}",
            self.horizon_secs.len(),
            secs.join(" "),
            self.reference.secs,
            self.parallel.as_ref().map_or(String::new(), |p| format!("; parallel horizon {:.3} s", p.secs)),
            self.checked,
            self.mismatches
        ));
        Outcome {
            attempted: self.checked + 1,
            failed: self.mismatches + u64::from(!reference_ok),
            setup_s: self.setup_s.clone(),
            latency_us: self.latency_us(),
            throughput_per_s: events as f64 / self.run_s(),
            peak_rss_mb: None,
            layers: self.shard_layers(events),
            notes,
        }
    }
}

/// `fleet_chaos`: the lossy, crash-restarting broker federation.
pub fn fleet_chaos(seed: u64, seconds: u64, nproc: u32, tr: &mut Tracer) -> Outcome {
    let horizon = SimDuration::from_secs(FLEET_HORIZON_SECS);
    let run = measure(&FLEET_PLAN, seconds, nproc, tr, |l, zero| {
        let cfg = chaos_fleet(seed, l, if zero { SimDuration::ZERO } else { horizon });
        run_fleet_profiled(&cfg)
    });
    let r = &run.reference.out;
    // Idempotence holds absolutely; everything else must match the
    // 1×1 reference of the same seed (the report line covers every
    // counter, the transcript digest and the trace digest).
    let reference_ok = r.duplicate_deliveries == 0;
    let sends = (r.forwarded + r.retries).max(1) as f64;
    let mut out = run.outcome(
        r.events,
        reference_ok,
        vec![
            format!("fleet: {FLEET_DEVICES} devices, {FLEET_BROKERS} brokers, {FLEET_HORIZON_SECS} sim-s, every link lossy, broker 1 crash-restarted"),
            format!("reference 1x1: {}", r.report()),
            format!("dir_converged {}, duplicate_deliveries {}", r.dir_converged, r.duplicate_deliveries),
        ],
    );
    out.layers.extend([
        ("fleet.published", r.published as f64),
        ("fleet.delivered", r.delivered as f64),
        ("federation.retries", r.retries as f64),
        ("federation.retry_exhausted", r.retry_exhausted as f64),
        (
            "federation.useful_ratio",
            (r.forwarded - r.retry_exhausted.min(r.forwarded)) as f64 / sends,
        ),
        ("dedup.suppressed", r.dedup_suppressed as f64),
        (
            "tracekit.spans_per_kevent",
            r.trace_spans as f64 * 1000.0 / r.events.max(1) as f64,
        ),
    ]);
    out
}

/// `city_gossip`: 100k gossiping devices on the sharded engine.
pub fn city_gossip(seed: u64, seconds: u64, nproc: u32, tr: &mut Tracer) -> Outcome {
    let horizon = SimDuration::from_secs(CITY_HORIZON_SECS);
    let run = measure(&CITY_PLAN, seconds, nproc, tr, |l, zero| {
        run_city_profiled(CityConfig {
            devices: CITY_DEVICES,
            shards: l,
            threads: l,
            seed,
            horizon: if zero { SimDuration::ZERO } else { horizon },
        })
    });
    let r = &run.reference.out;
    run.outcome(
        r.events,
        r.dead_letters == 0,
        vec![
            format!("city: {CITY_DEVICES} devices, {CITY_HORIZON_SECS} sim-s"),
            format!(
                "reference 1x1: events={} delivered={} dead_letters={} checksum={:016x}",
                r.events, r.delivered, r.dead_letters, r.checksum
            ),
        ],
    )
}
