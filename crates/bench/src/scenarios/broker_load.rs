//! `broker_load` — the federated broker fleet under city load
//! (beyond-paper; gates `crates/brokerd`).
//!
//! 10 000 devices publish attributed, lifetime-bound context into a
//! four-broker federation running on the partitioned engine
//! ([`brokerd::run_fleet`]); one broker is killed mid-run by a scripted
//! [`FaultPlan`] edge. The offered load deliberately exceeds the
//! brokers' bounded-inbox drain capacity, so the admission path sheds a
//! deterministic fraction — throughput, shed rate and fan-out latency
//! are all pure functions of the seed.
//!
//! Rows exported, mirroring `scale_city`'s two-kind scheme:
//!
//! * **Deterministic rows** (publishes, deliveries, shed ppm, federation
//!   forwards, re-homings, fan-out p50/p99, the report digest) — pinned
//!   near-exactly in `results/baseline.json` and byte-identical across
//!   engine shard counts, worker-thread counts and broker table shard
//!   counts (cross-checked in-scenario on a small fleet).
//! * **Wall-clock rows** (elapsed seconds, events per wall second, and
//!   the interner micro-benchmark) — measured through
//!   [`criterion::time_once`], order-of-magnitude bands.
//!
//! The micro-benchmark backs the `core::vocab` design note: matching
//! context types by interned [`Sym`](contory::vocab::Sym) is a single
//! `u16` compare, where the pre-interner broker matched qualified
//! vocabulary strings — the `intern_speedup` row records the measured
//! gap and `sym_compare_not_slower` asserts its direction.

use benchkit::{Measurement, RunCtx, Scenario, Unit};
use brokerd::{fault_edges, run_fleet, run_fleet_profiled, FleetConfig, NodeConfig};
use contory::vocab::Interner;
use tracekit::{assemble, Breakup, Stage};
use simkit::faults::FaultPlan;
use simkit::hash::mix64;
use simkit::shard::ShardConfig;
use simkit::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU32, Ordering};

/// Shard count `bench_all --shards N` overrides (0 ⇒ default 8).
static SHARDS: AtomicU32 = AtomicU32::new(0);

/// Overrides the engine shard count of the big fleet run
/// (`bench_all --shards N`). Outputs are shard-count-invariant; only the
/// wall-clock rows move.
pub fn set_shards(n: u32) {
    SHARDS.store(n.max(1), Ordering::SeqCst);
}

fn shards() -> u32 {
    match SHARDS.load(Ordering::SeqCst) {
        0 => 8,
        n => n,
    }
}

/// The big run's device population.
pub const FLEET_DEVICES: u64 = 10_000;
/// Brokers in the federation.
pub const FLEET_BROKERS: u16 = 4;
/// Virtual horizon of the big run.
pub const FLEET_HORIZON_SECS: u64 = 20;
/// The broker the fault plan kills, and when.
const KILLED_BROKER: &str = "broker:2";
const KILL_AT_SECS: u64 = 10;

/// Comparisons per interner micro-benchmark batch.
const CMP_BATCH: usize = 100_000;
/// Batch repetitions (total comparisons = `CMP_BATCH * CMP_ROUNDS`).
const CMP_ROUNDS: usize = 40;

/// The big fleet's configuration: offered load ~4x the drain capacity of
/// the four bounded broker inboxes, so backpressure sheds deterministically.
fn big_fleet(seed: u64, shards: u32, threads: u32) -> FleetConfig {
    let mut plan = FaultPlan::new(seed);
    plan.kill_at(KILLED_BROKER, SimTime::from_secs(KILL_AT_SECS));
    FleetConfig {
        seed,
        brokers: FLEET_BROKERS,
        devices: FLEET_DEVICES,
        shards,
        threads,
        run_for: SimDuration::from_secs(FLEET_HORIZON_SECS),
        node: NodeConfig::default(),
        fault_edges: fault_edges(&plan, FLEET_BROKERS),
        ..FleetConfig::default()
    }
}

/// Interner micro-benchmark: the same match workload twice — once on
/// dense [`contory::vocab::Sym`] ids, once on the qualified vocabulary
/// strings the pre-interner broker compared. Returns
/// `(sym_secs, string_secs, sym_matches, string_matches)`.
fn intern_microbench(seed: u64) -> (f64, f64, u64, u64) {
    // Qualified names share a long prefix, as vocabulary paths do — the
    // realistic worst case for string equality, the irrelevant case for
    // a u16 compare.
    let names: Vec<String> = (0..64u64)
        .map(|i| format!("org.contory.vocab.context.ctx{i:02}"))
        .collect();
    let mut tab = Interner::new();
    let syms: Vec<_> = names.iter().map(|n| tab.intern(n)).collect();

    let mut s = seed;
    let pairs: Vec<(usize, usize)> = (0..CMP_BATCH)
        .map(|i| {
            s = mix64(s ^ i as u64);
            let a = (s % 64) as usize;
            let b = ((s >> 16) % 64) as usize;
            (a, b)
        })
        .collect();

    let sym_pairs: Vec<_> = pairs
        .iter()
        .filter_map(|&(a, b)| Some((*syms.get(a)?, *syms.get(b)?)))
        .collect();
    let (sym_matches, sym_wall) = criterion::time_once(|| {
        let mut hits = 0u64;
        for _ in 0..CMP_ROUNDS {
            for &(a, b) in &sym_pairs {
                if std::hint::black_box(a) == std::hint::black_box(b) {
                    hits += 1;
                }
            }
        }
        hits
    });

    let str_pairs: Vec<(&str, &str)> = pairs
        .iter()
        .filter_map(|&(a, b)| Some((names.get(a)?.as_str(), names.get(b)?.as_str())))
        .collect();
    let (str_matches, str_wall) = criterion::time_once(|| {
        let mut hits = 0u64;
        for _ in 0..CMP_ROUNDS {
            for &(a, b) in &str_pairs {
                if std::hint::black_box(a) == std::hint::black_box(b) {
                    hits += 1;
                }
            }
        }
        hits
    });

    (
        sym_wall.as_secs_f64().max(1e-9),
        str_wall.as_secs_f64().max(1e-9),
        sym_matches,
        str_matches,
    )
}

/// The federated-broker load scenario.
pub struct BrokerLoad;

impl Scenario for BrokerLoad {
    fn name(&self) -> &'static str {
        "broker_load"
    }
    fn title(&self) -> &'static str {
        "Federated broker fleet under load (10k devices, 4 brokers, mid-run kill)"
    }
    fn paper_ref(&self) -> &'static str {
        "beyond-paper scale"
    }
    fn seed(&self) -> u64 {
        800
    }

    fn run(&self, ctx: &mut RunCtx) {
        let cfg = big_fleet(self.seed(), shards(), ShardConfig::max_threads());
        let ((out, profile), wall) = criterion::time_once(|| run_fleet_profiled(&cfg));
        let horizon = FLEET_HORIZON_SECS as f64;
        ctx.tally_events(out.events, SimTime::from_secs(FLEET_HORIZON_SECS));
        obskit::count("broker_load_published", out.published);
        obskit::count("broker_load_delivered", out.delivered);
        obskit::count("broker_load_shed", out.shed);
        obskit::count("broker_load_forwarded", out.forwarded);
        obskit::count("broker_load_rehomes", out.rehomes);
        obskit::count("broker_load_unattributed", out.unattributed);
        obskit::count("broker_load_gossip_sent", out.gossip_sent);
        obskit::count("broker_load_gossip_heard", out.gossip_heard);
        obskit::count("broker_load_trace_spans", out.trace_spans);
        obskit::gauge("broker_load_queue_peak_max", profile.max_queue_peak() as f64);
        obskit::gauge("broker_load_merge_rounds", profile.rounds as f64);

        ctx.note(format!(
            "{FLEET_DEVICES} devices on {FLEET_BROKERS} brokers, horizon {horizon} sim-s, \
             {} shards x {} threads; {KILLED_BROKER} killed at t={KILL_AT_SECS}s \
             (override shards with `bench_all --shards N`; outputs are shard-invariant)",
            cfg.shards, cfg.threads,
        ));
        ctx.note(
            "offered load intentionally exceeds the bounded-inbox drain capacity: \
             the shed rate is part of the pinned contract, not an accident",
        );

        // Deterministic rows: pure functions of the seed, pinned
        // (near-)exactly. `abs_tol 0.4` keeps the band non-degenerate for
        // the schema test while failing on any integer drift.
        ctx.push(
            Measurement::scalar("devices", "device population", Unit::Count, FLEET_DEVICES as f64)
                .with_gate_rel_tol(0.0)
                .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "published",
                "publishes offered by devices",
                Unit::Count,
                out.published as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("seed-determined; shard/thread-invariant"),
        );
        ctx.push(
            Measurement::scalar(
                "delivered",
                "context deliveries to devices",
                Unit::Count,
                out.delivered as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "delivered_per_sim_sec",
                "delivery throughput per simulated second",
                Unit::PerSec,
                out.delivered as f64 / horizon,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.5),
        );
        ctx.push(
            Measurement::scalar(
                "shed_ppm",
                "admission sheds, ppm of device-offered publishes",
                Unit::Count,
                out.shed_ppm() as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("federation forwards are re-offered and shed too, so this can exceed 1e6"),
        );
        ctx.push(
            Measurement::scalar(
                "forwarded",
                "broker-to-broker federation forwards",
                Unit::Count,
                out.forwarded as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "unattributed",
                "publishes refused for missing attribution",
                Unit::Count,
                out.unattributed as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("packet-hygiene refusals (1-in-97 devices publish unattributed)"),
        );
        ctx.push(
            Measurement::scalar(
                "rehomes",
                "publisher re-homings after the broker kill",
                Unit::Count,
                out.rehomes as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "p50_fanout_ms",
                "median publish-to-delivery fan-out latency",
                Unit::Millis,
                out.p50_fanout_us as f64 / 1_000.0,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "p99_fanout_ms",
                "p99 publish-to-delivery fan-out latency",
                Unit::Millis,
                out.p99_fanout_us as f64 / 1_000.0,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("includes queue wait under backpressure"),
        );
        ctx.push(
            Measurement::scalar(
                "gossip_sent",
                "load digests gossiped to federation peers",
                Unit::Count,
                out.gossip_sent as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "report_digest32",
                "fleet report digest (low 32 bits)",
                Unit::Count,
                (out.digest & 0xffff_ffff) as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("byte-identity witness across shard/thread/table-shard counts"),
        );

        // Trace-measured broker delivery break-up: the sampled trace
        // stream of the big run, assembled into trees and decomposed
        // along every delivery critical path. Pure functions of the
        // seed — the trace log is partition-invariant — so the rows pin
        // near-exactly like the counters above.
        let breakup = Breakup::of(&assemble(&out.trace));
        ctx.push(
            Measurement::scalar(
                "trace_spans",
                "hop spans recorded by the sampled traces",
                Unit::Count,
                out.trace_spans as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("1-in-8 publish sampling; shard/thread-invariant"),
        );
        ctx.push(
            Measurement::scalar(
                "traced_deliveries",
                "end-to-end deliveries observed on sampled traces",
                Unit::Count,
                breakup.deliveries() as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "trace_e2e_p50_ms",
                "median traced publish-to-delivery latency",
                Unit::Millis,
                breakup.latency_quantile_us(0.50) as f64 / 1_000.0,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "trace_e2e_p99_ms",
                "p99 traced publish-to-delivery latency",
                Unit::Millis,
                breakup.latency_quantile_us(0.99) as f64 / 1_000.0,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.push(
            Measurement::scalar(
                "trace_dispatch_share_pm",
                "dispatch (queue wait) share of traced path time, per mille",
                Unit::Count,
                breakup.share_pm(Stage::Dispatch) as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("the backpressure term of the latency break-up"),
        );
        ctx.push(
            Measurement::scalar(
                "trace_deliver_share_pm",
                "deliver (fan-out link) share of traced path time, per mille",
                Unit::Count,
                breakup.share_pm(Stage::Deliver) as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4),
        );
        ctx.check_true(
            "traces_were_sampled",
            "the sampled trace stream observed at least one delivery",
            breakup.deliveries() > 0,
        );
        ctx.check_true(
            "trace_quantiles_ordered",
            "traced p99 latency >= traced p50 latency",
            breakup.latency_quantile_us(0.99) >= breakup.latency_quantile_us(0.50),
        );
        ctx.artifact("trace latency break-up (critical paths)", breakup.table());
        ctx.artifact("trace break-up JSON", breakup.to_json());
        ctx.artifact("engine profile (per-shard)", profile.table());
        ctx.check_true(
            "deliveries_happened",
            "the fleet delivered context end to end",
            out.delivered > 0,
        );
        ctx.check_true(
            "backpressure_engaged",
            "overload shed at least one publish",
            out.shed > 0,
        );
        ctx.check_true(
            "kill_caused_rehoming",
            "publishers re-homed off the killed broker",
            out.rehomes > 0,
        );
        ctx.check_true(
            "fanout_quantiles_ordered",
            "p99 fan-out >= p50 fan-out",
            out.p99_fanout_us >= out.p50_fanout_us,
        );

        // Wall-clock rows: host-dependent, order-of-magnitude bands.
        let wall_s = wall.as_secs_f64().max(1e-9);
        ctx.push(
            Measurement::scalar("wall_secs", "elapsed wall-clock time", Unit::Secs, wall_s)
                .with_gate_rel_tol(9.0)
                .with_gate_abs_tol(60.0)
                .with_note("host-dependent; wide band"),
        );
        ctx.push(
            Measurement::scalar(
                "events_per_wall_sec",
                "engine event throughput per wall second",
                Unit::PerSec,
                out.events as f64 / wall_s,
            )
            .with_gate_rel_tol(9.0)
            .with_gate_abs_tol(1e7)
            .with_note("host-dependent; wide band"),
        );

        // Interner micro-benchmark (core::vocab): dense u16 ids vs the
        // qualified strings the pre-interner broker compared.
        let (sym_s, str_s, sym_hits, str_hits) = intern_microbench(self.seed());
        let total_cmps = (CMP_BATCH * CMP_ROUNDS) as f64;
        ctx.push(
            Measurement::scalar(
                "sym_cmp_per_sec",
                "interned Sym (u16) comparisons per wall second",
                Unit::PerSec,
                total_cmps / sym_s,
            )
            .with_gate_rel_tol(9.0)
            .with_gate_abs_tol(1e10)
            .with_note("host-dependent; wide band"),
        );
        ctx.push(
            Measurement::scalar(
                "string_cmp_per_sec",
                "qualified-string comparisons per wall second",
                Unit::PerSec,
                total_cmps / str_s,
            )
            .with_gate_rel_tol(9.0)
            .with_gate_abs_tol(1e10)
            .with_note("host-dependent; wide band"),
        );
        ctx.push(
            Measurement::scalar(
                "intern_speedup",
                "Sym compare speedup over string compare",
                Unit::Ratio,
                str_s / sym_s,
            )
            .with_gate_rel_tol(9.0)
            .with_gate_abs_tol(50.0)
            .with_note("O(1) id compare vs length-dependent string equality"),
        );
        ctx.check_true(
            "intern_match_parity",
            "Sym matching and string matching agree on every pair",
            sym_hits == str_hits,
        );
        ctx.check_true(
            "sym_compare_not_slower",
            "interned compare is at least as fast as string compare",
            sym_s <= str_s,
        );

        // Tracing overhead: the same small fleet twice — every publish
        // sampled vs effectively none (1 in 2^60). Tracing is pure
        // observation, so the engine outputs must be byte-identical;
        // only the wall clock may move, and not by much.
        let mut traced_cfg = big_fleet(self.seed() ^ 0x7ace, 4, ShardConfig::max_threads());
        traced_cfg.devices = 1_000;
        traced_cfg.run_for = SimDuration::from_secs(10);
        traced_cfg.node.trace_sample_log2 = 0;
        let mut untraced_cfg = traced_cfg.clone();
        untraced_cfg.node.trace_sample_log2 = 60;
        let (traced, traced_wall) = criterion::time_once(|| run_fleet(&traced_cfg));
        let (untraced, untraced_wall) = criterion::time_once(|| run_fleet(&untraced_cfg));
        let traced_s = traced_wall.as_secs_f64().max(1e-9);
        let untraced_s = untraced_wall.as_secs_f64().max(1e-9);
        ctx.push(
            Measurement::scalar(
                "trace_overhead_ratio",
                "traced wall time over untraced wall time (full sampling)",
                Unit::Ratio,
                traced_s / untraced_s,
            )
            .with_gate_rel_tol(2.0)
            .with_gate_abs_tol(2.0)
            .with_note("host-dependent; band trips if tracing becomes a multiple of the run"),
        );
        ctx.push(
            Measurement::scalar(
                "trace_spans_per_kevent",
                "hop spans per 1000 engine events at full sampling",
                Unit::Count,
                (traced.trace_spans * 1_000 / traced.events.max(1)) as f64,
            )
            .with_gate_rel_tol(0.0)
            .with_gate_abs_tol(0.4)
            .with_note("the deterministic cost model of the tracing plane"),
        );
        ctx.check_true(
            "tracing_is_pure_observation",
            "full sampling vs none: identical engine digest and counters",
            traced.digest == untraced.digest
                && traced.delivered == untraced.delivered
                && traced.published == untraced.published
                && traced.shed == untraced.shed,
        );
        ctx.check_true(
            "sampling_bounds_span_volume",
            "full sampling records more spans than 1-in-2^60 sampling",
            traced.trace_spans > untraced.trace_spans,
        );
        ctx.tally_events(traced.events + untraced.events, SimTime::from_secs(2 * 10));

        // Partition-invariance cross-check on a small fleet, faults
        // included: 1 shard x 1 thread x 1 table shard must equal
        // 4 shards x max threads x 4 table shards byte-for-byte.
        let mut seq_cfg = big_fleet(self.seed() ^ 0xb20c, 1, 1);
        seq_cfg.devices = 300;
        seq_cfg.run_for = SimDuration::from_secs(10);
        seq_cfg.node = NodeConfig {
            table_shards: 1,
            ..NodeConfig::default()
        };
        let mut par_cfg = big_fleet(self.seed() ^ 0xb20c, 4, ShardConfig::max_threads());
        par_cfg.devices = 300;
        par_cfg.run_for = SimDuration::from_secs(10);
        par_cfg.node = NodeConfig {
            table_shards: 4,
            ..NodeConfig::default()
        };
        let seq = run_fleet(&seq_cfg);
        let par = run_fleet(&par_cfg);
        ctx.check_true(
            "partition_invariance_small_fleet",
            "300-device fleet: 1x1 engine, 1 table shard == 4x(max) engine, 4 table shards",
            seq.report() == par.report(),
        );
        ctx.tally_events(seq.events + par.events, SimTime::from_secs(2 * 10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fleet_is_partition_invariant_with_the_scenario_fault() {
        let mut a = big_fleet(5, 1, 1);
        a.devices = 120;
        a.run_for = SimDuration::from_secs(8);
        let mut b = big_fleet(5, 4, 2);
        b.devices = 120;
        b.run_for = SimDuration::from_secs(8);
        assert_eq!(run_fleet(&a).report(), run_fleet(&b).report());
    }

    #[test]
    fn microbench_workload_is_deterministic_and_consistent() {
        let (_, _, sym_a, str_a) = intern_microbench(800);
        let (_, _, sym_b, str_b) = intern_microbench(800);
        assert_eq!(sym_a, str_a, "sym and string matching disagree");
        assert_eq!(sym_a, sym_b, "workload not deterministic");
        assert_eq!(str_a, str_b);
        assert!(sym_a > 0, "degenerate workload: no matches at all");
    }
}
