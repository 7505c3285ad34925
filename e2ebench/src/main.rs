//! The repository benchmark: four workloads driven from outside the
//! program through its public entry points.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <fleet_chaos|city_gossip|tcp_rpc|tcp_stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`. Lines before it are the
//! human-readable report. See `e2ebench/README.md`.

mod clock;
mod ledger;
mod probes;
mod sim;
mod spans;
mod stats;
mod tcp;

use spans::Tracer;
use stats::Summary;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// What one workload measured.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Every set-up time of the run, seconds (the median is reported).
    pub setup_s: Vec<f64>,
    /// Latency of the workload's unit of work, µs.
    pub latency_us: Summary,
    /// Work completed per second.
    pub throughput_per_s: f64,
    /// Peak resident memory, MB, when the workload takes it before the
    /// end of the run (`None`: at the end).
    pub peak_rss_mb: Option<f64>,
    /// Per-layer rows this workload produces.
    pub layers: Vec<(&'static str, f64)>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

/// The end-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by every traced run; a layer the
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("shard.rounds", "count"),
    ("shard.events_per_round", "count"),
    ("shard.barrier_us_per_round", "us"),
    ("shard.ns_per_event_seq", "ns"),
    ("shard.stall_mean", "count"),
    ("shard.queue_peak", "count"),
    ("shard.seq_run_s", "s"),
    ("shard.parallel_ratio", "ratio"),
    ("fleet.published", "count"),
    ("fleet.delivered", "count"),
    ("federation.retries", "count"),
    ("federation.retry_exhausted", "count"),
    ("federation.useful_ratio", "ratio"),
    ("dedup.suppressed", "count"),
    ("tracekit.spans_per_kevent", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("node.publish_ns", "ns"),
    ("node.drain_ns_per_delivery", "ns"),
    ("table.on_arrival_ns", "ns"),
    ("table.sweep_ns", "ns"),
    ("table.periodic_due_ns", "ns"),
    ("dedup.observe_ns", "ns"),
    ("net.rpc_codec_share", "ratio"),
    ("net.backlog_max", "count"),
    ("net.shed", "count"),
    ("gen.late_p99_us", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// A workload: its name, and the load threads and connections it uses
/// (the simulator's threads are its `nproc` × `nproc` layout).
const WORKLOADS: [(&str, u32, u32); 4] = [
    ("fleet_chaos", 0, 0),
    ("city_gossip", 0, 0),
    ("tcp_rpc", 1, 1),
    ("tcp_stream", 2, 1),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .map(|w| w.0)
        .find(|w| w == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("--{k}: {e}"));
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Identifies the code measured: the git commit when the checkout is a
/// repository, and always an FNV-64 digest of the crates' sources.
fn code_stamp() -> String {
    let mut files = Vec::new();
    let mut stack = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if !p.ends_with("target") {
                    stack.push(p);
                }
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or("none".to_string(), |c| c.trim().to_string());
    format!("commit {commit}, source fnv64 {h:016x}")
}

fn run(args: &Args, nproc: u32, tr: &mut Tracer) -> Result<Outcome, String> {
    let (seed, secs) = (args.seed, args.seconds);
    match args.workload {
        "fleet_chaos" => Ok(sim::fleet_chaos(seed, secs, nproc, tr)),
        "city_gossip" => Ok(sim::city_gossip(seed, secs, nproc, tr)),
        "tcp_rpc" => tcp::tcp_rpc(seed, secs, tr),
        _ => tcp::tcp_stream(seed, secs, tr),
    }
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    ));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let (_, threads, conns) = WORKLOADS
        .iter()
        .copied()
        .find(|w| w.0 == args.workload)
        .unwrap_or(("", 0, 0));
    if threads > nproc || conns > nproc {
        eprintln!("e2ebench: {} needs {threads} load threads and {conns} connections, host has nproc={nproc}; refusing", args.workload);
        return ExitCode::from(2);
    }
    let mut tr = Tracer::new(args.trace, args.workload);
    let outcome = match run(&args, nproc, &mut tr) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let (mut attempted, mut failed) = (outcome.attempted, outcome.failed);
    let mut layers: BTreeMap<&str, f64> = outcome.layers.iter().copied().collect();
    if args.trace {
        let probes = probes::run(args.seed, &mut tr);
        layers.extend(probes.layers);
        attempted += probes.attempted;
        failed += probes.failed;
        let path = format!(
            "e2ebench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        );
        let written = std::fs::create_dir_all("e2ebench/out")
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tr.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        if let Err(e) = written {
            eprintln!("e2ebench: writing {path}: {e}");
            return ExitCode::from(1);
        }
        println!("spans: {} written to {path}", tr.spans().len());
    }
    let rss = outcome.peak_rss_mb.unwrap_or_else(peak_rss_mb);

    println!(
        "e2ebench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host nproc {nproc}, simulators timed 1x1 with a traced {nproc} shards x {nproc} threads horizon, {}",
        code_stamp()
    );
    for n in &outcome.notes {
        println!("  {n}");
    }
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    let setup = &outcome.setup_s;
    println!(
        "  setup median {:.6} s of {} (min {:.6}, max {:.6})",
        stats::median(setup),
        setup.len(),
        setup.iter().copied().fold(f64::INFINITY, f64::min),
        setup.iter().copied().fold(0.0, f64::max)
    );
    println!("  latency {}", outcome.latency_us.describe("us"));
    // Not a bounded metric: see e2ebench/README.md, "Steadiness".
    println!("  throughput_per_s {}", outcome.throughput_per_s);
    println!("  failed_ratio {failed_ratio} ({failed} of {attempted})");

    let mut metrics = String::from("{");
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = layers.get(name).copied().unwrap_or(0.0);
            println!("  {name} = {v} {unit}");
            json_metric(&mut metrics, name, v, unit);
        }
    } else {
        let values = [stats::median(&outcome.setup_s), outcome.latency_us.p50, rss];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            println!("  {name} = {v} {unit}");
            json_metric(&mut metrics, name, v, unit);
        }
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` name the same metrics
    /// with the same units, in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<(String, String)> {
            let body = json.split(&format!("\"{section}\"")).nth(1).unwrap();
            let body = &body[..body.find(']').unwrap()];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |k: &str| {
                        obj.split(&format!("\"{k}\": \""))
                            .nth(1)
                            .unwrap()
                            .split('"')
                            .next()
                            .unwrap()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads = names_of(json);
        assert_eq!(
            workloads,
            WORKLOADS
                .iter()
                .map(|w| w.0.to_string())
                .collect::<Vec<_>>()
        );
    }

    fn names_of(json: &str) -> Vec<String> {
        let body = json.split("\"workloads\"").nth(1).unwrap();
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap().to_string())
            .collect()
    }
}
