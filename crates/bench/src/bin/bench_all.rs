//! Runs the whole §6 suite through benchkit and exports it:
//!
//! * `results/<scenario>.txt` — the human tables (one per scenario),
//! * `BENCH_contory.json` — the versioned machine-readable report at the
//!   repo root (schema `contory-bench/1`),
//!
//! both rendered from the same structured data, so they cannot drift.
//!
//! Flags:
//!
//! * `--check` — additionally diff the run against the checked-in
//!   `results/baseline.json` tolerance bands and exit non-zero on any
//!   out-of-band regression (the perf gate `scripts/verify.sh` runs);
//! * `--write-baseline` — re-pin `results/baseline.json` from this run
//!   (do this deliberately, and review the diff);
//! * `--out DIR` — the tree to read and write `results/` and
//!   `BENCH_contory.json` in (default: the current directory, which
//!   `scripts/bench.sh` and `scripts/verify.sh` set to the repo root).
//!   Never the build's source tree: a binary copied elsewhere must not
//!   overwrite the checkout it was built from.
//!
//! Everything is seed-driven and sim-clock-only: two runs write
//! byte-identical files.

use benchkit::Baseline;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let mut root = PathBuf::from(".");
    // `--shards N`: partition count for the scale_city, broker_load and
    // broker_chaos runs. Outputs are shard-invariant by the engine's
    // contract; only wall-clock moves.
    let mut rest = args
        .iter()
        .filter(|a| *a != "--check" && *a != "--write-baseline");
    while let Some(a) = rest.next() {
        if a == "--shards" {
            let n = rest
                .next()
                .and_then(|v| v.parse::<u32>().ok())
                .filter(|n| *n >= 1)
                .unwrap_or_else(|| {
                    eprintln!("--shards needs a positive integer");
                    std::process::exit(2);
                });
            contory_bench::scenarios::scale_city::set_shards(n);
            contory_bench::scenarios::broker_load::set_shards(n);
            contory_bench::scenarios::broker_chaos::set_shards(n);
        } else if a == "--out" {
            root = rest.next().map(PathBuf::from).unwrap_or_else(|| {
                eprintln!("--out needs a directory");
                std::process::exit(2);
            });
        } else {
            eprintln!(
                "unknown flag '{a}' (known: --check, --write-baseline, --shards N, --out DIR)"
            );
            std::process::exit(2);
        }
    }

    let results_dir = root.join("results");
    std::fs::create_dir_all(&results_dir).expect("results/ creatable");

    let scenarios = contory_bench::scenarios::all();
    let mut report = benchkit::Report::new();
    for s in &scenarios {
        println!("==> running {} ({})", s.name(), s.paper_ref());
        let sr = benchkit::run_scenario(s.as_ref());
        let txt_path = results_dir.join(format!("{}.txt", sr.name));
        std::fs::write(&txt_path, sr.render_text()).expect("results txt writable");
        println!(
            "    {} measurements, {} checks, {} spans -> {}",
            sr.measurements.len(),
            sr.checks.len(),
            sr.obs_span_count,
            txt_path.display()
        );
        report.scenarios.push(sr);
    }

    let json_path = root.join("BENCH_contory.json");
    std::fs::write(&json_path, report.to_json_string()).expect("bench json writable");
    println!("\nwrote {}", json_path.display());

    // In-scenario tolerance bands (the obs gate half of the mechanism).
    let failed = report.failed_checks();
    if !failed.is_empty() {
        eprintln!("\nFAILED in-scenario checks:");
        for f in &failed {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all in-scenario tolerance-band checks passed");

    let baseline_path = results_dir.join("baseline.json");
    if write_baseline {
        let base = Baseline::from_report(&report);
        std::fs::write(&baseline_path, base.to_json_string()).expect("baseline writable");
        println!("re-pinned {} ({} metrics)", baseline_path.display(), base.metrics.len());
    }

    if check {
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!(
                "cannot read {} ({e}); run with --write-baseline first",
                baseline_path.display()
            );
            std::process::exit(2);
        });
        let base = Baseline::parse(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {}: {e}", baseline_path.display());
            std::process::exit(2);
        });
        let violations = base.check(&report);
        if violations.is_empty() {
            println!(
                "bench gate: {} pinned metrics within tolerance bands",
                base.metrics.len()
            );
        } else {
            eprintln!("\nbench gate FAILED ({} violations):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}
