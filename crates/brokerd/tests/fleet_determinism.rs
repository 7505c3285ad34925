//! Partition-invariance of the broker fleet: the same scenario must
//! produce a byte-identical [`FleetOutcome::report`] across engine
//! shard counts, worker-thread counts and broker table shard counts —
//! including under scripted broker faults.

use brokerd::{fault_edges, run_fleet, FleetConfig, NodeConfig};
use simkit::faults::FaultPlan;
use simkit::{SimDuration, SimTime};

fn cfg(seed: u64, shards: u32, threads: u32, table_shards: usize) -> FleetConfig {
    FleetConfig {
        seed,
        brokers: 4,
        devices: 400,
        shards,
        threads,
        run_for: SimDuration::from_secs(30),
        node: NodeConfig {
            table_shards,
            ..NodeConfig::default()
        },
        ..FleetConfig::default()
    }
}

#[test]
fn report_is_byte_identical_across_the_partition_matrix() {
    for seed in [1u64, 17] {
        let reference = run_fleet(&cfg(seed, 1, 1, 1)).report();
        for (shards, threads) in [(1u32, 2u32), (4, 1), (4, 4)] {
            for table_shards in [1usize, 4] {
                let got = run_fleet(&cfg(seed, shards, threads, table_shards)).report();
                assert_eq!(
                    got, reference,
                    "diverged: seed={seed} shards={shards} threads={threads} \
                     table_shards={table_shards}"
                );
            }
        }
    }
}

#[test]
fn trace_export_is_byte_identical_across_partitions() {
    // Full sampling so the trace plane carries real traffic; the
    // canonical JSONL export (not just its digest) must be the same
    // bytes for every partition of the engine. Each run also sits under
    // a fresh obskit collector: the fleet's record is its own per-actor
    // data, so whatever an ambient collector sees must not depend on
    // which thread ran which actor either.
    let traced = |shards, threads| {
        let mut c = cfg(29, shards, threads, 4);
        c.node.trace_sample_log2 = 0;
        let obs = obskit::Obs::new();
        let outcome = {
            let _guard = obskit::install(&obs);
            run_fleet(&c)
        };
        (outcome, obs.metrics_snapshot(), obs.spans_jsonl())
    };
    let (reference, reference_metrics, reference_spans) = traced(1, 1);
    assert!(reference.trace_spans > 0, "full sampling recorded nothing");
    let reference_export = reference.trace.export_jsonl();
    for (shards, threads) in [(2u32, 2u32), (4, 4)] {
        let (got, metrics, spans) = traced(shards, threads);
        assert_eq!(
            got.trace.export_jsonl(),
            reference_export,
            "trace export diverged at shards={shards} threads={threads}"
        );
        assert_eq!(got.trace_digest, reference.trace_digest);
        assert!(
            metrics == reference_metrics && spans == reference_spans,
            "ambient obskit record diverged at shards={shards} threads={threads}"
        );
    }
}

#[test]
fn faulted_runs_are_equally_partition_invariant() {
    let mut plan = FaultPlan::new(23);
    plan.kill_at("broker:1", SimTime::from_secs(10));
    plan.down_between("broker:3", SimTime::from_secs(5), SimTime::from_secs(15));
    let edges = fault_edges(&plan, 4);

    let mut base = cfg(23, 1, 1, 4);
    base.fault_edges = edges.clone();
    let reference = run_fleet(&base).report();
    assert!(reference.contains("rehomes="), "report shape changed");

    for (shards, threads) in [(2u32, 2u32), (4, 4)] {
        let mut c = cfg(23, shards, threads, 4);
        c.fault_edges = edges.clone();
        assert_eq!(
            run_fleet(&c).report(),
            reference,
            "faulted run diverged at shards={shards} threads={threads}"
        );
    }

    // And the faults actually bit: re-homing happened.
    let out = {
        let mut c = cfg(23, 1, 1, 4);
        c.fault_edges = edges;
        run_fleet(&c)
    };
    assert!(out.rehomes > 0, "kill produced no re-homing");
}
