//! Partition-invariance regression suite: the tentpole contract of the
//! sharded engine, asserted end-to-end.
//!
//! Same seed ⇒ byte-identical outputs *regardless of shard or thread
//! count*: the `scale_city` gossip model on the partitioned [`ShardSim`]
//! engine across shard counts {1, 4, 16} × worker threads {1, max}.
//! Shards are physically separate queues stepped by real threads and
//! merged at round boundaries, and the outcome (event totals,
//! deliveries, folded state checksum) must still be bit-identical.
//!
//! Three seeds, so an ordering leak that happens to cancel for one
//! jitter stream still shows up.
#![deny(warnings)]

use contory_bench::scenarios::scale_city::{run_city, CityConfig};
use simkit::{ShardConfig, SimDuration};

const SEEDS: [u64; 3] = [501, 11, 42];

/// The partitioned engine: a small gossip city produces bit-identical
/// outcomes across the full shard × thread matrix.
#[test]
fn city_outcome_is_partition_and_thread_invariant() {
    let max = ShardConfig::max_threads();
    for seed in SEEDS {
        let base = CityConfig {
            devices: 400,
            shards: 1,
            threads: 1,
            seed,
            horizon: SimDuration::from_secs(12),
        };
        let reference = run_city(base);
        assert!(reference.delivered > 0, "seed {seed}: no gossip delivered");
        assert_eq!(reference.dead_letters, 0, "seed {seed}: dead letters");
        for shards in [4u32, 16] {
            for threads in [1u32, max] {
                let out = run_city(CityConfig { shards, threads, ..base });
                assert_eq!(
                    out, reference,
                    "seed {seed}: {shards} shards x {threads} threads diverged from 1x1"
                );
            }
        }
    }
}

/// Worker count beyond the physical shard count (and beyond the host's
/// cores) still changes nothing — the thread axis is pure mechanism.
#[test]
fn oversubscribed_threads_change_nothing() {
    let base = CityConfig {
        devices: 128,
        shards: 4,
        threads: 1,
        seed: 7,
        horizon: SimDuration::from_secs(8),
    };
    let reference = run_city(base);
    let oversub = run_city(CityConfig { threads: 64, ..base });
    assert_eq!(oversub, reference);
}
