//! Determinism regression suite: the invariant the lintkit gate exists
//! to protect, asserted end-to-end.
//!
//! Two runs of the Fig. 5 failover scenario with the same seed must be
//! *byte-identical*: same serialized [`FailoverReport`], same mechanism
//! timeline, same delivered-item trace, same event count. A single
//! `Instant::now()`, ambient `HashMap` iteration or OS-seeded hasher
//! anywhere in the sim-visible stack shows up here as a diff.
//!
//! The transcript machinery lives in `tests/common/mod.rs`; the
//! partition half of the invariant (same bytes for every shard and
//! thread count of the partitioned engine) is
//! `tests/shard_determinism.rs`.
#![deny(warnings)]

mod common;

use common::run_fig5_transcript;

/// Same seed ⇒ byte-identical transcript, including the serialized
/// `FailoverReport` — the PR's headline determinism regression test.
#[test]
fn fig5_scenario_is_seed_reproducible() {
    for seed in [501u64, 11] {
        let a = run_fig5_transcript(seed);
        let b = run_fig5_transcript(seed);
        assert!(
            a == b,
            "seed {seed}: two runs diverged\n--- first ---\n{a}\n--- second ---\n{b}"
        );
        // The transcript must actually contain failover activity, or the
        // comparison proves nothing.
        assert!(
            a.contains("adHocNetwork") || a.contains("AdHoc"),
            "seed {seed}: scenario never failed over:\n{a}"
        );
        assert!(a.contains("failures"), "report section missing");
    }
}

/// Different seeds still agree on the *shape* of the run (failover
/// happened, query recovered) while being allowed to differ in timing —
/// guards against the scenario accidentally becoming seed-independent
/// (which would mask real nondeterminism).
#[test]
fn fig5_scenario_varies_across_seeds_but_stays_in_spec() {
    let a = run_fig5_transcript(501);
    let b = run_fig5_transcript(11);
    assert_ne!(
        a, b,
        "seeds 501 and 11 produced identical transcripts — jitter streams look dead"
    );
}
