#!/usr/bin/env sh
# Repository verification: tier-1 gate plus the failure-scenario work.
#
#   ./scripts/verify.sh
#
# 1. tier-1: release build + the whole workspace test suite
#    (unit + per-crate integration + cross-crate integration +
#    property tests);
# 2. the benchmark's own unit tests (e2ebench, a separate cargo
#    workspace built with --locked --offline), so a public-API change
#    the benchmark uses, or a dependency change that would rewrite
#    e2ebench/Cargo.lock, fails here too;
# 3. the lintkit gate: the offline determinism/robustness lint pass
#    must report zero findings above the checked-in ratchet baseline
#    (results/lint_baseline.json) and zero stale pragmas
#    (DESIGN.md §5c, §5g);
# 4. the failure-scenario suite in isolation — every scenario runs
#    across the three fixed seeds baked into the suite (11, 22, 33);
# 5. the shard gate: the partition-invariance suite — the scale_city
#    outcome on the partitioned engine must be byte-identical across
#    shard counts {1, 4, 16} and thread counts {1, max, 64}
#    (DESIGN.md §5f), and the engine's steady state must allocate per
#    round, never per event (crates/simkit/tests/engine_alloc.rs);
# 6. the Fig. 5 failover bench, which asserts the recovery SLO
#    (worst provisioning gap <= 45 s) from the FailoverReport;
# 7. the obs gate: the sm_breakup bench re-measures the paper's §6.1
#    latency break-up from obskit spans and asserts each phase share
#    (connection 4-5 %, serialization 26-33 %, thread switching
#    12-14 %, transfer 51-54 %) within ±3 pp (DESIGN.md §5d);
# 8. the broker gate: the brokerd subsystem in all three harnesses —
#    unit suite, loopback TCP smoke, fleet partition invariance, the
#    45 s kill-over SLO and the 1696 B envelope golden test
#    (scripts/broker.sh, DESIGN.md §5h);
# 9. the trace gate: the tracekit causal-tracing plane — unit suite,
#    assembly property tests, golden JSONL/break-up schemas, fleet
#    trace partition invariance and the STATS/TRACE ops surface
#    (scripts/trace.sh, DESIGN.md §5i);
# 10. the chaos gate: the chaoskit layer — lossy-link chaos streams,
#    the dedup window's exactly-once filter, forward retry/backoff,
#    crash-restart recovery with lease renewal + anti-entropy, the
#    chaos property tests and the hardened wire surface
#    (scripts/chaos.sh, DESIGN.md §5j);
# 11. the bench gate: bench_all re-runs the whole §6 suite (now
#    including scale_city at 100k devices, broker_load at 10k devices
#    over 4 brokers, and broker_chaos at 10k devices under lossy
#    links with a mid-run crash-restart), rewrites results/*.txt +
#    BENCH_contory.json, and diffs every pinned metric against the
#    results/baseline.json tolerance bands (DESIGN.md §5e).
set -eu
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (full workspace)"
cargo test -q

echo "==> benchmark unit tests (e2ebench, locked + offline)"
cargo test -q --locked --offline --manifest-path e2ebench/Cargo.toml

echo "==> lintkit gate (determinism & robustness lints, ratchet baseline)"
cargo run -q --release -p lintkit -- --workspace --baseline results/lint_baseline.json

echo "==> failure-scenario suite (seeds 11, 22, 33)"
cargo test -q --test failover_scenarios

echo "==> property tests (incl. fault/failover properties)"
cargo test -q --test proptests

echo "==> shard gate (partition/thread invariance, DESIGN.md 5f)"
cargo test -q --test shard_determinism
cargo test -q -p contory-simkit --test engine_alloc

echo "==> Fig. 5 failover bench (recovery SLO)"
cargo run -q --release -p contory-bench --bin fig5_failover

echo "==> obs gate (span-measured 6.1 break-up within +/-3pp)"
cargo run -q --release -p contory-bench --bin sm_breakup

echo "==> broker gate (brokerd in all three harnesses, DESIGN.md 5h)"
./scripts/broker.sh

echo "==> trace gate (tracekit causal tracing plane, DESIGN.md 5i)"
./scripts/trace.sh

echo "==> chaos gate (lossy links, crash-recovery, idempotence, DESIGN.md 5j)"
./scripts/chaos.sh

echo "==> bench gate (full 6 suite vs results/baseline.json bands)"
cargo run -q --release -p contory-bench --bin bench_all -- --check

echo "==> verify: OK"
