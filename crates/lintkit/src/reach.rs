//! The reachability / taint engine: sim-visibility is **computed**, not
//! declared.
//!
//! PR 2's linter trusted a hand-maintained `SIM_VISIBLE` crate list — a
//! new crate or a re-exported helper silently escaped the determinism
//! gate. This module replaces the list with three taints propagated
//! over the symbol graph ([`crate::graph`]):
//!
//! - **sim** — code that can execute under simulated time and therefore
//!   feeds snapshots, transcripts and `FailoverReport`s. Entry points
//!   (all detected structurally, no crate names involved):
//!   - methods of `impl Sim`, `impl ShardSim` and `impl EventCtx`
//!     blocks (the event-engine itself);
//!   - every method of an `impl Scenario for …` block and every
//!     default method of a `trait Scenario` declaration (the §6
//!     harness drives these);
//!   - any function that *schedules* work (`schedule_at`,
//!     `schedule_in`, `schedule_repeating`, `schedule_self`,
//!     `schedule`): its body
//!     lexically contains the scheduled closure, so everything the
//!     testbed schedules is tainted through its scheduler.
//! - **shard** — code reachable from shard-parallel stepping: methods
//!   of `impl ShardSim` / `impl EventCtx`, any function referencing
//!   the `ShardSim` type (it builds or drives a partitioned engine and
//!   its handler closures run on worker threads), and callers of the
//!   sharded scheduling surface (`schedule_self`, `send_many`).
//! - **hot** — code reachable from the provisioning hot paths: the
//!   public functions of the `core` crate (package `contory`), i.e.
//!   the middleware surface a phone application calls. `panic-reachable`
//!   patrols this taint.
//!
//! Taints propagate along resolved call/reference edges, so a
//! violation three calls deep in a crate the old list never named is
//! caught, while genuinely unreachable code (e.g. an audited `unwrap`
//! behind a bin-only path) stops needing pragmas.

use crate::graph::Workspace;
use std::collections::BTreeSet;

/// Scheduling functions whose callers become sim entry points.
const SCHEDULE_NAMES: &[&str] = &[
    "schedule",
    "schedule_at",
    "schedule_in",
    "schedule_repeating",
    "schedule_self",
];

/// Sharded scheduling surface: callers join the shard taint roots.
const SHARD_SCHEDULE_NAMES: &[&str] = &["schedule_self", "send_many"];

/// Self types whose impl methods are simulation-engine entry points.
const ENGINE_TYPES: &[&str] = &["Sim", "ShardSim", "EventCtx"];

/// Self types whose impl methods run on shard worker threads.
const SHARD_TYPES: &[&str] = &["ShardSim", "EventCtx"];

/// The scenario-harness trait: impls are driven by the §6 suite.
const SCENARIO_TRAIT: &str = "Scenario";

/// Crate keys whose public functions seed the hot-path taint.
const HOT_CRATES: &[&str] = &["core"];

/// Per-function taint flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Taint {
    /// Reachable from a simulation entry point.
    pub sim: bool,
    /// Reachable from shard-parallel stepping.
    pub shard: bool,
    /// Reachable from a provisioning hot path.
    pub hot: bool,
}

/// Computed reachability over one [`Workspace`].
#[derive(Debug, Default)]
pub struct Reach {
    /// Taint flags, indexed like [`Workspace::fns`].
    pub taint: Vec<Taint>,
    /// Crates containing at least one sim-tainted function — the
    /// computed successor of the old `SIM_VISIBLE` list.
    pub sim_visible: BTreeSet<String>,
}

fn ref_names(ws: &Workspace, id: usize) -> impl Iterator<Item = &str> {
    ws.fns[id]
        .refs
        .iter()
        .filter(|r| r.called || r.method)
        .filter_map(|r| r.segments.last().map(String::as_str))
}

fn is_sim_root(ws: &Workspace, id: usize) -> bool {
    let f = &ws.fns[id];
    if f.self_type.as_deref().is_some_and(|t| ENGINE_TYPES.contains(&t)) {
        return true;
    }
    if f.trait_impl.as_deref() == Some(SCENARIO_TRAIT)
        || f.self_type.as_deref() == Some(SCENARIO_TRAIT)
    {
        return true;
    }
    ref_names(ws, id).any(|n| SCHEDULE_NAMES.contains(&n))
}

fn is_shard_root(ws: &Workspace, id: usize) -> bool {
    let f = &ws.fns[id];
    if f.self_type.as_deref().is_some_and(|t| SHARD_TYPES.contains(&t)) {
        return true;
    }
    if f.refs.iter().any(|r| r.segments.iter().any(|s| s == "ShardSim")) {
        return true;
    }
    ref_names(ws, id).any(|n| SHARD_SCHEDULE_NAMES.contains(&n))
}

fn is_hot_root(ws: &Workspace, id: usize) -> bool {
    let f = &ws.fns[id];
    f.is_pub && HOT_CRATES.contains(&f.krate.as_str())
}

/// Computes all three taints over the workspace graph.
pub fn compute(ws: &Workspace) -> Reach {
    let n = ws.fns.len();
    // Adjacency, resolved once.
    let adj: Vec<Vec<u32>> = (0..n).map(|id| ws.edges(id as u32)).collect();
    let bfs = |roots: Vec<usize>| -> Vec<bool> {
        let mut seen = vec![false; n];
        let mut stack = Vec::new();
        for r in roots {
            if !seen[r] {
                seen[r] = true;
                stack.push(r);
            }
        }
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                let w = w as usize;
                if !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        seen
    };
    let sim = bfs((0..n).filter(|&id| is_sim_root(ws, id)).collect());
    let shard = bfs((0..n).filter(|&id| is_shard_root(ws, id)).collect());
    let hot = bfs((0..n).filter(|&id| is_hot_root(ws, id)).collect());

    let mut taint = Vec::with_capacity(n);
    let mut sim_visible = BTreeSet::new();
    for id in 0..n {
        taint.push(Taint {
            sim: sim[id],
            shard: shard[id],
            hot: hot[id],
        });
        if sim[id] {
            sim_visible.insert(ws.fns[id].krate.clone());
        }
    }
    Reach { taint, sim_visible }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Workspace;
    use std::path::Path;

    /// The engine over the real repository: the computed sim-visible
    /// set must cover everything the retired hand list named. (The
    /// tier-1 superset assertion lives in `tests/workspace_clean.rs`;
    /// this is the fast in-crate version.)
    #[test]
    fn real_workspace_covers_retired_list() {
        let root = crate::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("workspace root");
        let ws = Workspace::analyze(&root).expect("analyze");
        let reach = compute(&ws);
        for krate in ["simkit", "radio", "smartmsg", "fuego", "core", "obskit", "benchkit"] {
            assert!(
                reach.sim_visible.contains(krate),
                "computed sim-visible set {:?} lost crate `{krate}` that the \
                 retired SIM_VISIBLE list named",
                reach.sim_visible
            );
        }
        // And the taint is not vacuously universal: the linter itself
        // must never be sim-visible (nothing schedulable calls it).
        assert!(
            !reach.sim_visible.contains("lintkit"),
            "lintkit cannot be sim-visible"
        );
    }
}
