//! Cross-crate resolution suite: analyses the mini-workspace under
//! `tests/fixtures/tree/` (four crates with a manifest rename, a
//! `pub use` re-export, and a package-name/directory-key split) and
//! asserts the symbol graph and taint engine track calls across crate
//! boundaries — the exact cases the retired hand-maintained
//! `SIM_VISIBLE` list could never see.

use lintkit::graph::Workspace;
use lintkit::reach::{self, Taint};
use std::path::{Path, PathBuf};

fn tree_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree")
}

fn analyzed() -> (Workspace, reach::Reach) {
    let ws = Workspace::analyze(&tree_root()).expect("analyze fixture tree");
    let reach = reach::compute(&ws);
    (ws, reach)
}

fn taint_of(ws: &Workspace, reach: &reach::Reach, krate: &str, name: &str) -> Taint {
    let mut found = None;
    for (id, f) in ws.fns.iter().enumerate() {
        if f.krate == krate && f.name == name {
            assert!(
                found.is_none(),
                "fn `{krate}::{name}` is ambiguous in the fixture tree"
            );
            found = Some(reach.taint[id]);
        }
    }
    found.unwrap_or_else(|| panic!("fn `{krate}::{name}` missing from the graph"))
}

#[test]
fn manifest_rename_resolves_to_crate_dir() {
    let (ws, _) = analyzed();
    let app = ws.crates.get("app").expect("crate keyed by dir name `app`");
    assert_eq!(app.package, "app-core", "package name survives next to the dir key");
    assert_eq!(
        app.code_names.get("enginex").map(String::as_str),
        Some("engine"),
        "workspace-dependency rename `enginex` must map to the `engine` crate dir"
    );
    let core = ws.crates.get("core").expect("crate keyed by dir name `core`");
    assert_eq!(
        core.code_names.get("app_core").map(String::as_str),
        Some("app"),
        "dashed package `app-core` must be importable as `app_core`"
    );
}

#[test]
fn cones_follow_manifest_edges() {
    let (ws, _) = analyzed();
    let down = ws.cone_down("app").expect("down cone for app");
    assert!(down.contains("engine"), "app depends on engine: {down:?}");
    assert!(!down.contains("core"), "down cone must not include dependents");
    let up = ws.cone_up("engine").expect("up cone for engine");
    assert!(up.contains("app"), "engine's dependents include app: {up:?}");
    assert!(up.contains("core"), "…transitively including core: {up:?}");
    let util_up = ws.cone_up("util").expect("up cone for util");
    assert_eq!(
        util_up.iter().collect::<Vec<_>>(),
        ["util"],
        "nothing depends on util"
    );
}

#[test]
fn sim_taint_crosses_the_renamed_crate_edge() {
    let (ws, reach) = analyzed();
    // `drive` schedules, so it is a sim root; `merge_events` is only
    // ever called from `drive` through the `enginex` alias.
    assert!(taint_of(&ws, &reach, "app", "drive").sim);
    let merge = taint_of(&ws, &reach, "engine", "merge_events");
    assert!(merge.sim, "sim taint must flow app::drive → enginex::merge::merge_events");
    assert!(!merge.hot, "core never reaches merge_events");
}

#[test]
fn taint_flows_through_pub_use_reexport() {
    let (ws, reach) = analyzed();
    // `core::provide` (hot root) calls `app_core::plan_route`, which the
    // app crate only exposes via `pub use inner::plan_route`.
    let plan = taint_of(&ws, &reach, "app", "plan_route");
    assert!(plan.hot, "hot taint must resolve through the re-export");
    assert!(plan.sim, "drive also calls plan_route under sim time");
    let score = taint_of(&ws, &reach, "app", "score");
    assert!(score.hot && score.sim, "private callee inherits both taints");
    assert!(taint_of(&ws, &reach, "core", "validate").hot);
}

#[test]
fn shard_taint_stays_on_the_shard_engine() {
    let (ws, reach) = analyzed();
    assert!(taint_of(&ws, &reach, "engine", "step_shard").shard);
    assert!(!taint_of(&ws, &reach, "app", "drive").shard);
}

#[test]
fn unreachable_leaf_is_untainted() {
    let (ws, reach) = analyzed();
    assert_eq!(taint_of(&ws, &reach, "util", "idle"), Taint::default());
    assert!(
        !reach.sim_visible.contains("util"),
        "sim-visible set {:?} must exclude the unreachable leaf",
        reach.sim_visible
    );
    assert!(reach.sim_visible.contains("engine"));
    assert!(reach.sim_visible.contains("app"));
}

#[test]
fn up_cone_methods_are_trait_impls_only() {
    let (ws, reach) = analyzed();
    // The engine can reach a dependent's code only through a trait it
    // defines: `Recorder::on_event` (an `impl Hook`) inherits the sim
    // taint of `Sim::notify`...
    assert!(taint_of(&ws, &reach, "app", "on_event").sim);
    // ...while the inherent `Planner::dispatch` is not callable from
    // the engine, whatever its name.
    assert!(taint_of(&ws, &reach, "engine", "dispatch").sim);
    assert!(!taint_of(&ws, &reach, "app", "dispatch").sim);
}
