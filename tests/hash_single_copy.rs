//! Guards the single copy of the workspace's hash constants: the FNV-1a
//! offset basis and the SplitMix64 multiplier may appear in library
//! source only in `crates/simkit/src/hash.rs`, plus two named
//! exceptions that cannot use it:
//!
//! - `crates/propcheck/src/lib.rs`: simkit dev-depends on propcheck,
//!   so propcheck cannot depend on simkit;
//! - `crates/fuego/src/event.rs` (FNV offset only): the envelope's
//!   `fnv64-4` digest uses a different multiplier and is pinned by the
//!   1696 B envelope golden.
#![deny(warnings)]

use std::path::{Path, PathBuf};

const FNV_OFFSET: &str = "0xcbf29ce484222325";
const SPLITMIX_MUL: &str = "0xbf58476d1ce4e5b9";

const ALLOWED: &[(&str, &[&str])] = &[
    ("crates/simkit/src/hash.rs", &[FNV_OFFSET, SPLITMIX_MUL]),
    ("crates/propcheck/src/lib.rs", &[FNV_OFFSET, SPLITMIX_MUL]),
    ("crates/fuego/src/event.rs", &[FNV_OFFSET]),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {} ({e})", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn hash_constants_live_only_in_simkit_hash() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    let mut files = Vec::new();
    for src in &crates {
        rust_files(src, &mut files);
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());

    let mut stray = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root).expect("under root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        // Normalise digit grouping and case: `0xBF58_476D_…` → `0xbf58476d…`.
        let text = std::fs::read_to_string(file)
            .expect("readable source")
            .to_ascii_lowercase()
            .replace('_', "");
        let allowed = ALLOWED
            .iter()
            .find(|(path, _)| *path == rel)
            .map_or(&[][..], |(_, consts)| *consts);
        for needle in [FNV_OFFSET, SPLITMIX_MUL] {
            if text.contains(needle) && !allowed.contains(&needle) {
                stray.push(format!("{rel}: {needle}"));
            }
        }
    }
    assert!(
        stray.is_empty(),
        "hash constants copied outside simkit::hash (use simkit::hash::{{fnv1a, mix64}}):\n{}",
        stray.join("\n")
    );
}
