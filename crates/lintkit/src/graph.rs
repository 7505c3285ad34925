//! The workspace symbol graph: crate → module → item, with call and
//! reference edges.
//!
//! Built from the item-level parse ([`crate::parser`]) of every
//! *library* file in the workspace plus a hand-rolled scan of the
//! Cargo manifests (no `toml` dependency — the linter takes nothing
//! from crates.io). The graph gives the reachability engine
//! ([`crate::reach`]) three things:
//!
//! - a node per `fn` item, keyed by crate / inline-module path / name /
//!   `impl` self type;
//! - per-crate dependency **cones** from the Cargo manifests: the
//!   *down* cone (the crate plus its transitive dependencies) and the
//!   *up* cone (the crate plus its transitive dependents); and
//! - resolved edges: each body reference is mapped to candidate
//!   definition nodes through the file's `use` declarations (including
//!   `pub use` re-exports and `as` renames), `crate`/`self`/`super`/
//!   `Self` prefixes, and glob imports.
//!
//! Resolution is deliberately an **over-approximation** with two
//! properties chosen for taint polarity (missing an edge hides a real
//! violation; a spurious edge at worst widens the patrolled set):
//!
//! - Within a crate, paths match by *suffix* (type name + item name),
//!   not by exact module chain — which is also what makes re-exported
//!   items resolve without modelling every `pub use` hop.
//! - Method calls (`x.step()`) resolve to every method of that name in
//!   the caller's **bidirectional cone** (down ∪ up). The up-side is
//!   what models dyn-trait injection: `core` calls `.provide()` on a
//!   trait object whose impl lives in `testbed` (a crate that *depends
//!   on* core), so candidates must include dependents. Only their
//!   trait-impl methods, though: a dependency cannot name a
//!   dependent's types, so it can never call their inherent methods.

use crate::lexer::{self, Lexed, TokKind};
use crate::parser::{self, FnItem, ParsedFile, Ref, UseDecl};
use crate::{classify, FileCtx, FileKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One workspace crate (or the root umbrella package).
#[derive(Clone, Debug, Default)]
pub struct CrateInfo {
    /// Canonical key: directory name under `crates/`, or the package
    /// name for the workspace-root package.
    pub key: String,
    /// Cargo package name.
    pub package: String,
    /// Keys of direct dependencies (dev-dependencies excluded: library
    /// code cannot call into them).
    pub deps: BTreeSet<String>,
    /// In-code extern crate name (`-` → `_`, honouring manifest
    /// renames) → dependency key. E.g. `contory` → `core`,
    /// `proptest` → `propcheck`.
    pub code_names: BTreeMap<String, String>,
}

/// One scanned workspace file.
#[derive(Debug)]
pub struct FileInfo {
    /// Absolute path.
    pub path: PathBuf,
    /// Path relative to the workspace root.
    pub rel: PathBuf,
    /// Crate key (root-package files map to the root key).
    pub krate: String,
    /// File-level module path within the crate (`src/query/parser.rs`
    /// → `["query", "parser"]`).
    pub module: Vec<String>,
    /// Lint classification (crate short name, target kind, file name).
    pub ctx: FileCtx,
    /// Lexed token stream (cached — linting reuses it).
    pub lexed: Lexed,
    /// Item-level parse; `None` for non-library targets, which carry
    /// no graph nodes.
    pub parsed: Option<ParsedFile>,
    /// Ids of the `fn` nodes defined in this file.
    pub fn_ids: Vec<u32>,
}

/// One `fn` node of the symbol graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`Workspace::files`].
    pub file: u32,
    /// Crate key.
    pub krate: String,
    /// Full inline-module path (file module ++ inline `mod`s).
    pub module: Vec<String>,
    /// Function name.
    pub name: String,
    /// `impl`/`trait` self type, if any.
    pub self_type: Option<String>,
    /// Trait name for `impl Tr for Ty` methods.
    pub trait_impl: Option<String>,
    /// Visible outside its module.
    pub is_pub: bool,
    /// Token index of the `fn` keyword (in the file's token stream).
    pub sig_start: usize,
    /// Body token span `[open, close]`, if present.
    pub body: Option<(usize, usize)>,
    /// Extracted body references.
    pub refs: Vec<Ref>,
    /// Signature or body mentions `f32`/`f64` — evidence used by the
    /// `float-order` pass.
    pub float_fn: bool,
}

/// The analysed workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Crates by key.
    pub crates: BTreeMap<String, CrateInfo>,
    /// Scanned files (sorted by path).
    pub files: Vec<FileInfo>,
    /// All `fn` nodes.
    pub fns: Vec<FnNode>,
    name_index: BTreeMap<String, Vec<u32>>,
    typed_index: BTreeMap<(String, String), Vec<u32>>,
    cone_down: BTreeMap<String, BTreeSet<String>>,
    cone_up: BTreeMap<String, BTreeSet<String>>,
}

// ---------------------------------------------------------------------------
// Cargo manifest scanning (hand-rolled, line-oriented)
// ---------------------------------------------------------------------------

/// Extracts `key = "value"` from a TOML-ish line, tolerating inline
/// tables. Returns the first quoted string after `field =` or
/// `field = {` … `path = "…"`.
fn quoted_after<'s>(line: &'s str, field: &str) -> Option<&'s str> {
    let idx = line.find(field)?;
    let rest = &line[idx + field.len()..];
    let start = rest.find('"')? + 1;
    let end = rest[start..].find('"')? + start;
    Some(&rest[start..end])
}

/// One dependency line: `alias = { workspace = true }`,
/// `alias = { path = "../x" }`, `alias.workspace = true`.
fn dep_line(line: &str) -> Option<(String, Option<String>)> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('[') {
        return None;
    }
    let eq = trimmed.find('=')?;
    let mut alias = trimmed[..eq].trim().to_string();
    if let Some(stripped) = alias.strip_suffix(".workspace") {
        alias = stripped.trim().to_string();
    }
    if alias.is_empty() || alias.contains(' ') || alias.contains('"') {
        return None;
    }
    let path = quoted_after(trimmed, "path").map(|p| {
        Path::new(p)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| p.to_string())
    });
    Some((alias, path))
}

/// Parses the root manifest's `[workspace.dependencies]` alias → crate
/// directory map.
fn workspace_dep_map(root_manifest: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let mut in_section = false;
    for line in root_manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_section = t == "[workspace.dependencies]";
            continue;
        }
        if in_section {
            if let Some((alias, Some(dir))) = dep_line(t) {
                map.insert(alias, dir);
            }
        }
    }
    map
}

/// Parses one member manifest: package name plus direct dependency
/// aliases (with local path dirs where present).
fn member_manifest(src: &str) -> (String, Vec<(String, Option<String>)>) {
    let mut package = String::new();
    let mut deps = Vec::new();
    let mut section = String::new();
    for line in src.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            section = t.to_string();
            continue;
        }
        match section.as_str() {
            "[package]" => {
                if package.is_empty() && t.starts_with("name") {
                    if let Some(v) = quoted_after(t, "name") {
                        package = v.to_string();
                    }
                }
            }
            "[dependencies]" => {
                if let Some(d) = dep_line(t) {
                    deps.push(d);
                }
            }
            _ => {}
        }
    }
    (package, deps)
}

// ---------------------------------------------------------------------------
// Workspace construction
// ---------------------------------------------------------------------------

fn read(path: &Path) -> std::io::Result<String> {
    std::fs::read_to_string(path)
}

/// File-level module path: `src/lib.rs` → `[]`, `src/a.rs` → `[a]`,
/// `src/a/mod.rs` → `[a]`, `src/a/b.rs` → `[a, b]`.
fn file_module(rel_within_crate: &Path) -> Vec<String> {
    let mut comps: Vec<String> = rel_within_crate
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    if comps.first().map(String::as_str) == Some("src") {
        comps.remove(0);
    }
    if let Some(last) = comps.last_mut() {
        if let Some(stem) = last.strip_suffix(".rs") {
            *last = stem.to_string();
        }
    }
    match comps.last().map(String::as_str) {
        Some("lib") | Some("mod") | Some("main") => {
            comps.pop();
        }
        _ => {}
    }
    comps
}

impl Workspace {
    /// Scans and parses the workspace rooted at `root`.
    pub fn analyze(root: &Path) -> std::io::Result<Workspace> {
        let mut ws = Workspace {
            root: root.to_path_buf(),
            ..Workspace::default()
        };
        ws.load_crates()?;
        ws.load_files()?;
        ws.build_indexes();
        ws.build_cones();
        Ok(ws)
    }

    fn load_crates(&mut self) -> std::io::Result<()> {
        let root_manifest = read(&self.root.join("Cargo.toml")).unwrap_or_default();
        let ws_map = workspace_dep_map(&root_manifest);
        // Resolve one dependency list against the workspace map.
        let resolve_deps = |deps: Vec<(String, Option<String>)>| {
            let mut out: BTreeMap<String, String> = BTreeMap::new();
            for (alias, dir) in deps {
                let dir = dir.or_else(|| ws_map.get(&alias).cloned());
                if let Some(dir) = dir {
                    out.insert(alias.replace('-', "_"), dir);
                }
            }
            out
        };
        // Member crates.
        let crates_dir = self.root.join("crates");
        if crates_dir.is_dir() {
            let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                let Ok(manifest) = read(&dir.join("Cargo.toml")) else {
                    continue;
                };
                let key = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let (package, deps) = member_manifest(&manifest);
                let code_names = resolve_deps(deps);
                self.crates.insert(
                    key.clone(),
                    CrateInfo {
                        deps: code_names.values().cloned().collect(),
                        key: key.clone(),
                        package,
                        code_names,
                    },
                );
            }
        }
        // Root umbrella package (if it has both [package] and src/).
        if self.root.join("src").is_dir() {
            let (package, deps) = member_manifest(&root_manifest);
            if !package.is_empty() {
                let code_names = resolve_deps(deps);
                self.crates.insert(
                    package.clone(),
                    CrateInfo {
                        deps: code_names.values().cloned().collect(),
                        key: package.clone(),
                        package,
                        code_names,
                    },
                );
            }
        }
        Ok(())
    }

    /// Crate key for a workspace-relative path, if the file belongs to
    /// a known crate.
    fn crate_key_of(&self, rel: &Path) -> Option<(String, PathBuf)> {
        let comps: Vec<String> = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        if comps.first().map(String::as_str) == Some("crates") {
            let key = comps.get(1)?.clone();
            if self.crates.contains_key(&key) {
                let inner: PathBuf = comps[2..].iter().collect();
                return Some((key, inner));
            }
            return None;
        }
        // Root package file?
        let root_key = self
            .crates
            .values()
            .find(|c| !self.root.join("crates").join(&c.key).is_dir())
            .map(|c| c.key.clone())?;
        Some((root_key, rel.to_path_buf()))
    }

    fn load_files(&mut self) -> std::io::Result<()> {
        for path in crate::workspace_files(&self.root)? {
            let rel = path
                .strip_prefix(&self.root)
                .unwrap_or(&path)
                .to_path_buf();
            let src = match read(&path) {
                Ok(s) => s,
                Err(_) => continue,
            };
            let mut ctx = crate::fixture_directive(&src).unwrap_or_else(|| classify(&rel));
            if ctx.file.is_empty() {
                ctx.file = rel
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
            }
            let lexed = lexer::lex(&src);
            let (krate, inner) = match self.crate_key_of(&rel) {
                Some(k) => k,
                None => (String::new(), rel.clone()),
            };
            let in_graph = ctx.kind == FileKind::Lib && !krate.is_empty();
            let parsed = in_graph.then(|| parser::parse(&lexed.tokens));
            let module = file_module(&inner);
            self.files.push(FileInfo {
                path,
                rel,
                krate,
                module,
                ctx,
                lexed,
                parsed,
                fn_ids: Vec::new(),
            });
        }
        // Materialise fn nodes.
        for fi in 0..self.files.len() {
            let Some(parsed) = self.files[fi].parsed.take() else {
                continue;
            };
            let ParsedFile { fns, uses } = parsed;
            let mut ids = Vec::new();
            for f in &fns {
                let id = self.fns.len() as u32;
                let float_fn = self.fn_mentions_float(fi, f);
                let file = &self.files[fi];
                let mut module = file.module.clone();
                module.extend(f.module.iter().cloned());
                self.fns.push(FnNode {
                    file: fi as u32,
                    krate: file.krate.clone(),
                    module,
                    name: f.name.clone(),
                    self_type: f.self_type.clone(),
                    trait_impl: f.trait_impl.clone(),
                    is_pub: f.is_pub,
                    sig_start: f.sig_start,
                    body: f.body,
                    refs: f.refs.clone(),
                    float_fn,
                });
                ids.push(id);
            }
            self.files[fi].parsed = Some(ParsedFile { fns, uses });
            self.files[fi].fn_ids = ids;
        }
        Ok(())
    }

    fn fn_mentions_float(&self, fi: usize, f: &FnItem) -> bool {
        let toks = &self.files[fi].lexed.tokens;
        let end = f.body.map(|(_, close)| close + 1).unwrap_or(f.sig_start + 1);
        toks[f.sig_start.min(toks.len())..end.min(toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64"))
    }

    fn build_indexes(&mut self) {
        for (id, f) in self.fns.iter().enumerate() {
            self.name_index
                .entry(f.name.clone())
                .or_default()
                .push(id as u32);
            if let Some(ty) = &f.self_type {
                self.typed_index
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(id as u32);
            }
        }
    }

    fn build_cones(&mut self) {
        // down: key ∪ transitive deps
        for key in self.crates.keys() {
            let mut seen = BTreeSet::new();
            let mut stack = vec![key.clone()];
            while let Some(k) = stack.pop() {
                if !seen.insert(k.clone()) {
                    continue;
                }
                if let Some(info) = self.crates.get(&k) {
                    stack.extend(info.deps.iter().cloned());
                }
            }
            self.cone_down.insert(key.clone(), seen);
        }
        // up: inverse of down
        let mut up: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (k, cone) in &self.cone_down {
            for dep in cone {
                up.entry(dep.clone()).or_default().insert(k.clone());
            }
        }
        self.cone_up = up;
    }

    /// The crate plus its transitive dependencies.
    pub fn cone_down(&self, key: &str) -> Option<&BTreeSet<String>> {
        self.cone_down.get(key)
    }

    /// The crate plus its transitive dependents.
    pub fn cone_up(&self, key: &str) -> Option<&BTreeSet<String>> {
        self.cone_up.get(key)
    }

    /// Use-declaration alias map applicable to `node` (file-level
    /// declarations plus those of enclosing inline modules), and the
    /// glob import paths in the same scope.
    fn scope_of(&self, node: &FnNode) -> (BTreeMap<&str, &UseDecl>, Vec<&UseDecl>) {
        let mut map: BTreeMap<&str, &UseDecl> = BTreeMap::new();
        let mut globs = Vec::new();
        let file = &self.files[node.file as usize];
        let Some(parsed) = &file.parsed else {
            return (map, globs);
        };
        // The fn's inline-module path within the file:
        let inline = &node.module[file.module.len().min(node.module.len())..];
        for u in &parsed.uses {
            let applies = u.module.len() <= inline.len() && inline.starts_with(&u.module[..]);
            if !applies {
                continue;
            }
            if u.alias.is_empty() {
                globs.push(u);
            } else {
                map.insert(u.alias.as_str(), u);
            }
        }
        (map, globs)
    }

    /// Maps a leading path segment to a crate key from `from`'s view:
    /// its own code name, a dependency's code name, or a workspace
    /// package name.
    fn crate_for_segment(&self, from: &str, seg: &str) -> Option<String> {
        let info = self.crates.get(from)?;
        if let Some(dep) = info.code_names.get(seg) {
            return Some(dep.clone());
        }
        if info.package.replace('-', "_") == seg || info.key == seg {
            return Some(info.key.clone());
        }
        None
    }

    /// Resolves one reference from `node` to candidate fn ids.
    pub fn resolve(&self, node: &FnNode, r: &Ref) -> Vec<u32> {
        if r.method {
            return self.resolve_method(node, &r.segments[0]);
        }
        let (map, globs) = self.scope_of(node);
        let mut segs: Vec<String> = r.segments.clone();
        // Alias expansion (one hop is enough for idiomatic code).
        if let Some(u) = map.get(segs[0].as_str()) {
            let mut expanded = u.path.clone();
            expanded.extend(segs.drain(1..));
            segs = expanded;
        }
        // Normalise leading keywords.
        let mut target_crate: Option<String> = None;
        loop {
            match segs.first().map(String::as_str) {
                Some("crate") | Some("self") | Some("super") => {
                    segs.remove(0);
                    target_crate = Some(node.krate.clone());
                }
                Some("Self") => {
                    match &node.self_type {
                        Some(ty) => segs[0] = ty.clone(),
                        None => {
                            segs.remove(0);
                        }
                    }
                    break;
                }
                _ => break,
            }
            if segs.is_empty() {
                return Vec::new();
            }
        }
        if target_crate.is_none() && !segs.is_empty() {
            if matches!(segs[0].as_str(), "std" | "core" | "alloc") {
                return Vec::new(); // external — token needles patrol std types
            }
            if let Some(k) = self.crate_for_segment(&node.krate, &segs[0]) {
                target_crate = Some(k);
                segs.remove(0);
            }
        }
        if segs.is_empty() {
            return Vec::new();
        }
        let within: BTreeSet<String> = match &target_crate {
            Some(k) => std::iter::once(k.clone()).collect(),
            None => std::iter::once(node.krate.clone()).collect(),
        };
        let mut out = self.lookup_suffix(&segs, &within);
        if out.is_empty() && target_crate.is_none() {
            // Glob imports: `use simkit::*;` then `DetRng::from_seed(..)`.
            for g in globs {
                if let Some(k) = self.crate_for_segment(&node.krate, &g.path[0]) {
                    let within: BTreeSet<String> = std::iter::once(k).collect();
                    out.extend(self.lookup_suffix(&segs, &within));
                }
            }
        }
        out
    }

    /// Suffix lookup: `[.., Type, name]` → typed index, else last
    /// segment through the name index, crate-filtered.
    fn lookup_suffix(&self, segs: &[String], within: &BTreeSet<String>) -> Vec<u32> {
        let filter = |ids: Option<&Vec<u32>>| -> Vec<u32> {
            ids.map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| within.contains(&self.fns[id as usize].krate))
                    .collect()
            })
            .unwrap_or_default()
        };
        if segs.len() >= 2 {
            let ty = &segs[segs.len() - 2];
            let name = &segs[segs.len() - 1];
            if ty.chars().next().is_some_and(|c| c.is_uppercase()) {
                let hits = filter(self.typed_index.get(&(ty.clone(), name.clone())));
                if !hits.is_empty() {
                    return hits;
                }
            }
        }
        let name = segs.last().cloned().unwrap_or_default();
        filter(self.name_index.get(&name))
    }

    /// Method-call resolution: every method of that name in the
    /// caller's down cone, plus every trait-impl method of that name in
    /// its up cone.
    fn resolve_method(&self, node: &FnNode, name: &str) -> Vec<u32> {
        let empty = BTreeSet::new();
        let down = self.cone_down(&node.krate).unwrap_or(&empty);
        let up = self.cone_up(&node.krate).unwrap_or(&empty);
        self.name_index
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| {
                        let f = &self.fns[id as usize];
                        f.self_type.is_some()
                            && (down.contains(&f.krate)
                                || (f.trait_impl.is_some() && up.contains(&f.krate)))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All outgoing edges of one node.
    pub fn edges(&self, id: u32) -> Vec<u32> {
        let node = &self.fns[id as usize];
        let mut out = BTreeSet::new();
        for r in &node.refs {
            for t in self.resolve(node, r) {
                if t != id {
                    out.insert(t);
                }
            }
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_dep_lines() {
        assert_eq!(
            dep_line("simkit = { workspace = true }"),
            Some(("simkit".into(), None))
        );
        assert_eq!(
            dep_line("contory = { path = \"crates/core\" }"),
            Some(("contory".into(), Some("core".into())))
        );
        assert_eq!(
            dep_line("obskit.workspace = true"),
            Some(("obskit".into(), None))
        );
        assert_eq!(dep_line("# comment"), None);
        assert_eq!(dep_line("[dependencies]"), None);
    }

    #[test]
    fn workspace_map_parses_renames() {
        let map = workspace_dep_map(
            "[workspace.dependencies]\n\
             simkit = { path = \"crates/simkit\", package = \"contory-simkit\" }\n\
             contory = { path = \"crates/core\" }\n\
             proptest = { path = \"crates/propcheck\", package = \"contory-propcheck\" }\n\
             [package]\nname = \"x\"\n",
        );
        assert_eq!(map.get("contory").map(String::as_str), Some("core"));
        assert_eq!(map.get("proptest").map(String::as_str), Some("propcheck"));
        assert_eq!(map.get("simkit").map(String::as_str), Some("simkit"));
    }

    #[test]
    fn file_modules() {
        let m = |p: &str| file_module(Path::new(p));
        assert_eq!(m("src/lib.rs"), Vec::<String>::new());
        assert_eq!(m("src/facade.rs"), vec!["facade"]);
        assert_eq!(m("src/query/mod.rs"), vec!["query"]);
        assert_eq!(m("src/query/parser.rs"), vec!["query", "parser"]);
    }
}
