//! `lintkit` — workspace-aware determinism & robustness analyses for
//! the Contory workspace.
//!
//! PR 1 made failover simulation deterministic and seed-reproducible;
//! PR 2 added a per-file token linter to *enforce* the invariants it
//! relies on. That linter trusted a hand-maintained `SIM_VISIBLE` crate
//! list — a new crate, a re-exported helper or a violation three calls
//! below an entry point silently escaped the gate. v2 replaces the list
//! with computed reachability:
//!
//! - [`parser`] — a dependency-free, item-level Rust parser on the
//!   existing lexer (`mod`/`use`/`fn`/`impl`/`trait` items with token
//!   spans, call-site and path-reference extraction);
//! - [`graph`] — the workspace symbol graph (crate → module → item)
//!   with call/reference edges resolved through `use` declarations,
//!   re-exports and the Cargo dependency cones;
//! - [`reach`] — sim / shard / hot taints propagated from structural
//!   entry points (`Sim`/`ShardSim`/`EventCtx` impls, `Scenario`
//!   impls, everything the testbed schedules, core's public surface);
//! - [`rules`] — the catalog, re-based on per-token taint flags
//!   ([`TokFlags`]), including the graph-powered passes
//!   `panic-reachable`, `float-order` and `shard-shared-state`;
//! - [`ratchet`] — the machine-readable report (`contory-lint/1`) and
//!   the checked-in ratchet baseline
//!   (`results/lint_baseline.json`): legacy findings stay pinned, any
//!   *new* finding fails tier-1.
//!
//! Run the full analysis:
//!
//! ```text
//! cargo run -p lintkit -- --workspace --baseline results/lint_baseline.json
//! ```
//!
//! or over individual files (`cargo run -p lintkit -- path/to/file.rs`;
//! files with a `lint-fixture:` directive are linted standalone). It
//! also runs as a tier-1 test (`crates/lintkit/tests/workspace_clean.rs`)
//! and as the `==> lintkit gate` step of `scripts/verify.sh`.
//!
//! ## Suppressing a diagnostic
//!
//! Append a pragma to the offending line (or place it alone on the line
//! above) naming the rule(s) to silence — always with a justification:
//!
//! ```text
//! let t0 = Instant::now(); // lint:allow(wallclock-ban) bench harness timing
//! ```
//!
//! Pragma hygiene is itself checked: a pragma that names an unknown
//! rule or that suppresses nothing under the current reachability is an
//! `unused-pragma` finding (never pinnable in the baseline).
//!
//! ## Fixture files
//!
//! A file whose first lines contain a directive such as
//!
//! ```text
//! // lint-fixture: crate=core kind=lib reach=sim,hot
//! ```
//!
//! is linted *as if* it lived in that crate/target, with the given
//! taint flags forced onto every `fn` in the file (single-file mode has
//! no workspace graph to compute them from). The workspace walk skips
//! `fixtures/` directories.

#![deny(warnings)]
#![deny(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod ratchet;
pub mod reach;
pub mod rules;

use lexer::Lexed;
use rules::{cfg_test_regions, find_matches, Rule, RuleCtx, RULES};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// What kind of compilation target a file belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/**` excluding `src/bin`).
    Lib,
    /// Binary target (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Integration test (`tests/**`) or `#[cfg(test)]` region.
    Test,
    /// Bench target (`benches/**`).
    Bench,
    /// Example (`examples/**`).
    Example,
}

impl fmt::Display for FileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FileKind::Lib => "lib",
            FileKind::Bin => "bin",
            FileKind::Test => "test",
            FileKind::Bench => "bench",
            FileKind::Example => "example",
        };
        f.write_str(s)
    }
}

impl FileKind {
    fn parse(s: &str) -> Option<FileKind> {
        Some(match s {
            "lib" => FileKind::Lib,
            "bin" => FileKind::Bin,
            "test" => FileKind::Test,
            "bench" => FileKind::Bench,
            "example" => FileKind::Example,
            _ => return None,
        })
    }
}

/// Lint context of one file: which crate it belongs to (short name,
/// e.g. `core` for `crates/core`; `None` for the umbrella crate) and
/// what kind of target it is.
#[derive(Clone, Debug)]
pub struct FileCtx {
    /// Short crate name (the directory under `crates/`), if any.
    pub krate: Option<String>,
    /// Target kind.
    pub kind: FileKind,
    /// Bare file name (e.g. `shard.rs`).
    pub file: String,
}

/// Per-token taint flags, computed by [`reach`] over the symbol graph
/// (or forced by a fixture directive in single-file mode). Tokens
/// inside a `fn` body carry the fn's flags; item-level tokens carry the
/// file-level flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TokFlags {
    /// Reachable from a simulation entry point.
    pub sim: bool,
    /// Reachable from shard-parallel stepping.
    pub shard: bool,
    /// Reachable from a provisioning hot path.
    pub hot: bool,
    /// The enclosing fn handles `f32`/`f64` (signature or body).
    pub float_fn: bool,
}

/// Token-span → taint-flag map for one file.
#[derive(Clone, Debug, Default)]
pub struct FileSpans {
    /// `(start, end, flags)` token ranges, one per `fn` item
    /// (inclusive of the signature).
    pub spans: Vec<(usize, usize, TokFlags)>,
    /// Flags applied to tokens outside any `fn` span (struct fields,
    /// use declarations, consts).
    pub file: TokFlags,
}

impl FileSpans {
    /// Flags in effect at token index `idx`.
    pub fn flags_at(&self, idx: usize) -> TokFlags {
        for &(start, end, flags) in &self.spans {
            if idx >= start && idx <= end {
                return flags;
            }
        }
        self.file
    }

    /// True when token `idx` falls inside a `fn` item span.
    pub fn in_fn(&self, idx: usize) -> bool {
        self.spans
            .iter()
            .any(|&(start, end, _)| idx >= start && idx <= end)
    }
}

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Rule that fired.
    pub rule: &'static str,
    /// File the violation is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Explanation.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.path.display(),
            self.line,
            self.col,
            self.rule,
            self.msg
        )
    }
}

/// Summary of one lint run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Violations found (pragma-suppressed hits excluded).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of hits suppressed by `lint:allow` pragmas.
    pub allowed: usize,
    /// Number of files scanned.
    pub files: usize,
}

impl RunReport {
    /// True if no violation survived.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    fn merge(&mut self, other: RunReport) {
        self.diagnostics.extend(other.diagnostics);
        self.allowed += other.allowed;
        self.files += other.files;
    }
}

/// Classifies a file by its path relative to the workspace root.
pub fn classify(rel_path: &Path) -> FileCtx {
    let comps: Vec<String> = rel_path
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let krate = match comps.first().map(String::as_str) {
        Some("crates") => comps.get(1).cloned(),
        _ => None,
    };
    let has = |seg: &str| comps.iter().any(|c| c == seg);
    let file = comps.last().map(String::as_str).unwrap_or("");
    let kind = if has("tests") {
        FileKind::Test
    } else if has("benches") {
        FileKind::Bench
    } else if has("examples") {
        FileKind::Example
    } else if has("bin") || file == "main.rs" || file == "build.rs" {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    FileCtx {
        krate,
        kind,
        file: file.to_string(),
    }
}

/// Parses a `// lint-fixture: crate=<name> kind=<kind> [file=<name>]
/// [reach=<sim,shard,hot>]` directive from the head of a source file.
/// A missing `file=` field leaves `file` empty; [`lint_file`] then
/// falls back to the real file name.
pub fn fixture_directive(src: &str) -> Option<FileCtx> {
    for line in src.lines().take(5) {
        let Some(idx) = line.find("lint-fixture:") else {
            continue;
        };
        let mut krate = None;
        let mut kind = FileKind::Lib;
        let mut file = String::new();
        for field in line[idx + "lint-fixture:".len()..].split_whitespace() {
            if let Some(v) = field.strip_prefix("crate=") {
                krate = Some(v.to_string());
            } else if let Some(v) = field.strip_prefix("kind=") {
                kind = FileKind::parse(v)?;
            } else if let Some(v) = field.strip_prefix("file=") {
                file = v.to_string();
            }
        }
        return Some(FileCtx { krate, kind, file });
    }
    None
}

/// Parses the `reach=` field of a `lint-fixture:` directive into forced
/// taint flags for single-file mode. `reach=sim,hot` marks every fn in
/// the fixture sim- and hot-reachable. Returns `None` when the
/// directive (or the field) is absent.
pub fn fixture_reach(src: &str) -> Option<TokFlags> {
    for line in src.lines().take(5) {
        let Some(idx) = line.find("lint-fixture:") else {
            continue;
        };
        for field in line[idx + "lint-fixture:".len()..].split_whitespace() {
            if let Some(v) = field.strip_prefix("reach=") {
                let mut flags = TokFlags::default();
                for part in v.split(',') {
                    match part {
                        "sim" => flags.sim = true,
                        "shard" => flags.shard = true,
                        "hot" => flags.hot = true,
                        _ => {}
                    }
                }
                return Some(flags);
            }
        }
        return None;
    }
    None
}

/// Builds fn spans for single-file mode: every fn gets the forced
/// `base` flags, with per-fn `float_fn` evidence computed from its own
/// tokens.
fn single_file_spans(lexed: &Lexed, base: TokFlags) -> FileSpans {
    let parsed = parser::parse(&lexed.tokens);
    let mut spans = Vec::new();
    for f in &parsed.fns {
        let end = f.body.map(|(_, close)| close).unwrap_or(f.sig_start);
        let end = end.min(lexed.tokens.len().saturating_sub(1));
        let mut flags = base;
        flags.float_fn = lexed.tokens[f.sig_start.min(end)..=end]
            .iter()
            .any(|t| t.is_ident("f32") || t.is_ident("f64"));
        spans.push((f.sig_start, end, flags));
    }
    FileSpans { spans, file: base }
}

/// The core matcher: lints one lexed file under explicit context and
/// taint spans, including the `unused-pragma` hygiene pass.
pub fn lint_tokens(path: &Path, lexed: &Lexed, ctx: &FileCtx, spans: &FileSpans) -> RunReport {
    let tokens = &lexed.tokens;
    let test_regions = cfg_test_regions(tokens);
    let in_test_region = |tok_idx: usize| {
        test_regions
            .iter()
            .any(|&(start, end)| tok_idx >= start && tok_idx <= end)
    };

    // line → [(allowed rule, pragma index)].
    let mut allow: BTreeMap<u32, Vec<(String, usize)>> = BTreeMap::new();
    for (pi, pragma) in lexed.pragmas.iter().enumerate() {
        let line = if pragma.standalone {
            pragma.line + 1
        } else {
            pragma.line
        };
        for rule in &pragma.rules {
            allow.entry(line).or_default().push((rule.clone(), pi));
        }
    }
    // (pragma index, rule) pairs that suppressed at least one hit.
    let mut used: BTreeSet<(usize, String)> = BTreeSet::new();

    let mut report = RunReport {
        files: 1,
        ..RunReport::default()
    };
    for rule in RULES {
        for needle in rule.needles {
            for tok_idx in find_matches(tokens, needle) {
                if needle.fn_body_only && !spans.in_fn(tok_idx) {
                    continue;
                }
                let kind = if in_test_region(tok_idx) {
                    FileKind::Test
                } else {
                    ctx.kind
                };
                let rctx = RuleCtx {
                    file: ctx,
                    kind,
                    flags: spans.flags_at(tok_idx),
                };
                if !(rule.applies)(&rctx) {
                    continue;
                }
                let tok = &tokens[tok_idx];
                let mut suppressed = false;
                if let Some(entries) = allow.get(&tok.line) {
                    for (name, pi) in entries {
                        if name == rule.name {
                            used.insert((*pi, name.clone()));
                            suppressed = true;
                        }
                    }
                }
                if suppressed {
                    report.allowed += 1;
                } else {
                    report.diagnostics.push(Diagnostic {
                        rule: rule.name,
                        path: path.to_path_buf(),
                        line: tok.line,
                        col: tok.col,
                        msg: needle.msg.to_string(),
                    });
                }
            }
        }
    }

    // Pragma hygiene: every pragma entry must name a known rule and
    // have suppressed at least one hit. A pragma line that includes
    // `unused-pragma` in its own rule list opts out (no fixpoint).
    for (pi, pragma) in lexed.pragmas.iter().enumerate() {
        let exempt = lexed
            .pragmas
            .iter()
            .filter(|p| p.line == pragma.line)
            .any(|p| p.rules.iter().any(|r| r == "unused-pragma"));
        for rule in &pragma.rules {
            if rule == "unused-pragma" {
                continue;
            }
            let msg = if rules::rule_by_name(rule).is_none() {
                Some(format!(
                    "pragma names unknown rule `{rule}` (see `--list-rules`)"
                ))
            } else if !used.contains(&(pi, rule.clone())) {
                Some(format!(
                    "stale pragma: `lint:allow({rule})` suppresses no diagnostic under \
                     the computed reachability — delete it"
                ))
            } else {
                None
            };
            if let Some(msg) = msg {
                if exempt {
                    report.allowed += 1;
                } else {
                    report.diagnostics.push(Diagnostic {
                        rule: "unused-pragma",
                        path: path.to_path_buf(),
                        line: pragma.line,
                        col: pragma.col,
                        msg,
                    });
                }
            }
        }
    }

    report.diagnostics.sort_by_key(|d| (d.line, d.col, d.rule));
    report
}

/// Lints one source string in **single-file mode**: taint flags come
/// from the `reach=` fixture field (default: none), not from the
/// workspace graph. Use [`Analysis`] for graph-backed linting.
pub fn lint_source(path: &Path, src: &str, ctx: &FileCtx) -> RunReport {
    let lexed = lexer::lex(src);
    let base = fixture_reach(src).unwrap_or_default();
    let spans = single_file_spans(&lexed, base);
    lint_tokens(path, &lexed, ctx, &spans)
}

/// Lints one file from disk in single-file mode. A `lint-fixture:`
/// directive overrides the path-derived context.
pub fn lint_file(root: &Path, path: &Path) -> std::io::Result<RunReport> {
    let src = std::fs::read_to_string(path)?;
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut ctx = fixture_directive(&src).unwrap_or_else(|| classify(rel));
    if ctx.file.is_empty() {
        ctx.file = rel
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
    }
    Ok(lint_source(rel, &src, &ctx))
}

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "results"];

/// Collects every workspace `.rs` file under `root`, in sorted
/// (deterministic) order, skipping build output and lint fixtures.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            let name = entry
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if entry.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                    stack.push(entry);
                }
            } else if name.ends_with(".rs") {
                files.push(entry);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// The full workspace analysis: symbol graph plus computed taints,
/// ready to lint any workspace file with real reachability flags.
#[derive(Debug)]
pub struct Analysis {
    /// The symbol graph.
    pub ws: graph::Workspace,
    /// Computed taints over [`Analysis::ws`].
    pub reach: reach::Reach,
}

impl Analysis {
    /// Scans, parses and taints the workspace rooted at `root`.
    pub fn analyze(root: &Path) -> std::io::Result<Analysis> {
        let ws = graph::Workspace::analyze(root)?;
        let reach = reach::compute(&ws);
        Ok(Analysis { ws, reach })
    }

    /// The computed sim-visible crate set (successor of the retired
    /// hand-maintained `SIM_VISIBLE` list).
    pub fn sim_visible(&self) -> &BTreeSet<String> {
        &self.reach.sim_visible
    }

    /// Taint spans for file index `fi`: each fn's body span carries its
    /// computed taint; item-level tokens carry file-level flags (sim if
    /// the crate has sim-tainted code, shard if the *file* does).
    fn spans_for_file(&self, fi: usize) -> FileSpans {
        let file = &self.ws.files[fi];
        let mut spans = Vec::new();
        let mut file_shard = false;
        for &id in &file.fn_ids {
            let node = &self.ws.fns[id as usize];
            let taint = self.reach.taint[id as usize];
            file_shard |= taint.shard;
            let end = node.body.map(|(_, close)| close).unwrap_or(node.sig_start);
            spans.push((
                node.sig_start,
                end,
                TokFlags {
                    sim: taint.sim,
                    shard: taint.shard,
                    hot: taint.hot,
                    float_fn: node.float_fn,
                },
            ));
        }
        FileSpans {
            spans,
            file: TokFlags {
                sim: self.reach.sim_visible.contains(&file.krate),
                shard: file_shard,
                hot: false,
                float_fn: false,
            },
        }
    }

    /// Lints every workspace file with computed taint flags.
    pub fn lint_all(&self) -> RunReport {
        let mut report = RunReport::default();
        for fi in 0..self.ws.files.len() {
            report.merge(self.lint_index(fi));
        }
        report
            .diagnostics
            .sort_by_key(|d| (d.path.clone(), d.line, d.col));
        report
    }

    fn lint_index(&self, fi: usize) -> RunReport {
        let file = &self.ws.files[fi];
        let spans = self.spans_for_file(fi);
        lint_tokens(&file.rel, &file.lexed, &file.ctx, &spans)
    }

    /// Lints one file (given absolute or workspace-relative) with
    /// computed flags. `None` if the path is not a scanned file.
    pub fn lint_path(&self, path: &Path) -> Option<RunReport> {
        let fi = self
            .ws
            .files
            .iter()
            .position(|f| f.path == path || f.rel == path)?;
        Some(self.lint_index(fi))
    }
}

/// Lints the whole workspace rooted at `root` (graph-backed).
pub fn lint_workspace(root: &Path) -> std::io::Result<RunReport> {
    Ok(Analysis::analyze(root)?.lint_all())
}

/// Locates the workspace root: an ancestor of `start` (or of this
/// crate's manifest dir) containing both `Cargo.toml` and `crates/`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut candidates: Vec<PathBuf> = vec![start.to_path_buf()];
    candidates.push(Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf());
    for base in candidates {
        let mut dir = Some(base.as_path());
        while let Some(d) = dir {
            if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
                return Some(d.to_path_buf());
            }
            dir = d.parent();
        }
    }
    None
}

/// The rule catalog (re-exported for the CLI and docs).
pub fn catalog() -> &'static [Rule] {
    RULES
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(krate: &str, kind: FileKind) -> FileCtx {
        FileCtx {
            krate: Some(krate.to_string()),
            kind,
            file: "x.rs".to_string(),
        }
    }

    fn diags(src: &str, c: &FileCtx) -> Vec<(String, u32)> {
        lint_source(Path::new("x.rs"), src, c)
            .diagnostics
            .into_iter()
            .map(|d| (d.rule.to_string(), d.line))
            .collect()
    }

    /// Prefixes a `reach=` directive matching the given flags.
    fn with_reach(reach: &str, src: &str) -> String {
        format!("// lint-fixture: crate=core kind=lib reach={reach}\n{src}")
    }

    #[test]
    fn wallclock_fires_outside_crit_only() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(diags(src, &ctx("radio", FileKind::Lib)).len(), 1);
        assert_eq!(diags(src, &ctx("crit", FileKind::Lib)).len(), 0);
    }

    #[test]
    fn unordered_iter_scoped_to_sim_taint() {
        let src = with_reach("sim", "use std::collections::HashMap;");
        assert_eq!(diags(&src, &ctx("core", FileKind::Lib)).len(), 1);
        assert_eq!(diags(&src, &ctx("core", FileKind::Test)).len(), 0);
        // No sim taint → no finding.
        let plain = "use std::collections::HashMap;";
        assert_eq!(diags(plain, &ctx("core", FileKind::Lib)).len(), 0);
    }

    #[test]
    fn panic_reachable_scoped_to_hot_taint() {
        let src = with_reach("hot", "fn lib(v: Option<u32>) -> u32 { v.unwrap() }");
        assert_eq!(
            diags(&src, &ctx("core", FileKind::Lib)),
            vec![("panic-reachable".to_string(), 2)]
        );
        // Same code without the hot taint is fine.
        let cold = "fn lib(v: Option<u32>) -> u32 { v.unwrap() }";
        assert!(diags(cold, &ctx("core", FileKind::Lib)).is_empty());
    }

    #[test]
    fn panic_reachable_exempt_in_cfg_test_mod() {
        let src = with_reach(
            "hot",
            "fn lib(v: Option<u32>) -> u32 { v.unwrap() }\n\
             #[cfg(test)]\nmod tests {\n  fn t(v: Option<u32>) { v.unwrap(); }\n}\n",
        );
        let d = diags(&src, &ctx("core", FileKind::Lib));
        assert_eq!(d, vec![("panic-reachable".to_string(), 2)]);
    }

    #[test]
    fn indexing_guard_discriminates() {
        // Indexing expressions fire…
        let src = with_reach("hot", "fn f(v: &[u32], i: usize) -> u32 { v[i] }");
        assert_eq!(
            diags(&src, &ctx("core", FileKind::Lib)),
            vec![("panic-reachable".to_string(), 2)]
        );
        // …array types, attributes and literals do not.
        let benign = with_reach(
            "hot",
            "#[derive(Debug)]\nstruct S { buf: [u8; 4] }\n\
             fn f() -> [u32; 2] { let v = [1, 2]; v }",
        );
        assert!(diags(&benign, &ctx("core", FileKind::Lib)).is_empty());
        // Item-level `[` (outside any fn) never fires.
        let item = with_reach("hot", "const T: [u8; 2] = [0, 1];");
        assert!(diags(&item, &ctx("core", FileKind::Lib)).is_empty());
    }

    #[test]
    fn float_order_needs_sim_and_float_evidence() {
        let float_fold = "fn avg(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, b| a + b) }";
        let src = with_reach("sim", float_fold);
        assert_eq!(
            diags(&src, &ctx("core", FileKind::Lib)),
            vec![("float-order".to_string(), 2)]
        );
        // Integer fold in the same position: no float evidence, no hit.
        let int_fold = with_reach("sim", "fn sum(xs: &[u64]) -> u64 { xs.iter().fold(0, |a, b| a + b) }");
        assert!(diags(&int_fold, &ctx("core", FileKind::Lib)).is_empty());
        // Float fold outside the sim taint: no hit.
        let cold = format!("// lint-fixture: crate=core kind=lib\n{float_fold}");
        assert!(diags(&cold, &ctx("core", FileKind::Lib)).is_empty());
    }

    #[test]
    fn shard_rules_scoped_to_shard_taint() {
        let src = with_reach("shard", "fn merge(items: &[u32]) { let _ = items.iter().reduce(f); }");
        assert_eq!(
            diags(&src, &ctx("simkit", FileKind::Lib)),
            vec![("shard-visible-order".to_string(), 2)]
        );
        // Same code without shard taint: no hit.
        let cold = "fn merge(items: &[u32]) { let _ = items.iter().reduce(f); }";
        assert!(diags(cold, &ctx("simkit", FileKind::Lib)).is_empty());
        // Shared state in a shard path.
        let state = with_reach("shard", "fn f(m: &Mutex<u32>) { m.lock(); }");
        assert_eq!(
            diags(&state, &ctx("simkit", FileKind::Lib)),
            vec![("shard-shared-state".to_string(), 2)]
        );
        let atomic = with_reach("shard", "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }");
        assert_eq!(
            diags(&atomic, &ctx("simkit", FileKind::Lib)),
            vec![("shard-shared-state".to_string(), 2)]
        );
    }

    #[test]
    fn pragma_suppresses_same_line_and_next_line() {
        let body = "fn f() { panic!(); }";
        let same = with_reach("hot", &format!("{body} // lint:allow(panic-reachable) invariant"));
        assert!(diags(&same, &ctx("core", FileKind::Lib)).is_empty());
        let next = with_reach(
            "hot",
            &format!("// lint:allow(panic-reachable) invariant\n{body}"),
        );
        assert!(diags(&next, &ctx("core", FileKind::Lib)).is_empty());
        // A pragma for the wrong rule suppresses nothing — and is
        // itself flagged as stale.
        let wrong = with_reach("hot", &format!("{body} // lint:allow(no-exit)"));
        let d = diags(&wrong, &ctx("core", FileKind::Lib));
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|(r, _)| r == "panic-reachable"));
        assert!(d.iter().any(|(r, _)| r == "unused-pragma"));
    }

    #[test]
    fn allowed_hits_are_counted() {
        let src = with_reach("hot", "fn f() { panic!(); } // lint:allow(panic-reachable)");
        let report = lint_source(Path::new("x.rs"), &src, &ctx("core", FileKind::Lib));
        assert!(report.is_clean());
        assert_eq!(report.allowed, 1);
    }

    #[test]
    fn unused_pragma_flags_stale_and_unknown() {
        // Stale: rule exists but nothing to suppress.
        let stale = "fn f() {} // lint:allow(wallclock-ban)";
        let d = diags(stale, &ctx("core", FileKind::Lib));
        assert_eq!(d, vec![("unused-pragma".to_string(), 1)]);
        // Unknown rule name (e.g. the retired no-unwrap-in-core).
        let unknown = "fn f() { v.unwrap(); } // lint:allow(no-unwrap-in-core)";
        let d = diags(unknown, &ctx("core", FileKind::Lib));
        assert_eq!(d, vec![("unused-pragma".to_string(), 1)]);
        // Opting out via unused-pragma on the same pragma.
        let opt_out = "fn f() {} // lint:allow(wallclock-ban, unused-pragma) historical pin";
        assert!(diags(opt_out, &ctx("core", FileKind::Lib)).is_empty());
        // A live pragma is not flagged.
        let live = with_reach("hot", "fn f() { panic!(); } // lint:allow(panic-reachable)");
        assert!(diags(&live, &ctx("core", FileKind::Lib)).is_empty());
    }

    #[test]
    fn exit_exempt_in_bins_and_examples() {
        let src = "fn f() { std::process::exit(1); }";
        assert_eq!(diags(src, &ctx("core", FileKind::Lib)).len(), 1);
        assert_eq!(diags(src, &ctx("core", FileKind::Test)).len(), 1);
        assert_eq!(diags(src, &ctx("bench", FileKind::Bin)).len(), 0);
        assert_eq!(diags(src, &ctx("bench", FileKind::Example)).len(), 0);
    }

    #[test]
    fn print_exempt_outside_lib() {
        let src = "fn f() { println!(\"hi\"); }";
        assert_eq!(diags(src, &ctx("core", FileKind::Lib)).len(), 1);
        for kind in [FileKind::Bin, FileKind::Test, FileKind::Bench, FileKind::Example] {
            assert_eq!(diags(src, &ctx("core", kind)).len(), 0, "{kind}");
        }
    }

    #[test]
    fn ambient_rng_fires_everywhere() {
        let src = "use std::collections::hash_map::RandomState;";
        assert_eq!(diags(src, &ctx("bench", FileKind::Bin)).len(), 1);
        assert_eq!(diags(src, &ctx("simkit", FileKind::Lib)).len(), 1);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = with_reach(
            "hot",
            "fn f() { v.unwrap_or(0); v.unwrap_or_else(|| 0); v.unwrap_or_default(); }",
        );
        assert!(diags(&src, &ctx("core", FileKind::Lib)).is_empty());
    }

    #[test]
    fn doc_comment_examples_do_not_fire() {
        let src = with_reach(
            "hot",
            "/// let v = x.unwrap();\n/// let t = Instant::now();\nfn f() {}",
        );
        assert!(diags(&src, &ctx("core", FileKind::Lib)).is_empty());
    }

    #[test]
    fn classify_paths() {
        let c = classify(Path::new("crates/core/src/policy.rs"));
        assert_eq!(c.krate.as_deref(), Some("core"));
        assert_eq!(c.kind, FileKind::Lib);
        assert_eq!(c.file, "policy.rs");
        let c = classify(Path::new("crates/bench/src/bin/fig5_failover.rs"));
        assert_eq!(c.kind, FileKind::Bin);
        let c = classify(Path::new("tests/full_stack.rs"));
        assert_eq!(c.krate, None);
        assert_eq!(c.kind, FileKind::Test);
        let c = classify(Path::new("crates/fuego/tests/end_to_end.rs"));
        assert_eq!(c.kind, FileKind::Test);
        let c = classify(Path::new("examples/quickstart.rs"));
        assert_eq!(c.kind, FileKind::Example);
        let c = classify(Path::new("crates/bench/benches/merging.rs"));
        assert_eq!(c.kind, FileKind::Bench);
    }

    #[test]
    fn fixture_directive_parses() {
        let src = "// lint-fixture: crate=core kind=lib\nfn f() {}";
        let c = fixture_directive(src).expect("directive");
        assert_eq!(c.krate.as_deref(), Some("core"));
        assert_eq!(c.kind, FileKind::Lib);
        assert_eq!(c.file, "");
        let src = "// lint-fixture: crate=simkit kind=lib file=shard.rs reach=shard,sim\nfn f() {}";
        let c = fixture_directive(src).expect("directive");
        assert_eq!(c.file, "shard.rs");
        let r = fixture_reach(src).expect("reach");
        assert!(r.sim && r.shard && !r.hot);
        assert!(fixture_directive("fn f() {}").is_none());
        assert!(fixture_reach("// lint-fixture: crate=core kind=lib\nfn f() {}").is_none());
    }

    #[test]
    fn file_spans_select_innermost_then_file() {
        let spans = FileSpans {
            spans: vec![(
                5,
                10,
                TokFlags {
                    sim: true,
                    ..TokFlags::default()
                },
            )],
            file: TokFlags {
                hot: true,
                ..TokFlags::default()
            },
        };
        assert!(spans.flags_at(7).sim);
        assert!(!spans.flags_at(7).hot);
        assert!(spans.flags_at(2).hot);
        assert!(spans.in_fn(5) && spans.in_fn(10) && !spans.in_fn(11));
    }
}
