//! The lint catalog: rule definitions and token-needle matching,
//! scoped by **computed reachability** instead of crate allowlists.
//!
//! Each rule is a set of token-sequence *needles* plus an applicability
//! predicate over a [`RuleCtx`]: the file context (crate, target kind,
//! file name) **and** the taint flags of the matched token ([`TokFlags`]
//! — sim-reachable, shard-reachable, hot-path-reachable, float-bearing
//! fn), computed by [`crate::reach`] over the workspace symbol graph.
//! The hand-maintained `SIM_VISIBLE` crate list is gone: a violation
//! three calls deep in a crate the old list never named is caught,
//! while genuinely unreachable code stops needing pragmas.
//!
//! The catalog encodes this repository's determinism contract (see
//! DESIGN.md §5c/§5g): simulated components must take time from `Sim`,
//! randomness from `simkit::rng::DetRng`, and must iterate ordered
//! collections, so that two runs with the same seed produce
//! byte-identical snapshots, traces and `FailoverReport`s.

use crate::lexer::{Tok, TokKind};
use crate::{FileCtx, FileKind, TokFlags};

/// One element of a needle pattern.
#[derive(Clone, Copy, Debug)]
pub enum Matcher {
    /// Exact identifier.
    Ident(&'static str),
    /// Exact punctuation (`"::"`, `"."`, `"!"`, `"("`, `")"`).
    Punct(&'static str),
}

impl Matcher {
    fn matches(&self, tok: &Tok) -> bool {
        match self {
            Matcher::Ident(name) => tok.is_ident(name),
            Matcher::Punct(p) => tok.is_punct(p),
        }
    }
}

/// A token sequence to search for, with the message reported on a hit.
pub struct Needle {
    /// The token pattern.
    pub pat: &'static [Matcher],
    /// Human-readable diagnostic message.
    pub msg: &'static str,
    /// Extra predicate over `(tokens, match_start)`; a match is kept
    /// only if it returns true. Used where a fixed pattern cannot
    /// discriminate (e.g. indexing `x[i]` vs array types `[u8; 4]`).
    pub guard: Option<fn(&[Tok], usize) -> bool>,
    /// The needle only fires inside a `fn` body (item-level tokens —
    /// types, consts, use declarations — are exempt).
    pub fn_body_only: bool,
}

/// Shorthand for guardless, everywhere-matching needles.
const fn needle(pat: &'static [Matcher], msg: &'static str) -> Needle {
    Needle {
        pat,
        msg,
        guard: None,
        fn_body_only: false,
    }
}

/// Applicability context of one matched token.
pub struct RuleCtx<'a> {
    /// File context (crate, declared target kind, file name).
    pub file: &'a FileCtx,
    /// Effective kind at the match site (`Test` inside `#[cfg(test)]`
    /// regions of a lib file).
    pub kind: FileKind,
    /// Taint flags at the match site: the enclosing fn's flags, or the
    /// file-level flags for item-level tokens.
    pub flags: TokFlags,
}

/// A lint rule: a named needle set plus an applicability predicate.
pub struct Rule {
    /// Stable rule name (what `lint:allow(...)` refers to).
    pub name: &'static str,
    /// One-line description for `--list-rules` and docs.
    pub summary: &'static str,
    /// Long-form documentation for `--explain <rule>`: what the rule
    /// patrols, how its scope is computed, and how to fix a hit.
    pub explain: &'static str,
    /// Needles that constitute a violation (empty for meta passes like
    /// `unused-pragma`, which are computed by the engine directly).
    pub needles: &'static [Needle],
    /// Whether the rule applies at a match site.
    pub applies: fn(&RuleCtx) -> bool,
}

use Matcher::{Ident as I, Punct as P};

const WALLCLOCK_NEEDLES: &[Needle] = &[
    needle(
        &[I("Instant"), P("::"), I("now")],
        "wall-clock read (`Instant::now`): simulated code must take time from `Sim::now()`",
    ),
    needle(
        &[I("SystemTime"), P("::"), I("now")],
        "wall-clock read (`SystemTime::now`): simulated code must take time from `Sim::now()`",
    ),
    needle(
        &[I("thread"), P("::"), I("sleep")],
        "real sleep (`thread::sleep`): schedule on the `Sim` event queue instead",
    ),
];

const UNORDERED_NEEDLES: &[Needle] = &[
    needle(
        &[I("HashMap")],
        "`HashMap` in sim-reachable code: iteration order is unspecified — use \
         `BTreeMap` (or sort before iterating) so snapshots/reports are seed-stable",
    ),
    needle(
        &[I("HashSet")],
        "`HashSet` in sim-reachable code: iteration order is unspecified — use \
         `BTreeSet` (or sort before iterating) so snapshots/reports are seed-stable",
    ),
];

const AMBIENT_RNG_NEEDLES: &[Needle] = &[
    needle(
        &[I("RandomState")],
        "ambient randomness (`RandomState` seeds from the OS): derive a `DetRng` \
         from the scenario seed instead",
    ),
    needle(
        &[I("thread_rng")],
        "ambient randomness (`thread_rng`): derive a `DetRng` from the scenario seed",
    ),
    needle(
        &[I("from_entropy")],
        "ambient randomness (`from_entropy`): derive a `DetRng` from the scenario seed",
    ),
    needle(
        &[I("OsRng")],
        "ambient randomness (`OsRng`): derive a `DetRng` from the scenario seed",
    ),
    needle(
        &[I("getrandom")],
        "ambient randomness (`getrandom`): derive a `DetRng` from the scenario seed",
    ),
    needle(
        &[I("rand"), P("::"), I("random")],
        "ambient randomness (`rand::random`): derive a `DetRng` from the scenario seed",
    ),
];

/// True when the `[` at `idx` is an indexing expression: it directly
/// follows an identifier (not a keyword) or a closing `)` / `]`.
/// Array types (`[u8; 4]`), attributes (`#[...]`), slice patterns
/// (`let [a, b] = …`) and literals (`= [1, 2]`) all fail the guard.
fn is_index_expr(tokens: &[Tok], idx: usize) -> bool {
    let Some(prev) = idx.checked_sub(1).and_then(|i| tokens.get(i)) else {
        return false;
    };
    match prev.kind {
        TokKind::Ident => !matches!(
            prev.text.as_str(),
            "as" | "box" | "break" | "else" | "in" | "let" | "match" | "mut" | "ref" | "return"
        ),
        TokKind::Punct => prev.text == ")" || prev.text == "]",
        _ => false,
    }
}

const PANIC_NEEDLES: &[Needle] = &[
    needle(
        &[P("."), I("unwrap"), P("("), P(")")],
        "`unwrap()` reachable from a provisioning hot path: propagate a \
         `ContoryError` (or the crate's error type) instead of panicking the middleware",
    ),
    needle(
        &[P("."), I("expect"), P("(")],
        "`expect()` reachable from a provisioning hot path: propagate a \
         `ContoryError` (or the crate's error type) instead of panicking the middleware",
    ),
    needle(
        &[I("panic"), P("!")],
        "`panic!` reachable from a provisioning hot path: return an error instead \
         of aborting provisioning",
    ),
    needle(
        &[I("unreachable"), P("!")],
        "`unreachable!` reachable from a provisioning hot path: return an error — \
         \"unreachable\" claims need the type system, not a runtime abort",
    ),
    needle(
        &[I("todo"), P("!")],
        "`todo!` reachable from a provisioning hot path",
    ),
    needle(
        &[I("unimplemented"), P("!")],
        "`unimplemented!` reachable from a provisioning hot path",
    ),
    Needle {
        pat: &[P("[")],
        msg: "indexing (`x[i]`) reachable from a provisioning hot path can panic on \
              out-of-bounds/missing keys: use `.get()` and propagate the miss",
        guard: Some(is_index_expr),
        fn_body_only: true,
    },
];

const PRINT_NEEDLES: &[Needle] = &[
    needle(
        &[I("println"), P("!")],
        "`println!` in library code: return data to the caller (bench bins own stdout)",
    ),
    needle(
        &[I("print"), P("!")],
        "`print!` in library code: return data to the caller (bench bins own stdout)",
    ),
    needle(
        &[I("eprintln"), P("!")],
        "`eprintln!` in library code: surface errors through the error type",
    ),
    needle(
        &[I("eprint"), P("!")],
        "`eprint!` in library code: surface errors through the error type",
    ),
    needle(&[I("dbg"), P("!")], "`dbg!` left in library code"),
];

const SHARD_ORDER_NEEDLES: &[Needle] = &[
    needle(
        &[I("HashMap")],
        "`HashMap` in a shard-reachable path: cross-shard event order must come from \
         the `(time, actor, seq)` key, never from hash-iteration order — use \
         `BTreeMap` or an explicitly sorted structure",
    ),
    needle(
        &[I("HashSet")],
        "`HashSet` in a shard-reachable path: cross-shard event order must come from \
         the `(time, actor, seq)` key, never from hash-iteration order — use \
         `BTreeSet` or an explicitly sorted structure",
    ),
    needle(
        &[I("rayon")],
        "`rayon` in a shard-reachable path: scheduling-order-dependent parallelism \
         leaks thread count into outputs — use the deterministic barrier merge \
         (`std::thread::scope` over fixed shard chunks)",
    ),
    needle(
        &[P("."), I("par_iter")],
        "`.par_iter()` in a shard-reachable path: parallel iteration order is \
         scheduler-dependent — merge shard results in `(time, actor, seq)` order",
    ),
    needle(
        &[P("."), I("into_par_iter")],
        "`.into_par_iter()` in a shard-reachable path: parallel iteration order is \
         scheduler-dependent — merge shard results in `(time, actor, seq)` order",
    ),
    needle(
        &[P("."), I("par_bridge")],
        "`.par_bridge()` in a shard-reachable path: destroys even source order — merge \
         shard results in `(time, actor, seq)` order",
    ),
    needle(
        &[P("."), I("reduce"), P("(")],
        "`.reduce()` in a shard-reachable path: reduction grouping must not be \
         observable — fold shard results in a fixed order (e.g. by shard id) so \
         float/overflow effects are identical on every thread count",
    ),
];

const FLOAT_ORDER_NEEDLES: &[Needle] = &[
    needle(
        &[P("."), I("fold"), P("(")],
        "float accumulation (`.fold`) in a sim-visible fn handling f32/f64: float \
         addition is not associative, so accumulation order is part of the \
         determinism contract — fix the iteration order explicitly (sorted keys, \
         shard id) or accumulate in integer units",
    ),
    needle(
        &[P("."), I("sum"), P("(")],
        "float accumulation (`.sum`) in a sim-visible fn handling f32/f64: float \
         addition is not associative — fix the iteration order explicitly or \
         accumulate in integer units",
    ),
    needle(
        &[P("."), I("sum"), P("::")],
        "float accumulation (`.sum::<f..>`) in a sim-visible fn: float addition is \
         not associative — fix the iteration order explicitly or accumulate in \
         integer units",
    ),
    needle(
        &[P("."), I("product"), P("(")],
        "float accumulation (`.product`) in a sim-visible fn handling f32/f64: \
         multiplication order affects rounding — fix the iteration order explicitly",
    ),
    needle(
        &[P("."), I("reduce"), P("(")],
        "float accumulation (`.reduce`) in a sim-visible fn handling f32/f64: \
         reduction grouping affects rounding — fold in a fixed order instead",
    ),
];

const SHARD_STATE_NEEDLES: &[Needle] = &[
    needle(
        &[I("static"), I("mut")],
        "`static mut` in a shard-reachable path: shared mutable state across shard \
         workers is a data race and an ordering leak — keep state per-actor or \
         merge per-shard results deterministically",
    ),
    needle(
        &[I("Mutex")],
        "`Mutex` in a shard-reachable path: lock acquisition order is \
         scheduler-dependent and leaks thread interleaving into outputs — keep \
         state per-shard and merge in `(time, actor, seq)` order",
    ),
    needle(
        &[I("RwLock")],
        "`RwLock` in a shard-reachable path: lock acquisition order is \
         scheduler-dependent — keep state per-shard and merge deterministically",
    ),
    needle(
        &[I("OnceLock")],
        "`OnceLock` in a shard-reachable path: first-writer-wins initialisation is \
         a thread race — initialise before parallel stepping starts",
    ),
    needle(
        &[I("Ordering"), P("::"), I("Relaxed")],
        "non-SeqCst atomic (`Ordering::Relaxed`) in a shard-reachable path: relaxed \
         loads can observe different interleavings per run — use `SeqCst` or \
         per-shard counters merged after the barrier",
    ),
    needle(
        &[I("Ordering"), P("::"), I("Acquire")],
        "non-SeqCst atomic (`Ordering::Acquire`) in a shard-reachable path: use \
         `SeqCst` or per-shard counters merged after the barrier",
    ),
    needle(
        &[I("Ordering"), P("::"), I("Release")],
        "non-SeqCst atomic (`Ordering::Release`) in a shard-reachable path: use \
         `SeqCst` or per-shard counters merged after the barrier",
    ),
    needle(
        &[I("Ordering"), P("::"), I("AcqRel")],
        "non-SeqCst atomic (`Ordering::AcqRel`) in a shard-reachable path: use \
         `SeqCst` or per-shard counters merged after the barrier",
    ),
];

const EXIT_NEEDLES: &[Needle] = &[needle(
    &[I("process"), P("::"), I("exit")],
    "`process::exit` outside a bin target: skips destructors and kills the host \
     process — return a `Result` and let `main` decide",
)];

fn applies_wallclock(ctx: &RuleCtx) -> bool {
    // `crit` is the sanctioned wall-clock shim (the vendored criterion
    // stand-in *measures* real time by design).
    ctx.file.krate.as_deref() != Some("crit")
}

fn applies_unordered(ctx: &RuleCtx) -> bool {
    ctx.kind == FileKind::Lib && ctx.flags.sim
}

fn applies_ambient_rng(_ctx: &RuleCtx) -> bool {
    true
}

fn applies_panic_reachable(ctx: &RuleCtx) -> bool {
    ctx.kind == FileKind::Lib && ctx.flags.hot
}

fn applies_print(ctx: &RuleCtx) -> bool {
    ctx.kind == FileKind::Lib
}

fn applies_shard_order(ctx: &RuleCtx) -> bool {
    ctx.kind == FileKind::Lib && ctx.flags.shard
}

fn applies_float_order(ctx: &RuleCtx) -> bool {
    ctx.kind == FileKind::Lib && ctx.flags.sim && ctx.flags.float_fn
}

fn applies_shard_state(ctx: &RuleCtx) -> bool {
    ctx.kind == FileKind::Lib && ctx.flags.shard
}

fn applies_exit(ctx: &RuleCtx) -> bool {
    !matches!(ctx.kind, FileKind::Bin | FileKind::Example)
}

fn applies_always(_ctx: &RuleCtx) -> bool {
    true
}

/// The rule catalog, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "wallclock-ban",
        summary: "no Instant::now / SystemTime::now / thread::sleep outside the crit shim",
        explain: "Simulated components must take time from `Sim::now()` and schedule \
                  on the event queue; any wall-clock read makes runs diverge between \
                  machines and between same-seed repetitions. Applies to every file \
                  in every target kind. The single exemption is the `crit` crate \
                  (the vendored criterion shim), which measures real time by design.",
        needles: WALLCLOCK_NEEDLES,
        applies: applies_wallclock,
    },
    Rule {
        name: "unordered-iter",
        summary: "no HashMap/HashSet in sim-reachable library code (seed-stable iteration)",
        explain: "Scope is COMPUTED, not declared: a token is patrolled when its \
                  enclosing fn is reachable from a simulation entry point (Sim/\
                  ShardSim/EventCtx impls, Scenario impls, schedulers) over the \
                  workspace call graph, or — for item-level tokens such as struct \
                  fields and use declarations — when the file's crate contains \
                  sim-reachable code. Hash iteration order is unspecified, so any \
                  HashMap/HashSet that feeds a snapshot, transcript or report \
                  breaks byte-identical same-seed runs. Use BTreeMap/BTreeSet, or \
                  sort before iterating and pragma the declaration with a \
                  justification.",
        needles: UNORDERED_NEEDLES,
        applies: applies_unordered,
    },
    Rule {
        name: "ambient-rng",
        summary: "no OS-seeded randomness anywhere; all entropy flows from simkit::rng",
        explain: "All randomness must derive from the scenario seed through \
                  `simkit::rng::DetRng`. OS entropy (RandomState, thread_rng, \
                  OsRng, getrandom, from_entropy, rand::random) breaks replay. \
                  Applies everywhere, including tests and bins: a bench bin that \
                  seeds from the OS produces unpinnable numbers.",
        needles: AMBIENT_RNG_NEEDLES,
        applies: applies_ambient_rng,
    },
    Rule {
        name: "panic-reachable",
        summary: "no unwrap/expect/panic!/indexing reachable from core's provisioning surface",
        explain: "Scope is COMPUTED from the call graph: the taint starts at every \
                  public fn of the `core` crate (the middleware surface a phone \
                  application calls) and propagates through resolved calls — \
                  including dyn-trait impls in dependent crates. A panic site \
                  (unwrap/expect/panic!/unreachable!/todo!/unimplemented!/indexing) \
                  on that taint aborts provisioning for every query on the phone; \
                  propagate a ContoryError instead, or `.get()` instead of \
                  indexing. Panic sites NOT on the taint (bin-only helpers, \
                  construction-time code) need no pragma — this replaces the old \
                  crate-list `no-unwrap-in-core` rule.",
        needles: PANIC_NEEDLES,
        applies: applies_panic_reachable,
    },
    Rule {
        name: "no-print-in-lib",
        summary: "no println!/eprintln!/dbg! in library code (bins and benches exempt)",
        explain: "Library layers return data; bench bins own stdout. A stray \
                  println! in a provisioning layer corrupts machine-read bench \
                  output and the determinism transcripts.",
        needles: PRINT_NEEDLES,
        applies: applies_print,
    },
    Rule {
        name: "shard-visible-order",
        summary: "no hash-order or scheduler-order dependence in shard-reachable paths",
        explain: "Scope is COMPUTED: reachable from the partitioned engine's \
                  parallel stepping (ShardSim/EventCtx impl methods, fns driving a \
                  ShardSim, callers of schedule_self/send_many). Cross-shard \
                  event order must come from the `(time, actor, seq)` key only: \
                  hash iteration, rayon-style parallel iteration and unordered \
                  `.reduce()` grouping all leak shard/thread count into outputs, \
                  breaking the byte-identity gate across {1,4,16} shards.",
        needles: SHARD_ORDER_NEEDLES,
        applies: applies_shard_order,
    },
    Rule {
        name: "float-order",
        summary: "no f32/f64 fold/sum/product/reduce accumulation in sim-visible fns",
        explain: "Float addition and multiplication are not associative: the same \
                  multiset of values accumulated in two different orders produces \
                  two different bit patterns, which the byte-identity transcript \
                  gate then catches — or worse, doesn't, until shard counts change. \
                  The rule fires on `.fold`/`.sum`/`.product`/`.reduce` inside \
                  sim-reachable fns whose signature or body mentions f32/f64. Fix \
                  by accumulating in integer units (micro-joules, millimetres), \
                  fixing the iteration order explicitly (sorted keys, shard id), \
                  or pragma with a justification for why the order is already \
                  deterministic.",
        needles: FLOAT_ORDER_NEEDLES,
        applies: applies_float_order,
    },
    Rule {
        name: "shard-shared-state",
        summary: "no static mut / locks / non-SeqCst atomics in shard-reachable paths",
        explain: "Scope is COMPUTED (same taint as shard-visible-order). State \
                  shared across shard workers — `static mut`, `Mutex`, `RwLock`, \
                  `OnceLock`, atomics with non-SeqCst orderings — makes outputs \
                  depend on thread interleaving, violating the thread-count \
                  invariance the shard gate pins. Keep state per-actor or \
                  per-shard and merge after the barrier in `(time, actor, seq)` \
                  order; counters that genuinely must be shared use SeqCst and a \
                  pragma explaining why the value is order-insensitive.",
        needles: SHARD_STATE_NEEDLES,
        applies: applies_shard_state,
    },
    Rule {
        name: "no-exit",
        summary: "no process::exit outside bin targets and examples",
        explain: "`process::exit` skips destructors and kills the host process \
                  from library code; return a Result and let `main` decide.",
        needles: EXIT_NEEDLES,
        applies: applies_exit,
    },
    Rule {
        name: "unused-pragma",
        summary: "every lint:allow pragma must suppress at least one live diagnostic",
        explain: "Pragma hygiene, computed by the engine after all other rules: a \
                  `// lint:allow(<rule>)` that names an unknown rule, or that \
                  suppresses no diagnostic under the current reachability (e.g. an \
                  audited unwrap that panic-reachable now proves unreachable from \
                  hot paths), is itself a finding. Stale pragmas hide real future \
                  violations on the same line — delete them. Never pinnable in the \
                  ratchet baseline.",
        needles: &[],
        applies: applies_always,
    },
];

/// Looks up a rule by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Returns the indices (into `tokens`) where `needle` matches.
pub fn find_matches(tokens: &[Tok], needle: &Needle) -> Vec<usize> {
    let pat = needle.pat;
    if pat.is_empty() || tokens.len() < pat.len() {
        return Vec::new();
    }
    let mut hits = Vec::new();
    'outer: for start in 0..=(tokens.len() - pat.len()) {
        for (m, tok) in pat.iter().zip(&tokens[start..]) {
            if !m.matches(tok) {
                continue 'outer;
            }
        }
        if let Some(guard) = needle.guard {
            if !guard(tokens, start) {
                continue;
            }
        }
        hits.push(start);
    }
    hits
}

/// Computes, per token index, whether it falls inside a `#[cfg(test)]`
/// item body. Such regions are re-classified as [`FileKind::Test`] when
/// evaluating rule applicability.
pub fn cfg_test_regions(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    // armed: Some(attr_depth) once `#[cfg(test)]` was seen and we are
    // waiting for the item's opening brace at the same nesting depth.
    let mut armed: Option<i32> = None;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("#")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct("("))
            && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && tokens.get(i + 5).is_some_and(|t| t.is_punct(")"))
            && tokens.get(i + 6).is_some_and(|t| t.is_punct("]"))
        {
            armed = Some(depth);
            i += 7;
            continue;
        }
        match t.text.as_str() {
            "{" if t.kind == TokKind::Punct => {
                if armed == Some(depth) {
                    armed = None;
                    // Scan forward for the matching close brace.
                    let start = i;
                    let mut d = 0i32;
                    let mut j = i;
                    while j < tokens.len() {
                        let u = &tokens[j];
                        if u.kind == TokKind::Punct {
                            if u.text == "{" {
                                d += 1;
                            } else if u.text == "}" {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                        }
                        j += 1;
                    }
                    regions.push((start, j.min(tokens.len().saturating_sub(1))));
                }
                depth += 1;
            }
            "}" if t.kind == TokKind::Punct => {
                depth -= 1;
            }
            ";" if t.kind == TokKind::Punct => {
                // `#[cfg(test)] use …;` — attribute applied to a
                // braceless item at this depth: disarm.
                if armed == Some(depth) {
                    armed = None;
                }
            }
            _ => {}
        }
        i += 1;
    }
    regions
}
