//! The per-file lexical rules (the call-graph rule families live in
//! [`crate::flow`]).
//!
//! Every rule pattern-matches the *sanitized* token stream from
//! [`crate::source`] — string literals, char literals, and comments can
//! never fire a rule. Rules are heuristic by design: they over-approximate
//! (a provably harmless match is silenced with an allow directive that
//! must carry a reason) and the fixture corpus in `tests/fixtures/`
//! pins both directions of every rule.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::source::{Line, SourceFile};

/// What part of a crate a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` — library (or binary) code.
    Lib,
    /// `tests/` integration tests.
    Test,
    /// `benches/` benchmark targets.
    Bench,
    /// `examples/`.
    Example,
}

/// Per-file context the engine hands to the rules.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Name of the owning crate (from its `Cargo.toml`).
    pub crate_name: String,
    /// Which target tree the file lives in.
    pub kind: FileKind,
}

/// One finding, pre-suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (one of [`RULES`], or a meta rule).
    pub rule: &'static str,
    /// 1-based line.
    pub line: usize,
    /// Human-readable message with the remedy.
    pub message: String,
    /// Extra evidence lines (call chains, taint paths) shown by
    /// `--explain`.
    pub notes: Vec<String>,
}

impl Violation {
    /// A note-less finding (the common case for lexical rules).
    pub fn new(rule: &'static str, line: usize, message: String) -> Violation {
        Violation { rule, line, message, notes: Vec::new() }
    }
}

/// Static description of one rule, for `--list-rules` and the README.
pub struct RuleInfo {
    /// Rule name as used in config and allow directives.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Name of the std-hasher-in-hot-path rule.
pub const STD_HASH: &str = "std-hash-in-hot-path";
/// Name of the nondeterministic-source rule.
pub const NONDET_SOURCE: &str = "nondeterministic-source";
/// Name of the narrowing-cast rule.
pub const NARROWING_CAST: &str = "narrowing-cast";
/// Name of the unwrap/expect/panic-in-library rule.
pub const UNWRAP_IN_LIB: &str = "unwrap-in-lib";
/// Name of the undocumented-unsafe rule.
pub const UNDOCUMENTED_UNSAFE: &str = "undocumented-unsafe";
/// Name of the bare thread-join rule.
pub const BARE_JOIN_EXPECT: &str = "bare-join-expect";
/// Name of the catch_unwind audit rule.
pub const CATCH_UNWIND_AUDIT: &str = "catch-unwind-audit";
pub use crate::flow::{DETERMINISM_TAINT, PANIC_ON_WORKER_PATH, UNMETERED_LOOP};

/// Meta rule: malformed or reasonless allow directives.
pub const BAD_ALLOW: &str = "bad-allow";
/// Meta rule: allow directives that suppress nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// The configurable rules (meta rules are always on).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: STD_HASH,
        summary: "std::collections::HashMap/HashSet in hot-path crates must be the \
                  ts-storage FastMap/FastSet aliases",
    },
    RuleInfo {
        name: NONDET_SOURCE,
        summary: "Instant::now/SystemTime::now/ad-hoc RNG in catalog-construction code \
                  is a nondeterminism source",
    },
    RuleInfo {
        name: NARROWING_CAST,
        summary: "bare `as u8/u16/u32/i8/i16/i32` in offset/interner math must use the \
                  checked ts_storage::cast helpers (or an infallible `T::from`)",
    },
    RuleInfo {
        name: UNWRAP_IN_LIB,
        summary: "unwrap/expect/panic! in non-test library code must become an error \
                  path or justify its infallibility",
    },
    RuleInfo {
        name: UNDOCUMENTED_UNSAFE,
        summary: "`unsafe` requires a `// SAFETY:` comment on or directly above it",
    },
    RuleInfo {
        name: BARE_JOIN_EXPECT,
        summary: "`JoinHandle::join().expect(..)`/`.unwrap()` re-raises a worker panic in \
                  the joining thread; collect the join Results and surface a typed error",
    },
    RuleInfo {
        name: CATCH_UNWIND_AUDIT,
        summary: "every `catch_unwind` site is a panic-isolation boundary and must carry \
                  an allow directive auditing what it confines and where failures go",
    },
    RuleInfo {
        name: UNMETERED_LOOP,
        summary: "a loop in an operator/driver body must reach a Work budget poll \
                  (tick/count_row) within the configured call-graph hops, or the \
                  deadline/cancel machinery starves",
    },
    RuleInfo {
        name: PANIC_ON_WORKER_PATH,
        summary: "panic sites (unwrap/expect/panic!) transitively reachable from the \
                  server worker entry points ride the per-query isolation boundary \
                  and must become errors or carry a reasoned allow",
    },
    RuleInfo {
        name: DETERMINISM_TAINT,
        summary: "data iterated out of a FastMap/FastSet/HashMap must pass a sort \
                  (or an order-insensitive reduction) before reaching a \
                  catalog/serialization sink",
    },
];

/// True when `name` is a configurable or meta rule.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name) || name == BAD_ALLOW || name == UNUSED_ALLOW
}

/// A minimal token: identifiers/numbers vs. single punctuation chars.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Word(String),
    Punct(char),
}

impl Tok {
    fn word(&self) -> Option<&str> {
        match self {
            Tok::Word(w) => Some(w),
            Tok::Punct(_) => None,
        }
    }

    fn is(&self, w: &str) -> bool {
        self.word() == Some(w)
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(self, Tok::Punct(p) if *p == c)
    }
}

/// Tokenize one sanitized line (whitespace dropped).
fn toks(code: &str) -> Vec<Tok> {
    let mut out = Vec::new();
    let mut word = String::new();
    for c in code.chars() {
        if c.is_alphanumeric() || c == '_' {
            word.push(c);
        } else {
            if !word.is_empty() {
                out.push(Tok::Word(std::mem::take(&mut word)));
            }
            if !c.is_whitespace() {
                out.push(Tok::Punct(c));
            }
        }
    }
    if !word.is_empty() {
        out.push(Tok::Word(word));
    }
    out
}

/// [`active`] addressed by 1-based line number — the form the
/// call-graph rules in [`crate::flow`] need.
pub(crate) fn line_active(
    cfg: &Config,
    ctx: &FileCtx,
    rule: &str,
    src: &SourceFile,
    n: usize,
) -> bool {
    src.line(n).is_some_and(|l| active(cfg, ctx, rule, l))
}

/// Should this (line, rule) combination be checked at all?
fn active(cfg: &Config, ctx: &FileCtx, rule: &str, line: &Line) -> bool {
    let Some(scope) = cfg.rules.get(rule) else {
        return false;
    };
    if !scope.covers(&ctx.crate_name) {
        return false;
    }
    if scope.include_tests {
        return true;
    }
    ctx.kind == FileKind::Lib && !line.in_test
}

/// Run every configured rule over one file.
pub fn run_rules(file: &SourceFile, ctx: &FileCtx, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();
    std_hash(file, ctx, cfg, &mut out);
    nondet_source(file, ctx, cfg, &mut out);
    narrowing_cast(file, ctx, cfg, &mut out);
    unwrap_in_lib(file, ctx, cfg, &mut out);
    undocumented_unsafe(file, ctx, cfg, &mut out);
    bare_join_expect(file, ctx, cfg, &mut out);
    catch_unwind_audit(file, ctx, cfg, &mut out);
    out.sort_by_key(|v| v.line);
    out
}

// ---------------------------------------------------------------- rules

const MAP_TYPES: [&str; 4] = ["FastMap", "FastSet", "HashMap", "HashSet"];

/// Collect names declared (or typed) as one of the four map types:
/// `name: FastMap<..>` (lets, fields, params) and
/// `let [mut] name = .. FastMap::..`. Shared with the taint rule in
/// [`crate::flow`].
pub(crate) fn collect_map_names(file: &SourceFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for line in &file.lines {
        let t = toks(&line.code);
        for i in 0..t.len() {
            let Some(w) = t[i].word() else {
                continue;
            };
            if !MAP_TYPES.contains(&w) {
                continue;
            }
            // Type position: walk back over `path::` segments, `&`,
            // `mut`, and lifetimes to the `:` that annotates the name.
            let mut j = i;
            loop {
                if j >= 3 && t[j - 1].is_punct(':') && t[j - 2].is_punct(':') {
                    j -= 3; // `ident ::`
                } else if j >= 1 && (t[j - 1].is_punct('&') || t[j - 1].is("mut")) {
                    j -= 1;
                } else if j >= 2 && t[j - 2].is_punct('\'') && t[j - 1].word().is_some() {
                    j -= 2; // `'a`
                } else {
                    break;
                }
            }
            if j >= 2 && t[j - 1].is_punct(':') && !t[j - 2].is_punct(':') {
                if let Some(name) = t[j - 2].word() {
                    names.insert(name.to_string());
                    continue;
                }
            }
            // Initializer position: `let [mut] name = .. FastMap..`.
            if let Some(let_pos) = t[..i].iter().position(|x| x.is("let")) {
                let mut k = let_pos + 1;
                if t.get(k).is_some_and(|x| x.is("mut")) {
                    k += 1;
                }
                if let Some(Tok::Word(name)) = t.get(k) {
                    if t.get(k + 1).is_some_and(|x| x.is_punct('=')) {
                        names.insert(name.clone());
                    }
                }
            }
        }
    }
    names
}

fn std_hash(file: &SourceFile, ctx: &FileCtx, cfg: &Config, out: &mut Vec<Violation>) {
    // Multi-line `use std::collections::{ ... }` groups: the opening
    // line carries the path, members sit on their own lines.
    let mut in_group = false;
    for (idx, line) in file.lines.iter().enumerate() {
        let n = idx + 1;
        if !active(cfg, ctx, STD_HASH, line) {
            in_group = false;
            continue;
        }
        let code = &line.code;
        let opens = code.contains("std::collections::");
        let named = |c: &str| toks(c).iter().any(|t| t.is("HashMap") || t.is("HashSet"));
        let fire = (opens || in_group) && named(code);
        if fire {
            out.push(Violation {
                rule: STD_HASH,
                notes: Vec::new(),
                line: n,
                message: "std HashMap/HashSet in a hot-path crate: use the \
                          ts_storage::{FastMap, FastSet} aliases (SipHash costs real wall \
                          clock on trusted keys), or allow with a written reason"
                    .to_string(),
            });
        }
        if opens && code.contains('{') && !code.contains('}') {
            in_group = true;
        } else if in_group && (code.contains('}') || code.contains(';')) {
            in_group = false;
        }
    }
}

const NONDET_PATTERNS: [&str; 6] = [
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
    "rand::random",
    "RandomState::new",
];

fn nondet_source(file: &SourceFile, ctx: &FileCtx, cfg: &Config, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !active(cfg, ctx, NONDET_SOURCE, line) {
            continue;
        }
        if let Some(p) = NONDET_PATTERNS.iter().find(|p| line.code.contains(*p)) {
            out.push(Violation {
                rule: NONDET_SOURCE,
                notes: Vec::new(),
                line: idx + 1,
                message: format!(
                    "`{p}` is a nondeterminism source in catalog-construction code; plumb \
                     seeds/clocks in from the caller, or allow with a reason explaining why \
                     it cannot reach catalog bytes"
                ),
            });
        }
    }
}

const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

fn narrowing_cast(file: &SourceFile, ctx: &FileCtx, cfg: &Config, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !active(cfg, ctx, NARROWING_CAST, line) {
            continue;
        }
        let t = toks(&line.code);
        for i in 0..t.len().saturating_sub(1) {
            if t[i].is("as") {
                if let Some(target) = t[i + 1].word() {
                    if NARROW_TARGETS.contains(&target) {
                        out.push(Violation {
                            rule: NARROWING_CAST,
                            notes: Vec::new(),
                            line: idx + 1,
                            message: format!(
                                "bare `as {target}` can truncate silently; use the checked \
                                 ts_storage::cast helpers (debug_assert in-range) for \
                                 narrowing, or `{target}::from(..)` when the source type \
                                 makes it infallible"
                            ),
                        });
                        break; // one finding per line keeps allows line-shaped
                    }
                }
            }
        }
    }
}

const PANIC_PATTERNS: [&str; 6] =
    [".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

fn unwrap_in_lib(file: &SourceFile, ctx: &FileCtx, cfg: &Config, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !active(cfg, ctx, UNWRAP_IN_LIB, line) {
            continue;
        }
        if let Some(p) = PANIC_PATTERNS.iter().find(|p| line.code.contains(*p)) {
            out.push(Violation {
                rule: UNWRAP_IN_LIB,
                notes: Vec::new(),
                line: idx + 1,
                message: format!(
                    "`{}` in library code can abort the whole build/serve path; return an \
                     error, restructure so the invariant is by construction, or allow with \
                     the reason it cannot fail",
                    p.trim_start_matches('.').trim_end_matches('(')
                ),
            });
        }
    }
}

fn undocumented_unsafe(file: &SourceFile, ctx: &FileCtx, cfg: &Config, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !active(cfg, ctx, UNDOCUMENTED_UNSAFE, line) {
            continue;
        }
        if !toks(&line.code).iter().any(|t| t.is("unsafe")) {
            continue;
        }
        // Documented if this line carries a SAFETY: comment, or if the
        // contiguous run of comment-only lines directly above contains
        // one (a multi-line SAFETY block counts as a whole).
        let mut documented = line.comment.contains("SAFETY:");
        let mut i = idx;
        while !documented && i > 0 {
            i -= 1;
            let above = &file.lines[i];
            if !above.code.trim().is_empty() || above.comment.is_empty() {
                break;
            }
            documented = above.comment.contains("SAFETY:");
        }
        if !documented {
            out.push(Violation {
                rule: UNDOCUMENTED_UNSAFE,
                notes: Vec::new(),
                line: idx + 1,
                message: "`unsafe` without a `// SAFETY:` comment on or directly above it; \
                          state the invariant that makes this sound"
                    .to_string(),
            });
        }
    }
}

/// Argless `.join()` is what disambiguates a thread join from
/// `Path::join`/`slice::join`, both of which take an argument.
const JOIN_PATTERNS: [&str; 2] = [".join().expect(", ".join().unwrap()"];

fn bare_join_expect(file: &SourceFile, ctx: &FileCtx, cfg: &Config, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !active(cfg, ctx, BARE_JOIN_EXPECT, line) {
            continue;
        }
        if let Some(p) = JOIN_PATTERNS.iter().find(|p| line.code.contains(*p)) {
            out.push(Violation {
                rule: BARE_JOIN_EXPECT,
                notes: Vec::new(),
                line: idx + 1,
                message: format!(
                    "`{p}..)` re-raises a worker panic in the joining thread, aborting the \
                     whole batch; collect the join Results and surface a typed error (as \
                     try_compute_catalog does), or allow with the reason the worker cannot \
                     panic"
                ),
            });
        }
    }
}

fn catch_unwind_audit(file: &SourceFile, ctx: &FileCtx, cfg: &Config, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !active(cfg, ctx, CATCH_UNWIND_AUDIT, line) {
            continue;
        }
        if line.code.contains("catch_unwind(") {
            out.push(Violation {
                rule: CATCH_UNWIND_AUDIT,
                notes: Vec::new(),
                line: idx + 1,
                message: "`catch_unwind` erects a panic-isolation boundary that must be \
                          audited: allow with a reason stating what can panic inside, why \
                          the closure is unwind-safe, and how the failure is reported onward"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_splits_words_and_puncts() {
        let t = toks("let x: FastMap<u32, Vec<u8>> = FastMap::default();");
        assert!(t.iter().any(|x| x.is("FastMap")));
        assert!(t.iter().any(|x| x.is_punct('<')));
        assert!(!t.iter().any(|x| x.is("FastMap<")));
    }

    #[test]
    fn map_names_from_types_fields_and_lets() {
        let f = SourceFile::parse(
            "struct S { index: FastMap<u32, u32>, other: Vec<u8> }\n\
             fn f(seen: &mut ts_storage::FastSet<u64>) {}\n\
             let mut acc = HashMap::new();\n",
        );
        let names = collect_map_names(&f);
        assert!(names.contains("index"));
        assert!(names.contains("seen"));
        assert!(names.contains("acc"));
        assert!(!names.contains("other"));
    }
}
