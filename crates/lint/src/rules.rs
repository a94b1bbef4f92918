//! The rule registry and the types findings are made of. The two rules
//! themselves walk the call graph and live in [`crate::flow`]; the two
//! meta rules audit allow directives in [`crate::engine`].

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
    /// Extra evidence lines (call chains), printed under the finding.
    pub notes: Vec<String>,
}

impl Violation {
    /// A note-less finding (the meta rules' case).
    pub fn new(rule: &'static str, line: usize, message: String) -> Violation {
        Violation { rule, line, message, notes: Vec::new() }
    }
}

/// Static description of one rule, for `--list-rules` and the docs.
pub struct RuleInfo {
    /// Rule name as used in allow directives.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

pub use crate::flow::{PANIC_ON_WORKER_PATH, UNMETERED_LOOP};

/// Meta rule: malformed or reasonless allow directives.
pub const BAD_ALLOW: &str = "bad-allow";
/// Meta rule: allow directives that suppress nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// The call-graph rules (the meta rules are listed separately).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: UNMETERED_LOOP,
        summary: "a loop in an operator/driver body must reach a Work budget poll \
                  (tick/count_row) within two call-graph hops, or the \
                  deadline/cancel machinery starves",
    },
    RuleInfo {
        name: PANIC_ON_WORKER_PATH,
        summary: "panic sites (unwrap/expect/panic!) transitively reachable from the \
                  server worker entry points ride the per-query isolation boundary \
                  and must become errors or carry a reasoned allow",
    },
];

/// The meta rules, always on.
pub const META_RULES: &[RuleInfo] = &[
    RuleInfo {
        name: BAD_ALLOW,
        summary: "allow directive without a reason, or naming an unknown rule",
    },
    RuleInfo { name: UNUSED_ALLOW, summary: "allow directive that suppresses nothing" },
];

/// True when `name` is a call-graph or meta rule.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().chain(META_RULES).any(|r| r.name == name)
}
