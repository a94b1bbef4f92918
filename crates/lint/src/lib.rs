//! # ts-lint
//!
//! The workspace checks that need a call graph. Everything a single
//! line or a type can decide — panics in library code, truncating
//! casts, std's SipHash maps, clock reads, `catch_unwind` and thread
//! joins, undocumented `unsafe` — is a clippy lint, scoped per crate by
//! a `#![deny(..)]` in that crate's `lib.rs` (lists in the root
//! `clippy.toml`; `docs/LINTS.md` has the map). What clippy cannot see
//! is a property of *paths through the workspace*, and that is this
//! crate's job.
//!
//! A dependency-free, hand-rolled lexer ([`source`]) feeds a total
//! (never-panicking) recursive-descent item parser ([`parse`]) and a
//! workspace symbol table with a conservative name-resolution call
//! graph ([`graph`]). Two rules walk that graph ([`flow`]):
//! budget-poll discipline in operator loops (`unmetered-loop`) and
//! panic reachability from the server worker path
//! (`panic-on-worker-path`).
//!
//! Run it over the workspace with:
//!
//! ```text
//! cargo run -p ts-lint --release -- .
//! ```
//!
//! Each rule's scope is a constant beside its code. A finding is
//! silenced inline with an allow directive that must carry a reason
//! (`lint: allow(<rule>): <reason>` in a `//` comment on, or directly
//! above, the offending line). Directives are themselves linted
//! ([`engine`]): a missing reason or unknown rule is `bad-allow`, and a
//! directive that suppresses nothing is `unused-allow`, so the
//! suppression inventory can never rot silently.
//!
//! The linter holds itself to the discipline it enforces: every
//! container it iterates for output is ordered (`BTreeMap`, sorted
//! `Vec`), so its reports are byte-identical run to run.

#![forbid(unsafe_code)]
// Lint scope: audited clocks/joins/catch_unwind (list in the root
// clippy.toml; see docs/LINTS.md). A suppression is
// `#[expect(<lint>, reason = "..")]`.
#![deny(
    clippy::disallowed_methods,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod engine;
pub mod flow;
pub mod graph;
pub mod parse;
pub mod rules;
pub mod source;

pub use engine::{build_workspace, lint_built, lint_source, lint_workspace, Finding, Report};
pub use graph::{FnId, Workspace, WsFile};
pub use parse::ItemTree;
pub use rules::{FileCtx, FileKind, RuleInfo, Violation, META_RULES, RULES};
pub use source::{Allow, SourceFile};
