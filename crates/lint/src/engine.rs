//! Workspace walking, suppression, and reporting.
//!
//! The engine owns everything around the rules: finding `.rs` files
//! (deterministically — directory entries are sorted, findings are
//! ordered by path and line), attributing each file to its crate via
//! the nearest `Cargo.toml`, applying allow directives, and enforcing
//! the two meta rules: `bad-allow` (a directive naming an unknown rule,
//! or carrying no reason) and `unused-allow` (a directive that
//! suppressed nothing — stale suppressions rot the audit trail).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::flow::run_flow_rules;
use crate::graph::{Workspace, WsFile};
use crate::parse::ItemTree;
use crate::rules::{is_known_rule, FileCtx, FileKind, Violation, BAD_ALLOW, UNUSED_ALLOW};
use crate::source::SourceFile;

/// One reported finding, located in a file.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path as scanned (relative to the workspace root).
    pub path: String,
    /// Underlying violation.
    pub violation: Violation,
    /// Raw text of the offending line, trimmed, for the excerpt.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: {}: {}",
            self.path, self.violation.line, self.violation.rule, self.violation.message
        )?;
        write!(f, "    | {}", self.excerpt)?;
        for note in &self.violation.notes {
            write!(f, "\n    = {note}")?;
        }
        Ok(())
    }
}

/// Result of a workspace (or single-source) lint pass.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Files scanned.
    pub files: usize,
    /// Findings that survived suppression, ordered by (path, line).
    pub findings: Vec<Finding>,
}

impl Report {
    /// True when the tree is lint-clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Never scanned, matched as a repo-relative path or (slash-free
/// entries) as a file or directory name anywhere: build output, the
/// vendored stand-in crates (external API surface, not ours), VCS
/// state, and this crate's deliberately violating fixture corpus.
const SKIP: &[&str] = &["target", "vendor", ".git", "crates/lint/tests/fixtures"];

/// Lint one in-memory source. `path_label` is used in findings; `ctx`
/// supplies the crate attribution the workspace walk would have
/// derived. This is the fixture corpus' entry point: the file is linted
/// as a single-file workspace, so the call-graph rules resolve calls
/// within it.
pub fn lint_source(path_label: &str, text: &str, ctx: &FileCtx) -> Vec<Finding> {
    let src = SourceFile::parse(text);
    let items = ItemTree::parse(&src);
    let ws = Workspace::build(vec![WsFile {
        path: path_label.to_string(),
        ctx: ctx.clone(),
        src,
        items,
    }]);
    lint_built(&ws).findings
}

/// Lint every `.rs` file under `root` outside the skip list. Findings
/// come back ordered by (path, line).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint_built(&build_workspace(root)?))
}

/// Phase one: parse every `.rs` file under `root` into the workspace
/// model (files sorted by path, symbol table and call graph resolved).
pub fn build_workspace(root: &Path) -> io::Result<Workspace> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut crate_names: BTreeMap<PathBuf, Option<String>> = BTreeMap::new();
    let mut ws_files = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let text = fs::read_to_string(&path)?;
        let ctx = FileCtx {
            crate_name: crate_name_for(root, &path, &mut crate_names)
                .unwrap_or_else(|| "unknown".to_string()),
            kind: file_kind(rel),
        };
        let src = SourceFile::parse(&text);
        let items = ItemTree::parse(&src);
        ws_files.push(WsFile { path: path_to_slash(rel), ctx, src, items });
    }
    Ok(Workspace::build(ws_files))
}

/// Phase two: run the call-graph rules over a built workspace, then
/// apply allow directives and the meta rules per file.
pub fn lint_built(ws: &Workspace) -> Report {
    let mut per_file: Vec<Vec<Violation>> = vec![Vec::new(); ws.files.len()];
    for (fi, v) in run_flow_rules(ws) {
        per_file[fi].push(v);
    }
    let mut report = Report { files: ws.files.len(), findings: Vec::new() };
    for (file, violations) in ws.files.iter().zip(per_file) {
        let violations = apply_allows(&file.src, violations);
        report.findings.extend(violations.into_iter().map(|v| {
            let excerpt =
                file.src.line(v.line).map(|l| l.raw.trim().to_string()).unwrap_or_default();
            Finding { path: file.path.clone(), violation: v, excerpt }
        }));
    }
    report
}

/// Apply suppressions (an allow matches a violation of its rule on its
/// target line) and run the meta rules over the directives themselves.
fn apply_allows(src: &SourceFile, mut violations: Vec<Violation>) -> Vec<Violation> {
    let mut used = vec![false; src.allows.len()];
    violations.retain(|v| {
        let mut suppressed = false;
        for (ai, a) in src.allows.iter().enumerate() {
            if a.rule == v.rule && a.target == v.line {
                used[ai] = true;
                suppressed = true;
            }
        }
        !suppressed
    });
    for (ai, a) in src.allows.iter().enumerate() {
        if !is_known_rule(&a.rule) {
            violations.push(Violation::new(
                BAD_ALLOW,
                a.line,
                format!("allow directive names unknown rule `{}`", a.rule),
            ));
        } else if a.reason.is_empty() {
            violations.push(Violation::new(
                BAD_ALLOW,
                a.line,
                format!(
                    "allow({}) carries no reason; write `// lint: allow({}): <why>`",
                    a.rule, a.rule
                ),
            ));
        } else if !used[ai] {
            violations.push(Violation::new(
                UNUSED_ALLOW,
                a.line,
                format!(
                    "allow({}) suppresses nothing on line {}; remove the stale directive",
                    a.rule, a.target
                ),
            ));
        }
    }
    violations.sort_by_key(|v| v.line);
    violations
}

/// Forward-slashed path string (stable across platforms for output).
fn path_to_slash(p: &Path) -> String {
    p.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// Recursively collect `.rs` files outside [`SKIP`]. Entries are
/// visited in sorted order so the scan is deterministic.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = path_to_slash(rel);
        if SKIP.iter().any(|s| rel_str == *s || file_name_is(&path, s)) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// True when the path's file name equals a bare (slash-free) skip entry.
fn file_name_is(path: &Path, skip_entry: &str) -> bool {
    !skip_entry.contains('/') && path.file_name().is_some_and(|n| n.to_string_lossy() == skip_entry)
}

/// Which target tree a repo-relative path belongs to.
fn file_kind(rel: &Path) -> FileKind {
    for c in rel.components() {
        let c = c.as_os_str();
        if c == "tests" {
            return FileKind::Test;
        }
        if c == "benches" {
            return FileKind::Bench;
        }
        if c == "examples" {
            return FileKind::Example;
        }
    }
    FileKind::Lib
}

/// Crate name from the nearest ancestor `Cargo.toml` (cached per dir).
fn crate_name_for(
    root: &Path,
    file: &Path,
    cache: &mut BTreeMap<PathBuf, Option<String>>,
) -> Option<String> {
    let mut dir = file.parent()?;
    loop {
        if let Some(cached) = cache.get(dir) {
            if cached.is_some() {
                return cached.clone();
            }
        } else {
            let manifest = dir.join("Cargo.toml");
            let name = if manifest.is_file() {
                fs::read_to_string(&manifest).ok().and_then(|t| package_name(&t))
            } else {
                None
            };
            cache.insert(dir.to_path_buf(), name.clone());
            if name.is_some() {
                return name;
            }
        }
        if dir == root {
            return None;
        }
        dir = dir.parent()?;
    }
}

/// `name = "..."` from a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some((k, v)) = line.split_once('=') {
                if k.trim() == "name" {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FileCtx {
        FileCtx { crate_name: "ts-exec".to_string(), kind: FileKind::Lib }
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let f = lint_source(
            "demo.rs",
            "fn worker_loop() { x.unwrap(); } // lint: allow(panic-on-worker-path): x is Some by construction\n",
            &ctx(),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_without_reason_is_bad_allow() {
        let f = lint_source(
            "demo.rs",
            "fn worker_loop() { x.unwrap(); } // lint: allow(panic-on-worker-path)\n",
            &ctx(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].violation.rule, BAD_ALLOW);
    }

    #[test]
    fn unused_allow_is_flagged() {
        let f = lint_source(
            "demo.rs",
            "fn f() {} // lint: allow(unmetered-loop): nothing here actually\n",
            &ctx(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].violation.rule, UNUSED_ALLOW);
    }

    #[test]
    fn package_name_reads_package_section_only() {
        let name = package_name("[workspace]\n[package]\nname = \"ts-x\"\n[lib]\nname = \"x\"\n");
        assert_eq!(name.as_deref(), Some("ts-x"));
    }

    #[test]
    fn file_kind_by_tree() {
        assert_eq!(file_kind(Path::new("crates/exec/src/sort.rs")), FileKind::Lib);
        assert_eq!(file_kind(Path::new("crates/exec/tests/sort_allocs.rs")), FileKind::Test);
        assert_eq!(file_kind(Path::new("crates/bench/benches/x.rs")), FileKind::Bench);
        assert_eq!(file_kind(Path::new("examples/quickstart.rs")), FileKind::Example);
    }
}
