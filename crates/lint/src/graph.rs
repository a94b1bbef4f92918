//! Workspace symbol table and conservative call graph.
//!
//! Name resolution is deliberately coarse: a call site `foo(..)` or
//! `x.foo(..)` resolves to *every* non-test library `fn foo` in the
//! workspace, regardless of receiver type or import paths. That
//! over-approximates the true call graph — exactly the right direction
//! for reachability-style safety rules (panic reachability can only be
//! over-reported, never silently missed through a resolved edge) and
//! the documented trade-off for the metering rule (a poll found in a
//! same-named uncalled function can exonerate a loop; see
//! `docs/LINTS.md` for the known false-negative shapes).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parse::ItemTree;
use crate::rules::FileCtx;
use crate::source::SourceFile;

/// One parsed file of the workspace under analysis.
#[derive(Debug, Clone)]
pub struct WsFile {
    /// Repo-relative path (used in findings).
    pub path: String,
    /// Crate attribution and target-tree kind.
    pub ctx: FileCtx,
    /// Lexed line views.
    pub src: SourceFile,
    /// Parsed item tree.
    pub items: ItemTree,
}

/// Identifier of one function: (file index, fn index within the file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnId {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's [`ItemTree::fns`].
    pub item: usize,
}

/// The whole workspace: parsed files, the symbol table, and the
/// resolved call graph.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// All scanned files, in deterministic (sorted-path) order.
    pub files: Vec<WsFile>,
    /// fn name → every graph-eligible definition of that name.
    symbols: BTreeMap<String, Vec<FnId>>,
    /// Resolved callee edges per graph-eligible fn.
    edges: BTreeMap<FnId, Vec<FnId>>,
}

impl Workspace {
    /// Build the symbol table and call graph over `files`.
    ///
    /// Only *library* functions participate in the graph: files under
    /// `tests/`/`benches/`/`examples/` and fns inside `#[cfg(test)]`
    /// regions contribute neither symbols nor edges (their panics and
    /// loops are deliberate), and bodyless trait declarations carry no
    /// information to traverse into.
    pub fn build(files: Vec<WsFile>) -> Workspace {
        let mut ws = Workspace { files, symbols: BTreeMap::new(), edges: BTreeMap::new() };
        for (fi, file) in ws.files.iter().enumerate() {
            if file.ctx.kind != crate::rules::FileKind::Lib {
                continue;
            }
            for (ii, f) in file.items.fns.iter().enumerate() {
                if f.is_test || !f.has_body {
                    continue;
                }
                ws.symbols.entry(f.name.clone()).or_default().push(FnId { file: fi, item: ii });
            }
        }
        let ids: Vec<FnId> = ws.symbols.values().flatten().copied().collect();
        for id in ids {
            let file = &ws.files[id.file];
            let body = file.items.fns[id.item].body.clone();
            let mut callees: Vec<FnId> = Vec::new();
            let mut seen: BTreeSet<FnId> = BTreeSet::new();
            for call in file.items.calls_in(body) {
                if let Some(targets) = ws.symbols.get(&call.name) {
                    for &t in targets {
                        if t != id && seen.insert(t) {
                            callees.push(t);
                        }
                    }
                }
            }
            ws.edges.insert(id, callees);
        }
        ws
    }

    /// Every graph-eligible definition of `name`.
    pub fn resolve(&self, name: &str) -> &[FnId] {
        self.symbols.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Resolved callees of `id` (empty for fns outside the graph).
    pub fn callees(&self, id: FnId) -> &[FnId] {
        self.edges.get(&id).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// `crate::fn` display label for one fn.
    pub fn label(&self, id: FnId) -> String {
        let file = &self.files[id.file];
        format!("{}::{}", file.ctx.crate_name, file.items.fns[id.item].name)
    }

    /// BFS from every definition of the `entries` names. Returns the
    /// reachable set and, for each reached fn, its BFS parent (entries
    /// map to themselves) — enough to reconstruct a shortest call
    /// chain for each finding's notes.
    pub fn reachable_from(&self, entries: &[&str]) -> (BTreeSet<FnId>, BTreeMap<FnId, FnId>) {
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for name in entries {
            for &id in self.resolve(name) {
                if seen.insert(id) {
                    parent.insert(id, id);
                    queue.push_back(id);
                }
            }
        }
        while let Some(id) = queue.pop_front() {
            for &next in self.callees(id) {
                if seen.insert(next) {
                    parent.insert(next, id);
                    queue.push_back(next);
                }
            }
        }
        (seen, parent)
    }

    /// Shortest entry → `id` call chain as `crate::fn` labels.
    pub fn chain(&self, parent: &BTreeMap<FnId, FnId>, id: FnId) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = id;
        // Bounded walk: `parent` is a BFS tree, so this terminates at
        // the self-parented entry; the bound guards corrupt input.
        for _ in 0..parent.len() + 1 {
            chain.push(self.label(cur));
            let Some(&p) = parent.get(&cur) else { break };
            if p == cur {
                break;
            }
            cur = p;
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FileCtx, FileKind};

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(path, text)| {
                    let src = SourceFile::parse(text);
                    let items = ItemTree::parse(&src);
                    WsFile {
                        path: path.to_string(),
                        ctx: FileCtx { crate_name: "demo".to_string(), kind: FileKind::Lib },
                        src,
                        items,
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn cross_file_edges_resolve_by_name() {
        let w = ws(&[
            ("a.rs", "fn entry() { helper(); }\n"),
            ("b.rs", "fn helper() { leaf(); }\nfn leaf() {}\n"),
        ]);
        let (reach, parents) = w.reachable_from(&["entry"]);
        assert_eq!(reach.len(), 3);
        let leaf = w.resolve("leaf")[0];
        assert_eq!(w.chain(&parents, leaf), vec!["demo::entry", "demo::helper", "demo::leaf"]);
    }

    #[test]
    fn test_fns_are_outside_the_graph() {
        let w = ws(&[(
            "a.rs",
            "fn entry() { helper(); }\nfn helper() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { bomb(); }\n    fn bomb() {}\n}\n",
        )]);
        assert_eq!(w.resolve("helper").len(), 1);
        assert!(w.resolve("bomb").is_empty());
    }

    #[test]
    fn ambiguous_names_fan_out() {
        let w = ws(&[
            ("a.rs", "fn entry(x: &X) { x.next(); }\n"),
            ("b.rs", "impl A { fn next(&self) {} }\nimpl B { fn next(&self) {} }\n"),
        ]);
        let entry = w.resolve("entry")[0];
        assert_eq!(w.callees(entry).len(), 2);
    }
}
