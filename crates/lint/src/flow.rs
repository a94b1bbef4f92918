//! The three call-graph rule families: budget-poll discipline
//! (`unmetered-loop`), panic reachability (`panic-on-worker-path`),
//! and hash-order dataflow (`determinism-taint`).
//!
//! All three consume the [`crate::graph::Workspace`] model. They are
//! conservative syntactic analyses, not type checkers: name resolution
//! fans out to every same-named fn, and taint propagation follows
//! locals and returns but not fields or closures. The documented
//! direction of every approximation is in `docs/LINTS.md`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::Config;
use crate::graph::{FnId, Workspace};
use crate::parse::{ItemTree, Tok};
use crate::rules::{collect_map_names, line_active, FileKind, Violation};

/// Name of the budget-poll discipline rule.
pub const UNMETERED_LOOP: &str = "unmetered-loop";
/// Name of the panic-reachability rule.
pub const PANIC_ON_WORKER_PATH: &str = "panic-on-worker-path";
/// Name of the hash-order dataflow rule.
pub const DETERMINISM_TAINT: &str = "determinism-taint";

/// Functions whose loops must poll the budget, unless overridden by the
/// rule's `fns` key: the operator pull method and the plan drivers.
const DEFAULT_METERED_FNS: &[&str] = &[
    "next_batch",
    "batch_collect_all",
    "batch_collect_all_budgeted",
    "batch_collect_distinct_topk",
    "batch_collect_distinct_topk_budgeted",
    "batch_distinct_topk",
];

/// Calls that advance the budget machinery (`budget-calls` key). Note
/// `interrupted` is deliberately absent: it only *reads* the latched
/// flag — a loop that checks `interrupted()` but never ticks can spin
/// past every deadline, because deadline/cancel polling happens inside
/// `tick` and quota accounting inside `tick`/`count_row`.
const DEFAULT_BUDGET_CALLS: &[&str] = &["tick", "count_row"];

/// Call-graph hops searched for a budget poll (`hops` key).
const DEFAULT_HOPS: usize = 2;

/// Worker-path entry fns (`entries` key): the server worker loop and
/// the nine-method evaluator front doors.
const DEFAULT_ENTRIES: &[&str] = &["worker_loop", "process", "eval_with", "try_eval_with"];

/// Panic-site categories checked by default (`categories` key). The
/// `slice-index` category (bare `x[i]` indexing) is opt-in, and
/// arithmetic overflow is delegated wholesale to the release-checked
/// CI profile — see docs/LINTS.md.
const DEFAULT_PANIC_CATEGORIES: &[&str] = &["unwrap", "expect", "panic-macro"];

/// Catalog/serialization sinks hash order must not reach (`sinks` key).
const DEFAULT_SINKS: &[&str] = &[
    "add_pair",
    "insert_ints",
    "insert_row",
    "intern_sig",
    "intern_sig_prehashed",
    "intern_code",
    "fnv_digest",
    "serialize",
    "write_all",
    "write_fmt",
];

/// Map-iteration method names.
const ITER_METHODS: [&str; 8] =
    ["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "drain", "into_keys"];

/// `.sort*()` / ordered-container / order-insensitive-reduction names:
/// a statement containing one of these neutralizes the taint it uses.
const CLEANSERS: [&str; 14] = [
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "sum",
    "count",
    "min",
    "max",
    "all",
    "any",
    "len",
    "fold",
    "product",
    "is_empty",
    "contains",
];

/// Methods that move a tainted argument into their receiver.
const ACCUMULATORS: [&str; 4] = ["push", "extend", "insert", "append"];

/// Names excluded from the return-taint fixpoint. Resolution is by
/// bare name, and these collide with std's iterator/accessor/
/// constructor vocabulary on non-map types (`Vec::iter`, `Table::new`,
/// `slice::get`, ...) — one workspace fn named `iter` that returns
/// hash-ordered data would otherwise taint every `.iter()` call in
/// every covered crate. Direct map iteration is still caught by the
/// receiver check; a workspace fn with one of these names that *does*
/// return hash-ordered data is a documented false-negative shape (see
/// docs/LINTS.md).
const RETURN_TAINT_STOP: [&str; 18] = [
    "new",
    "default",
    "clone",
    "get",
    "len",
    "first",
    "last",
    "value",
    "values",
    "keys",
    "iter",
    "iter_mut",
    "into_iter",
    "into_keys",
    "drain",
    "collect",
    "with_capacity",
    "hash",
];

/// One cross-file finding, attributed to a file index.
pub type FileViolation = (usize, Violation);

/// Run every configured call-graph rule over the workspace.
pub fn run_flow_rules(ws: &Workspace, cfg: &Config) -> Vec<FileViolation> {
    let mut out = Vec::new();
    unmetered_loop(ws, cfg, &mut out);
    panic_on_worker_path(ws, cfg, &mut out);
    determinism_taint(ws, cfg, &mut out);
    out
}

// ------------------------------------------------------- unmetered-loop

fn unmetered_loop(ws: &Workspace, cfg: &Config, out: &mut Vec<FileViolation>) {
    let Some(scope) = cfg.rules.get(UNMETERED_LOOP) else { return };
    let metered: BTreeSet<&str> = scope.list("fns", DEFAULT_METERED_FNS).into_iter().collect();
    let budget: BTreeSet<&str> =
        scope.list("budget-calls", DEFAULT_BUDGET_CALLS).into_iter().collect();
    let hops = scope.num("hops", DEFAULT_HOPS);
    for (fi, file) in ws.files.iter().enumerate() {
        if !scope.covers(&file.ctx.crate_name) {
            continue;
        }
        for f in &file.items.fns {
            if !metered.contains(f.name.as_str()) || f.body.is_empty() {
                continue;
            }
            for lp in file.items.loops_in(f.body.clone()) {
                if !line_active(cfg, &file.ctx, UNMETERED_LOOP, &file.src, lp.line) {
                    continue;
                }
                let mut searched: Vec<String> = Vec::new();
                if loop_reaches_poll(
                    ws,
                    &file.items,
                    lp.body.clone(),
                    &budget,
                    &metered,
                    hops,
                    &mut searched,
                ) {
                    continue;
                }
                searched.sort();
                searched.dedup();
                out.push((
                    fi,
                    Violation {
                        rule: UNMETERED_LOOP,
                        line: lp.line,
                        message: format!(
                            "`{}` in `{}` never reaches a budget poll ({}) within {hops} \
                             call-graph hops; a plan stuck in this loop is invisible to the \
                             deadline/cancel machinery — tick the Work meter inside the loop, \
                             or allow with the reason the loop is bounded",
                            lp.keyword,
                            f.name,
                            budget.iter().copied().collect::<Vec<_>>().join("/"),
                        ),
                        notes: if searched.is_empty() {
                            vec!["loop body makes no resolvable calls".to_string()]
                        } else {
                            vec![format!(
                                "searched without finding a poll: {}",
                                searched.join(", ")
                            )]
                        },
                    },
                ));
            }
        }
    }
}

/// True when the loop body contains a budget call directly or through
/// `hops` levels of resolved calls. Credit is never taken *through*
/// another metered fn (each pull stage must poll for itself — that is
/// what makes deleting a driver's own poll a finding even though the
/// operators beneath it still tick).
fn loop_reaches_poll(
    ws: &Workspace,
    items: &ItemTree,
    body: std::ops::Range<usize>,
    budget: &BTreeSet<&str>,
    metered: &BTreeSet<&str>,
    hops: usize,
    searched: &mut Vec<String>,
) -> bool {
    let mut frontier: VecDeque<(FnId, usize)> = VecDeque::new();
    let mut seen: BTreeSet<FnId> = BTreeSet::new();
    for call in items.calls_in(body) {
        if budget.contains(call.name.as_str()) {
            return true;
        }
        if metered.contains(call.name.as_str()) {
            continue;
        }
        for &id in ws.resolve(&call.name) {
            if seen.insert(id) {
                frontier.push_back((id, 1));
            }
        }
    }
    while let Some((id, depth)) = frontier.pop_front() {
        if depth > hops {
            continue;
        }
        searched.push(ws.label(id));
        let file = &ws.files[id.file];
        let fn_body = file.items.fns[id.item].body.clone();
        for call in file.items.calls_in(fn_body) {
            if budget.contains(call.name.as_str()) {
                return true;
            }
            if metered.contains(call.name.as_str()) || depth == hops {
                continue;
            }
            for &next in ws.resolve(&call.name) {
                if seen.insert(next) {
                    frontier.push_back((next, depth + 1));
                }
            }
        }
    }
    false
}

// ------------------------------------------------- panic-on-worker-path

/// Panic patterns per category, matched against sanitized code.
fn panic_patterns(category: &str) -> &'static [&'static str] {
    match category {
        "unwrap" => &[".unwrap()"],
        "expect" => &[".expect("],
        "panic-macro" => &["panic!(", "unreachable!(", "todo!(", "unimplemented!("],
        _ => &[],
    }
}

fn panic_on_worker_path(ws: &Workspace, cfg: &Config, out: &mut Vec<FileViolation>) {
    let Some(scope) = cfg.rules.get(PANIC_ON_WORKER_PATH) else { return };
    let entries = scope.list("entries", DEFAULT_ENTRIES);
    let categories = scope.list("categories", DEFAULT_PANIC_CATEGORIES);
    let (reachable, parents) = ws.reachable_from(&entries);
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &id in &reachable {
        let file = &ws.files[id.file];
        if !scope.covers(&file.ctx.crate_name) || file.ctx.kind != FileKind::Lib {
            continue;
        }
        let f = &file.items.fns[id.item];
        let Some(end_tok) = f.body.end.checked_sub(1).and_then(|i| file.items.toks.get(i)) else {
            continue;
        };
        let chain = ws.chain(&parents, id);
        for line_no in f.line..=end_tok.line {
            let Some(line) = file.src.line(line_no) else { continue };
            if !line_active(cfg, &file.ctx, PANIC_ON_WORKER_PATH, &file.src, line_no) {
                continue;
            }
            let mut hit: Option<&str> = None;
            for cat in &categories {
                if let Some(p) = panic_patterns(cat).iter().find(|p| line.code.contains(*p)) {
                    hit = Some(p);
                    break;
                }
            }
            if hit.is_none()
                && categories.contains(&"slice-index")
                && has_bare_index(&file.items, line_no)
            {
                hit = Some("[..] indexing");
            }
            let Some(pattern) = hit else { continue };
            if !reported.insert((id.file, line_no)) {
                continue;
            }
            out.push((
                id.file,
                Violation {
                    rule: PANIC_ON_WORKER_PATH,
                    line: line_no,
                    message: format!(
                        "`{}` is reachable from worker entry `{}` ({} call-graph hops); a \
                         panic here rides the per-query isolation boundary on every serve — \
                         return an error instead, or allow with the reason it cannot fire",
                        pattern.trim_start_matches('.').trim_end_matches('('),
                        chain.first().cloned().unwrap_or_default(),
                        chain.len().saturating_sub(1),
                    ),
                    notes: vec![format!("call chain: {}", chain.join(" -> "))],
                },
            ));
        }
    }
}

/// True when line `n` contains bare-indexing syntax `ident[` outside
/// attributes (`#[..]`) and type positions (`: [T; N]`, `as [..]`).
fn has_bare_index(items: &ItemTree, n: usize) -> bool {
    let toks: Vec<&Tok> = items.toks.iter().filter(|t| t.line == n).collect();
    for i in 0..toks.len() {
        if !toks[i].is_punct('[') || i == 0 {
            continue;
        }
        let prev = toks[i - 1];
        if prev.word().is_some()
            && !prev.is("as")
            && (i < 2 || !toks[i - 2].is_punct('#') && !toks[i - 2].is_punct(':'))
        {
            return true;
        }
    }
    false
}

// ----------------------------------------------------- determinism-taint

/// Per-statement facts the taint walker extracts.
struct StmtFacts {
    /// `(map name, line)` when the statement iterates an unordered map.
    source: Option<(String, usize)>,
    /// `let [mut] name =` target, when the statement is a binding.
    binds: Option<String>,
    /// `recv.push/extend/insert/append(..)` receiver, when present.
    accumulates: Option<String>,
    /// Statement contains a sort / ordered-collect / reduction.
    cleansed: bool,
    /// `name.sort*()` receiver (cleanses the named local itself).
    sorts_receiver: Option<String>,
    /// Sink calls `(sink name, line)` in the statement.
    sinks: Vec<(String, usize)>,
    /// Statement is (or starts with) `return`.
    returns: bool,
    /// Calls made by the statement (for return-taint propagation).
    calls: Vec<String>,
    /// `for <pat> in <expr>` header: pattern vars and source words.
    for_header: Option<(Vec<String>, Vec<String>)>,
}

fn stmt_facts(toks: &[Tok], map_names: &BTreeSet<String>, sinks: &BTreeSet<&str>) -> StmtFacts {
    let mut f = StmtFacts {
        source: None,
        binds: None,
        accumulates: None,
        cleansed: false,
        sorts_receiver: None,
        sinks: Vec::new(),
        returns: toks.first().is_some_and(|t| t.is("return")),
        calls: Vec::new(),
        for_header: None,
    };
    for i in 0..toks.len() {
        let Some(w) = toks[i].word() else { continue };
        let called = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
        let method = called && i > 0 && toks[i - 1].is_punct('.');
        if called {
            f.calls.push(w.to_string());
            if sinks.contains(w) {
                f.sinks.push((w.to_string(), toks[i].line));
            }
        }
        if method && (w.starts_with("sort") || CLEANSERS.contains(&w)) {
            f.cleansed = true;
            if w.starts_with("sort") {
                if let Some(recv) = (i >= 2).then(|| toks[i - 2].word()).flatten() {
                    f.sorts_receiver = Some(recv.to_string());
                }
            }
        }
        if matches!(w, "BTreeMap" | "BTreeSet" | "BinaryHeap") {
            f.cleansed = true;
        }
        if method && ITER_METHODS.contains(&w) {
            if let Some(recv) = (i >= 2).then(|| toks[i - 2].word()).flatten() {
                if map_names.contains(recv) && f.source.is_none() {
                    f.source = Some((recv.to_string(), toks[i].line));
                }
            }
        }
        if method && ACCUMULATORS.contains(&w) {
            if let Some(recv) = (i >= 2).then(|| toks[i - 2].word()).flatten() {
                f.accumulates = Some(recv.to_string());
            }
        }
    }
    // `let [mut] NAME = ..` binding target.
    if toks.first().is_some_and(|t| t.is("let")) {
        let mut k = 1;
        if toks.get(k).is_some_and(|t| t.is("mut")) {
            k += 1;
        }
        if let Some(name) = toks.get(k).and_then(|t| t.word()) {
            if toks.get(k + 1).is_some_and(|t| t.is_punct('=') || t.is_punct(':')) {
                f.binds = Some(name.to_string());
            }
        }
    }
    // `for <pat> in <expr>` header (the statement ends at the `{`).
    if let Some(for_pos) = toks.iter().position(|t| t.is("for")) {
        if let Some(in_rel) = toks[for_pos..].iter().position(|t| t.is("in")) {
            let in_pos = for_pos + in_rel;
            let pat: Vec<String> = toks[for_pos + 1..in_pos]
                .iter()
                .filter_map(|t| t.word())
                .map(String::from)
                .collect();
            let src: Vec<String> =
                toks[in_pos + 1..].iter().filter_map(|t| t.word()).map(String::from).collect();
            // A whole-map `for (k, v) in map` iteration is a source too.
            if f.source.is_none() {
                if let Some(m) = src.iter().find(|w| map_names.contains(*w)) {
                    // Only when the map is the iterated expression, not
                    // e.g. an index into something else; the word test
                    // over-approximates, which is the safe direction.
                    f.source = Some((m.clone(), toks[for_pos].line));
                }
            }
            f.for_header = Some((pat, src));
        }
    }
    f
}

fn determinism_taint(ws: &Workspace, cfg: &Config, out: &mut Vec<FileViolation>) {
    let Some(scope) = cfg.rules.get(DETERMINISM_TAINT) else { return };
    let sinks: BTreeSet<&str> = scope.list("sinks", DEFAULT_SINKS).into_iter().collect();

    // Fixpoint over "fn returns hash-ordered data" (name-level, like
    // the call graph). Monotone and bounded by the fn-name count.
    let mut tainted_fns: BTreeSet<String> = BTreeSet::new();
    loop {
        let mut grew = false;
        for file in &ws.files {
            if !scope.covers(&file.ctx.crate_name) {
                continue;
            }
            let map_names = collect_map_names(&file.src);
            for f in &file.items.fns {
                if f.is_test
                    || f.body.is_empty()
                    || RETURN_TAINT_STOP.contains(&f.name.as_str())
                    || tainted_fns.contains(&f.name)
                {
                    continue;
                }
                let (_, returns) = walk_fn(&file.items, f, &map_names, &sinks, &tainted_fns);
                if returns {
                    tainted_fns.insert(f.name.clone());
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }

    for (fi, file) in ws.files.iter().enumerate() {
        if !scope.covers(&file.ctx.crate_name) {
            continue;
        }
        let map_names = collect_map_names(&file.src);
        let mut reported: BTreeSet<usize> = BTreeSet::new();
        for f in &file.items.fns {
            if f.body.is_empty() {
                continue;
            }
            let (fires, _) = walk_fn(&file.items, f, &map_names, &sinks, &tainted_fns);
            for (line, sink, origin, origin_line) in fires {
                if !line_active(cfg, &file.ctx, DETERMINISM_TAINT, &file.src, line) {
                    continue;
                }
                if !reported.insert(line) {
                    continue;
                }
                out.push((
                    fi,
                    Violation {
                        rule: DETERMINISM_TAINT,
                        line,
                        message: format!(
                            "hash-ordered data from `{origin}` (iterated on line {origin_line}) \
                             reaches catalog/serialization sink `{sink}` without an intervening \
                             sort; hash order would leak into catalog bytes — sort (or collect \
                             into an ordered container) first, or allow with a written reason"
                        ),
                        notes: vec![format!(
                            "taint path: {origin} iterated at line {origin_line} -> {sink}() at line {line}"
                        )],
                    },
                ));
            }
        }
    }
}

/// Walk one fn body: returns `(sink fires, returns-tainted)`. Each fire
/// is `(sink line, sink name, origin map/local, origin line)`.
fn walk_fn(
    items: &ItemTree,
    f: &crate::parse::FnItem,
    map_names: &BTreeSet<String>,
    sinks: &BTreeSet<&str>,
    tainted_fns: &BTreeSet<String>,
) -> (Vec<(usize, String, String, usize)>, bool) {
    let mut tainted: BTreeMap<String, (String, usize)> = BTreeMap::new();
    let mut fires = Vec::new();
    let mut returns_taint = false;
    let stmts = items.statements_in(f.body.clone());
    let n_stmts = stmts.len();
    for (si, r) in stmts.into_iter().enumerate() {
        let toks = &items.toks[r.clone()];
        let facts = stmt_facts(toks, map_names, sinks);
        // Taint flowing into this statement: a fresh map iteration, a
        // tainted local, or a call to a taint-returning fn.
        let used: Option<(String, usize)> = facts
            .source
            .clone()
            .or_else(|| {
                toks.iter()
                    .filter_map(|t| t.word())
                    .find_map(|w| tainted.get(w).map(|(origin, line)| (origin.clone(), *line)))
            })
            .or_else(|| {
                facts
                    .calls
                    .iter()
                    .find(|c| tainted_fns.contains(*c))
                    .map(|c| (format!("{c}()"), items.first_line(&r).unwrap_or(f.line)))
            });
        // An explicit `name.sort*()` cleanses that local for good.
        if let Some(recv) = &facts.sorts_receiver {
            tainted.remove(recv);
        }
        let Some((origin, origin_line)) = used else { continue };
        if facts.cleansed {
            continue; // sorted / ordered-collected / reduced: order-safe
        }
        for (sink, line) in &facts.sinks {
            fires.push((*line, sink.clone(), origin.clone(), origin_line));
        }
        if let Some((pat, _)) = &facts.for_header {
            for v in pat {
                if v != "_" {
                    tainted.insert(v.clone(), (origin.clone(), origin_line));
                }
            }
            continue;
        }
        if let Some(name) = &facts.binds {
            tainted.insert(name.clone(), (origin.clone(), origin_line));
        } else if let Some(recv) = &facts.accumulates {
            tainted.insert(recv.clone(), (origin.clone(), origin_line));
        }
        if facts.returns || si + 1 == n_stmts {
            returns_taint = true;
        }
    }
    (fires, returns_taint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WsFile;
    use crate::rules::FileCtx;
    use crate::source::SourceFile;

    fn ws_of(text: &str) -> Workspace {
        let src = SourceFile::parse(text);
        let items = ItemTree::parse(&src);
        Workspace::build(vec![WsFile {
            path: "demo.rs".to_string(),
            ctx: FileCtx { crate_name: "demo".to_string(), kind: FileKind::Lib },
            src,
            items,
        }])
    }

    fn cfg(toml: &str) -> Config {
        Config::parse(toml).expect("test config parses")
    }

    #[test]
    fn loop_with_direct_tick_is_metered() {
        let ws = ws_of("fn next(w: &Work) {\n    loop {\n        w.tick(1);\n    }\n}\n");
        let mut out = Vec::new();
        unmetered_loop(&ws, &cfg("[rules.unmetered-loop]\ncrates = [\"demo\"]\n"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unmetered_loop_fires_and_hop_credit_works() {
        let ws = ws_of(
            "fn next_batch(w: &Work) {\n    loop {\n        spin();\n    }\n}\n\
             fn batch_collect_all(w: &Work) {\n    loop {\n        helper(w);\n    }\n}\n\
             fn helper(w: &Work) { w.tick(1); }\nfn spin() {}\n",
        );
        let mut out = Vec::new();
        unmetered_loop(&ws, &cfg("[rules.unmetered-loop]\ncrates = [\"demo\"]\n"), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].1.line, 2);
    }

    #[test]
    fn no_credit_through_other_metered_fns() {
        // The driver's loop pulls `next_batch()`, which ticks — but each
        // pull stage polls for itself, so the driver loop still fires.
        let ws = ws_of(
            "fn batch_collect_all(op: &mut Op) {\n    while let Some(b) = op.next_batch() {\n        keep(b);\n    }\n}\n\
             fn next_batch(w: &Work) -> Option<Batch> { w.tick(1); None }\nfn keep(_b: Batch) {}\n",
        );
        let mut out = Vec::new();
        unmetered_loop(&ws, &cfg("[rules.unmetered-loop]\ncrates = [\"demo\"]\n"), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn panic_reachability_transitive_and_scoped() {
        let ws = ws_of(
            "fn worker_loop() { stage_one(); }\n\
             fn stage_one() { stage_two(); }\n\
             fn stage_two(x: Option<u32>) { x.unwrap(); }\n\
             fn unreached(y: Option<u32>) { y.unwrap(); }\n",
        );
        let mut out = Vec::new();
        panic_on_worker_path(
            &ws,
            &cfg("[rules.panic-on-worker-path]\ncrates = [\"demo\"]\n"),
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].1.line, 3);
        assert!(out[0].1.notes[0].contains("worker_loop -> "));
    }

    #[test]
    fn taint_reaches_sink_unless_sorted() {
        let ws = ws_of(
            "fn bad(m: &FastMap<u32, u32>, cat: &mut Catalog) {\n\
                 let keys: Vec<u32> = m.keys().copied().collect();\n\
                 for k in keys {\n\
                     cat.add_pair(k);\n\
                 }\n\
             }\n\
             fn good(m: &FastMap<u32, u32>, cat: &mut Catalog) {\n\
                 let mut keys: Vec<u32> = m.keys().copied().collect();\n\
                 keys.sort();\n\
                 for k in keys {\n\
                     cat.add_pair(k);\n\
                 }\n\
             }\n",
        );
        let mut out = Vec::new();
        determinism_taint(&ws, &cfg("[rules.determinism-taint]\ncrates = [\"demo\"]\n"), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].1.line, 4);
    }

    #[test]
    fn taint_propagates_through_returns() {
        let ws = ws_of(
            "fn leak(m: &FastMap<u32, u32>) -> Vec<u32> {\n\
                 m.keys().copied().collect()\n\
             }\n\
             fn consume(m: &FastMap<u32, u32>, cat: &mut Catalog) {\n\
                 let ks = leak(m);\n\
                 cat.insert_ints(ks);\n\
             }\n",
        );
        let mut out = Vec::new();
        determinism_taint(&ws, &cfg("[rules.determinism-taint]\ncrates = [\"demo\"]\n"), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].1.line, 6);
    }
}
