//! In-memory spans recorded from the harness's own files, around the
//! calls into each layer; written out once, when the run ends.
//!
//! Span names are a fixed vocabulary (see the README): `op` →
//! `core.validate`, `core.eval`; served `op` → `server.submit`,
//! `server.wait` (+ a `reported` `core.eval`); `build` → `graph.*`,
//! `core.*`; `probe` → one child per layer probe. Spans *inside*
//! `eval_with` need product-side tracing and are a later issue.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<SpanId>,
    /// Spans of one request (one op, one rebuild, one probe) share it.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
    /// The interval was reported by the program (`outcome.wall_ms`),
    /// not clocked by the harness; its placement inside the parent is
    /// nominal.
    pub reported: bool,
}

/// Span recorder. A disabled tracer records nothing and costs one
/// branch per call, so the same op loop serves both kinds of run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now. Close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let now = self.now_ns();
        self.record(name, parent, request, now, now, &[], false)
    }

    /// Close a span now, attaching its counts.
    pub fn end(&mut self, id: SpanId, counts: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = now;
        span.counts.extend_from_slice(counts);
    }

    /// Record a span whose interval is already known.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
        counts: &[(&'static str, u64)],
        reported: bool,
    ) -> SpanId {
        if !self.enabled {
            return SpanId(u32::MAX);
        }
        let id = SpanId(u32::try_from(self.spans.len()).expect("fewer than 2^32 spans"));
        self.spans.push(Span {
            parent,
            request,
            name,
            start_ns,
            end_ns,
            counts: counts.to_vec(),
            reported,
        });
        id
    }

    /// Time a closure as a child span and hand back its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id, &[]);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many, their total duration, and their total
    /// self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p.0 as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_time_ns((s.start_ns, s.end_ns), kids);
        }
        out
    }

    /// One header line, then one line per span:
    /// `{id, parent, request, name, start_ns, end_ns, counts}`.
    pub fn write_jsonl(&self, path: &Path, header: &Json) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{}", Json::obj([("header", header.clone())]).to_line())?;
        for (i, s) in self.spans.iter().enumerate() {
            let mut members = vec![
                ("id".to_string(), Json::Num(i as f64)),
                ("parent".to_string(), s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p.0)))),
                ("request".to_string(), Json::Num(s.request as f64)),
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                (
                    "counts".to_string(),
                    Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::Num(v as f64)))),
                ),
            ];
            if s.reported {
                members.push(("reported".to_string(), Json::Bool(true)));
            }
            writeln!(w, "{}", Json::Obj(members).to_line())?;
        }
        w.flush()
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of its interval its
/// child spans cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(p0), e.min(p1))).filter(|&(s, e)| e > s).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = p0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (p1 - p0).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_with_no_children_is_the_duration() {
        assert_eq!(self_time_ns((10, 110), &[]), 100);
    }

    #[test]
    fn nested_children_subtract_once() {
        // Two disjoint children inside the parent.
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (50, 70)]), 60);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // [10,40) and [30,60) cover [10,60) = 50, not 60.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child contained in another adds nothing.
        assert_eq!(self_time_ns((0, 100), &[(10, 60), (20, 30)]), 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_ns((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time_ns((50, 100), &[(0, 500)]), 0);
        assert_eq!(self_time_ns((50, 100), &[(0, 10)]), 50);
    }

    #[test]
    fn summary_attributes_self_time_through_the_tree() {
        let mut t = Tracer::new(true);
        let op = t.record("op", None, 1, 0, 100, &[], false);
        t.record("core.validate", Some(op), 1, 5, 15, &[], false);
        let eval = t.record("core.eval", Some(op), 1, 15, 95, &[("work", 7)], false);
        t.record("inner", Some(eval), 1, 20, 40, &[], false);
        let s = t.summary();
        assert_eq!(s["op"], SpanTotals { count: 1, total_ns: 100, self_ns: 10 });
        assert_eq!(s["core.eval"], SpanTotals { count: 1, total_ns: 80, self_ns: 60 });
        assert_eq!(s["core.validate"].self_ns, 10);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", None, 0);
        t.end(id, &[("work", 1)]);
        assert_eq!(t.span("x", None, 0, || 3), 3);
        assert!(t.spans().is_empty());
    }
}
