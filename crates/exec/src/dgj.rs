//! The Distinct Group Join operator family (§5.3 of the paper).
//!
//! DGJ operators satisfy two properties:
//!
//! * **(a)** they understand groups of tuples, and preserve the order of
//!   groups from the input to the output (here: the input stream is
//!   clustered by a *group column* — topology id in score order — and
//!   output tuples stay clustered the same way);
//! * **(b)** they allow efficiently skipping from one group to the next
//!   via `advance_to_next_group`, "which is in addition to the usual
//!   getNext method supported by regular operators".
//!
//! [`BatchIdgj`] is the (index) nested-loops implementation: order
//! preservation is free (any NLJ preserves outer order) and group skip
//! just discontinues the current loop and delegates the skip to its
//! input. [`BatchHdgj`] is the hash implementation: it joins one group
//! at a time, re-evaluating (re-scanning) the inner relation for each
//! group — the overhead the paper's cost-based optimizer weighs against
//! the early-termination benefit.
//! [`BatchPkSemiJoin`] is the IDGJ a plan needs when it reads nothing
//! of the inner side: probe, test, keep or drop the outer row.

use ts_storage::faults::{self, sites, FireAction};
use ts_storage::{FastMap, Predicate, Row, RowId, Table, Value};

use crate::batch::{batch_rows, Batch, BatchOperator, BoxedBatchOp, Col};
use crate::op::Work;

/// Vectorized index nested-loops DGJ over an outer stream clustered by
/// `group_col`.
///
/// Probes `inner`'s index (primary key or secondary) once per outer row
/// and streams the borrowed posting list through a cursor: each pull
/// gathers at most `chunk` matches — `outer ++ inner`, the inner side
/// copied straight out of the table's column buffers — so a group skip
/// abandons the unread remainder of the list instead of paying for it.
/// Both stream invariants hold: a batch is cut at the first outer row of
/// another group and never draws from two outer batches, so output
/// batches carry exactly one group in outer order (property (a)).
pub struct BatchIdgj<'a> {
    outer: BoxedBatchOp<'a>,
    inner: &'a Table,
    outer_col: usize,
    inner_col: usize,
    group_col: usize,
    /// The outer batch in hand and how many of its selected rows have
    /// been probed.
    cur: Option<Batch<'a>>,
    cur_pos: usize,
    /// Unread remainder of the posting list of outer row `post_row`
    /// (a raw index into `cur`).
    postings: &'a [RowId],
    post_row: u32,
    /// Group value of the last outer row probed.
    current_group: Option<Value>,
    /// Matches gathered per pull within the current group; starts at
    /// [`PROBE_CHUNK0`] and doubles up to the batch size, so an
    /// early-terminating consumer that skips after the first witness
    /// reads a handful of postings while full drains amortize to whole
    /// batches.
    chunk: usize,
    work: Work,
}

/// First chunk of each [`BatchIdgj`] group (see `chunk` above).
const PROBE_CHUNK0: usize = 4;

impl<'a> BatchIdgj<'a> {
    /// Build a batch IDGJ over a group-clustered outer stream.
    pub fn new(
        outer: BoxedBatchOp<'a>,
        outer_col: usize,
        inner: &'a Table,
        inner_col: usize,
        group_col: usize,
        work: Work,
    ) -> Self {
        BatchIdgj {
            outer,
            inner,
            outer_col,
            inner_col,
            group_col,
            cur: None,
            cur_pos: 0,
            postings: &[],
            post_row: 0,
            current_group: None,
            chunk: PROBE_CHUNK0,
            work,
        }
    }

    /// Selection position of the first row of `b` at or after `pos`
    /// that is not in `group`, ticking each row stepped over.
    fn skip_group(&self, b: &Batch<'a>, mut pos: usize, group: &Value) -> usize {
        while b.nth_selected(pos).is_some_and(|i| b.col(self.group_col).value_eq(i, group)) {
            pos += 1;
            self.work.tick(1);
        }
        pos
    }
}

impl<'a> BatchOperator<'a> for BatchIdgj<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        loop {
            if self.work.interrupted() {
                return None;
            }
            if let FireAction::Starve = faults::fire(sites::EXEC_DGJ_PROBE) {
                self.work.starve();
                return None;
            }
            let ob = match self.cur.take() {
                Some(b) => b,
                None => {
                    self.cur_pos = 0;
                    self.outer.next_batch()?
                }
            };
            let mut limit = self.chunk.min(batch_rows());
            // (outer raw row, inner row id) of each match gathered.
            let mut outer_rows: Vec<u32> = Vec::with_capacity(limit);
            let mut inner_rows: Vec<RowId> = Vec::with_capacity(limit);
            while inner_rows.len() < limit {
                if self.postings.is_empty() {
                    let Some(i) = ob.nth_selected(self.cur_pos) else { break };
                    let group = ob.col(self.group_col);
                    if !self.current_group.as_ref().is_some_and(|g| group.value_eq(i, g)) {
                        if !inner_rows.is_empty() {
                            break; // batches never span groups
                        }
                        self.current_group = Some(group.value(i));
                        self.chunk = PROBE_CHUNK0;
                        limit = self.chunk.min(batch_rows());
                    }
                    self.cur_pos += 1;
                    self.work.tick(2); // one outer row pulled, one index probe
                    self.postings = self.inner.probe(self.inner_col, &ob.value(self.outer_col, i));
                    self.post_row = ts_storage::cast::to_u32(i);
                    continue;
                }
                let take = (limit - inner_rows.len()).min(self.postings.len());
                let (head, tail) = self.postings.split_at(take);
                inner_rows.extend_from_slice(head);
                outer_rows.resize(inner_rows.len(), self.post_row);
                self.postings = tail;
            }
            let n = inner_rows.len();
            let out = (n > 0).then(|| {
                self.work.tick(n as u64); // posting-list rows gathered
                self.chunk = (self.chunk * 2).min(batch_rows());
                let store = self.inner.store();
                let mut cols: Vec<Col<'a>> = Vec::with_capacity(ob.arity() + store.arity());
                cols.extend((0..ob.arity()).map(|c| ob.col(c).gather(&outer_rows)));
                cols.extend((0..store.arity()).map(|c| match store.ints(c) {
                    Some(v) => Col::IntOwned(inner_rows.iter().map(|&r| v[r as usize]).collect()),
                    None => Col::Vals(inner_rows.iter().map(|&r| store.value(c, r)).collect()),
                }));
                Batch::new(cols, n)
            });
            // Keep the outer batch while it has unprobed rows or owns the
            // posting list still being read.
            if self.cur_pos < ob.selected() || !self.postings.is_empty() {
                self.cur = Some(ob);
            }
            if out.is_some() {
                return out;
            }
        }
    }

    fn rewind(&mut self) {
        self.outer.rewind();
        self.cur = None;
        self.postings = &[];
        self.current_group = None;
    }

    fn grouped(&self) -> bool {
        true
    }

    /// Discontinue the current loop and skip the input to its next group
    /// (the paper: "IDGJ preserves property (b) by simply discontinuing
    /// the current loop and invoking advanceToNextGroup on its input").
    fn advance_to_next_group(&mut self) {
        let Some(current) = self.current_group.take() else {
            return; // nothing consumed yet: already at a group boundary
        };
        // The early-termination saving: the unread remainder of the
        // posting list is never gathered.
        self.postings = &[];
        if let Some(ob) = self.cur.take() {
            self.cur_pos = self.skip_group(&ob, self.cur_pos, &current);
            if self.cur_pos < ob.selected() {
                self.cur = Some(ob); // the next group starts in this batch
                return;
            }
        }
        if self.outer.grouped() {
            self.outer.advance_to_next_group();
            return;
        }
        // Fallback: drain batches until the group changes, keeping the
        // batch the next group starts in.
        while let Some(b) = self.outer.next_batch() {
            let pos = self.skip_group(&b, 0, &current);
            if pos < b.selected() {
                self.cur_pos = pos;
                self.cur = Some(b);
                break;
            }
        }
    }
}

/// DGJ semi-join against a base table's primary key: keeps the outer
/// rows whose `outer_col` names an `inner` row satisfying `pred`, by
/// refining the outer batch's selection vector. The inner row is only
/// looked at (one pk probe, the predicate on the borrowed
/// [`ts_storage::RowRef`]), never copied — late materialisation for
/// plans that read nothing of the inner side but its existence, as the
/// entity joins of the early-termination stack do. Group order and
/// group skips pass straight through to the outer.
pub struct BatchPkSemiJoin<'a> {
    outer: BoxedBatchOp<'a>,
    outer_col: usize,
    inner: &'a Table,
    pred: &'a Predicate,
    work: Work,
}

impl<'a> BatchPkSemiJoin<'a> {
    /// Keep outer rows with `outer_col = inner.pk` and `pred(inner row)`.
    pub fn new(
        outer: BoxedBatchOp<'a>,
        outer_col: usize,
        inner: &'a Table,
        pred: &'a Predicate,
        work: Work,
    ) -> Self {
        BatchPkSemiJoin { outer, outer_col, inner, pred, work }
    }
}

impl<'a> BatchOperator<'a> for BatchPkSemiJoin<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        loop {
            if self.work.interrupted() {
                return None;
            }
            if let FireAction::Starve = faults::fire(sites::EXEC_DGJ_PROBE) {
                self.work.starve();
                return None;
            }
            let mut ob = self.outer.next_batch()?;
            self.work.tick(2 * ob.selected() as u64); // per row: one pull, one pk probe
            let keep: Vec<u32> = ob
                .sel_iter()
                .filter(|&i| {
                    self.inner
                        .by_pk(&ob.value(self.outer_col, i))
                        .is_some_and(|r| self.pred.eval_ref(r))
                })
                .map(ts_storage::cast::to_u32)
                .collect();
            if !keep.is_empty() {
                ob.set_sel(keep);
                return Some(ob);
            }
        }
    }

    fn rewind(&mut self) {
        self.outer.rewind();
    }

    fn grouped(&self) -> bool {
        self.outer.grouped()
    }

    fn advance_to_next_group(&mut self) {
        self.outer.advance_to_next_group();
    }
}

/// Vectorized hash DGJ: joins one group at a time — gathers one group
/// of outer rows (possibly several batches), hashes it on the join key,
/// re-evaluates the inner operator from scratch (`rewind` + full batch
/// scan), and emits the group's matches as a single output batch in
/// outer order, keeping property (a).
pub struct BatchHdgj<'a> {
    outer: BoxedBatchOp<'a>,
    inner: BoxedBatchOp<'a>,
    outer_col: usize,
    inner_col: usize,
    group_col: usize,
    /// The current group's joined output, if not yet emitted.
    queued: Option<Batch<'a>>,
    /// Parked outer batch starting the next group (stream order).
    pending: std::collections::VecDeque<Batch<'a>>,
    exhausted: bool,
    work: Work,
}

impl<'a> BatchHdgj<'a> {
    /// Build a batch HDGJ over a group-clustered outer stream.
    pub fn new(
        outer: BoxedBatchOp<'a>,
        outer_col: usize,
        inner: BoxedBatchOp<'a>,
        inner_col: usize,
        group_col: usize,
        work: Work,
    ) -> Self {
        BatchHdgj {
            outer,
            inner,
            outer_col,
            inner_col,
            group_col,
            queued: None,
            pending: std::collections::VecDeque::new(),
            exhausted: false,
            work,
        }
    }

    /// Pull the next single-group outer batch (splitting multi-group
    /// batches from an ungrouped outer, as in [`BatchIdgj`]).
    fn next_outer(&mut self) -> Option<Batch<'a>> {
        let mut b = self.pending.pop_front().or_else(|| self.outer.next_batch())?;
        #[expect(
            clippy::expect_used,
            reason = "operators never emit an empty batch (next_batch returns None instead), and next_outer never parks an empty remainder"
        )]
        let group = b.value(self.group_col, b.first().expect("non-empty batch"));
        let split: Vec<u32> = b
            .sel_iter()
            .skip_while(|&i| b.value(self.group_col, i) == group)
            .map(ts_storage::cast::to_u32)
            .collect();
        if !split.is_empty() {
            let keep: Vec<u32> = b
                .sel_iter()
                .take(b.selected() - split.len())
                .map(ts_storage::cast::to_u32)
                .collect();
            let mut rest = b.clone();
            rest.set_sel(split);
            self.pending.push_front(rest);
            b.set_sel(keep);
        }
        Some(b)
    }

    /// Materialize the next group of outer rows and join it.
    fn fill_group(&mut self) {
        while self.queued.is_none() && !self.exhausted {
            if self.work.interrupted() {
                return;
            }
            if let FireAction::Starve = faults::fire(sites::EXEC_DGJ_PROBE) {
                self.work.starve();
                return;
            }
            // Gather one group of outer rows (may span several batches).
            let Some(first) = self.next_outer() else {
                self.exhausted = true;
                return;
            };
            self.work.tick(first.selected() as u64);
            #[expect(
                clippy::expect_used,
                reason = "operators never emit an empty batch (next_batch returns None instead), and next_outer never parks an empty remainder"
            )]
            let group = first.value(self.group_col, first.first().expect("non-empty batch"));
            let mut group_rows: Vec<Row> = first.materialize();
            while self.pending.is_empty() {
                let Some(b) = self.next_outer() else { break };
                #[expect(
                    clippy::expect_used,
                    reason = "operators never emit an empty batch (next_batch returns None instead), and next_outer never parks an empty remainder"
                )]
                let g = b.value(self.group_col, b.first().expect("non-empty batch"));
                self.work.tick(b.selected() as u64);
                if g == group {
                    group_rows.extend(b.materialize());
                } else {
                    self.pending.push_front(b);
                    break;
                }
            }
            // Hash the group on the join key.
            let mut hash: FastMap<Value, Vec<usize>> = FastMap::default();
            for (i, r) in group_rows.iter().enumerate() {
                hash.entry(r.get(self.outer_col).clone()).or_default().push(i);
            }
            // Re-evaluate the inner relation for this group.
            self.inner.rewind();
            let mut matches: Vec<(usize, Row)> = Vec::new();
            while let Some(ib) = self.inner.next_batch() {
                self.work.tick(ib.selected() as u64);
                for ri in ib.sel_iter() {
                    if let Some(idxs) = hash.get(&ib.value(self.inner_col, ri)) {
                        for &i in idxs {
                            matches.push((i, group_rows[i].concat(&ib.materialize_row(ri))));
                        }
                    }
                }
            }
            // A budget that tripped during the re-scan leaves the group's
            // matches with part of the inner, which is no prefix of them.
            if self.work.interrupted() {
                return;
            }
            // Emit in outer order within the group.
            matches.sort_by_key(|&(i, _)| i);
            if !matches.is_empty() {
                let rows: Vec<Row> = matches.into_iter().map(|(_, r)| r).collect();
                self.queued = Some(Batch::from_rows(&rows));
            }
            // If the group had no matches, loop to the next group.
        }
    }
}

impl<'a> BatchOperator<'a> for BatchHdgj<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        self.fill_group();
        self.queued.take()
    }

    fn rewind(&mut self) {
        self.outer.rewind();
        self.inner.rewind();
        self.queued = None;
        self.pending.clear();
        self.exhausted = false;
    }

    fn grouped(&self) -> bool {
        true
    }

    fn advance_to_next_group(&mut self) {
        // The current group is fully materialized in the queue; skipping
        // is dropping the rest of it. (The inner re-scan for this group
        // has already been paid — part of HDGJ's cost profile, §5.4.)
        self.queued = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::with_batch_rows;
    use crate::driver::{batch_collect_all, batch_collect_distinct_topk};
    use crate::scan::{BatchTableScan, BatchValuesScan};
    use ts_storage::{row, ColumnDef, TableSchema, ValueType};

    /// Outer stream: (group, key) clustered by group in score order.
    fn outer_rows() -> Vec<Row> {
        vec![
            row![100i64, 1i64],
            row![100i64, 2i64],
            row![100i64, 3i64],
            row![200i64, 2i64],
            row![200i64, 9i64],
            row![300i64, 3i64],
        ]
    }

    fn inner_table() -> Table {
        let mut t = Table::new(TableSchema::new(
            "Inner",
            vec![ColumnDef::new("k", ValueType::Int), ColumnDef::new("v", ValueType::Str)],
            None,
        ));
        t.insert(row![2i64, "two"]).unwrap();
        t.insert(row![3i64, "three"]).unwrap();
        t.insert(row![3i64, "tres"]).unwrap();
        t.create_index(0);
        t
    }

    fn grouped_outer<'a>() -> BoxedBatchOp<'a> {
        Box::new(BatchValuesScan::grouped(outer_rows(), 0, Work::new()))
    }

    /// Not grouped: multi-group batches, and skips have to drain.
    fn ungrouped_outer<'a>() -> BoxedBatchOp<'a> {
        Box::new(BatchValuesScan::new(outer_rows(), Work::new()))
    }

    fn inner_scan(t: &Table, work: Work) -> BoxedBatchOp<'_> {
        Box::new(BatchTableScan::new(t, Predicate::True, work))
    }

    fn idgj<'a>(outer: BoxedBatchOp<'a>, t: &'a Table) -> BatchIdgj<'a> {
        BatchIdgj::new(outer, 1, t, 0, 0, Work::new())
    }

    fn hdgj<'a>(outer: BoxedBatchOp<'a>, t: &'a Table) -> BatchHdgj<'a> {
        BatchHdgj::new(outer, 1, inner_scan(t, Work::new()), 0, 0, Work::new())
    }

    /// Group of the next batch, `None` at end of stream.
    fn next_group<'a>(op: &mut dyn BatchOperator<'a>) -> Option<i64> {
        op.next_batch().and_then(|b| b.try_int(0, b.first().unwrap()))
    }

    /// The join a tuple at a time: nested loops over the outer rows and
    /// the inner table in row order.
    fn tuple_join(t: &Table) -> Vec<Row> {
        let mut out = Vec::new();
        for o in outer_rows() {
            for i in t.rows().filter(|i| i.get(0) == *o.get(1)) {
                out.push(o.concat(&i.to_row()));
            }
        }
        out
    }

    #[test]
    fn idgj_joins_in_group_order() {
        let t = inner_table();
        let got = batch_collect_all(&mut idgj(grouped_outer(), &t));
        // Group 100: keys 1 (no match), 2 -> two, 3 -> three, tres.
        // Group 200: 2 -> two, 9 none. Group 300: 3 -> three, tres.
        assert_eq!(got.len(), 6);
        let groups: Vec<i64> = got.iter().map(|r| r.get(0).as_int()).collect();
        assert_eq!(groups, vec![100, 100, 100, 200, 300, 300]);
    }

    #[test]
    fn idgj_group_skip_delegates() {
        let t = inner_table();
        // One-row outer batches, so the skip finds the rest of the group
        // still inside the outer scan and has to hand it down.
        with_batch_rows(1, || {
            let (wo, wj) = (Work::new(), Work::new());
            let outer = BatchValuesScan::grouped(outer_rows(), 0, wo.clone());
            let mut j = BatchIdgj::new(Box::new(outer), 1, &t, 0, 0, wj.clone());
            assert_eq!(next_group(&mut j), Some(100));
            let probed = wj.get();
            j.advance_to_next_group();
            assert_eq!(wo.get(), 3, "the outer scan stepped over (100, 3)");
            assert_eq!(wj.get(), probed, "and the join never probed it");
            assert_eq!(next_group(&mut j), Some(200));
            j.advance_to_next_group();
            assert_eq!(next_group(&mut j), Some(300));
        });
    }

    #[test]
    fn idgj_fallback_drain_when_input_ungrouped() {
        let t = inner_table();
        // One-row batches: the next group starts in a later outer batch,
        // which the drain has to find and keep.
        with_batch_rows(1, || {
            let mut j = idgj(ungrouped_outer(), &t);
            assert_eq!(next_group(&mut j), Some(100));
            j.advance_to_next_group();
            assert_eq!(next_group(&mut j), Some(200));
        });
    }

    #[test]
    fn idgj_advance_before_any_next_is_noop() {
        let t = inner_table();
        let mut j = idgj(grouped_outer(), &t);
        j.advance_to_next_group();
        assert_eq!(next_group(&mut j), Some(100));
    }

    #[test]
    fn hdgj_matches_idgj_output() {
        let t = inner_table();
        let mut i = idgj(grouped_outer(), &t);
        let mut h = hdgj(grouped_outer(), &t);
        assert_eq!(batch_collect_all(&mut i), batch_collect_all(&mut h));
    }

    #[test]
    fn hdgj_rescans_inner_per_group() {
        let t = inner_table();
        let wi = Work::new();
        let mut h =
            BatchHdgj::new(grouped_outer(), 1, inner_scan(&t, wi.clone()), 0, 0, Work::new());
        let _ = batch_collect_all(&mut h);
        assert_eq!(wi.get(), 9, "3 groups × 3 inner rows");
    }

    #[test]
    fn hdgj_group_skip() {
        let t = inner_table();
        // Ungrouped outer: one multi-group batch, split internally.
        let mut h = hdgj(ungrouped_outer(), &t);
        assert_eq!(next_group(&mut h), Some(100));
        h.advance_to_next_group();
        assert_eq!(next_group(&mut h), Some(200));
        h.advance_to_next_group();
        assert_eq!(next_group(&mut h), Some(300));
    }

    #[test]
    fn distinct_topk_over_idgj() {
        let t = inner_table();
        // k beyond the stream: every group once, then a clean end.
        let top = batch_collect_distinct_topk(&mut idgj(grouped_outer(), &t), 0, 10);
        let groups: Vec<i64> = top.iter().map(|r| r.get(0).as_int()).collect();
        assert_eq!(groups, vec![100, 200, 300]);
    }

    #[test]
    fn batch_idgj_matches_tuple_idgj() {
        let t = inner_table();
        for size in [1, 2, 3, 7] {
            let got = with_batch_rows(size, || batch_collect_all(&mut idgj(grouped_outer(), &t)));
            assert_eq!(got, tuple_join(&t), "batch size {size}");
        }
    }

    #[test]
    fn batch_idgj_group_skip() {
        let t = inner_table();
        let mut j = idgj(grouped_outer(), &t);
        assert_eq!(next_group(&mut j), Some(100));
        j.advance_to_next_group();
        assert_eq!(next_group(&mut j), Some(200));
    }

    #[test]
    fn batch_idgj_fallback_drain_when_input_ungrouped() {
        let t = inner_table();
        // Ungrouped outer: one multi-group batch, split internally.
        let mut j = idgj(ungrouped_outer(), &t);
        assert_eq!(next_group(&mut j), Some(100));
        j.advance_to_next_group();
        assert_eq!(next_group(&mut j), Some(200));
    }

    #[test]
    fn batch_hdgj_matches_tuple_hdgj() {
        let t = inner_table();
        for size in [1, 2, 3, 7] {
            let got = with_batch_rows(size, || batch_collect_all(&mut hdgj(grouped_outer(), &t)));
            assert_eq!(got, tuple_join(&t), "batch size {size}");
        }
    }

    #[test]
    fn batch_hdgj_group_skip_and_rescan_cost() {
        let t = inner_table();
        let w = Work::new();
        let mut h = BatchHdgj::new(grouped_outer(), 1, inner_scan(&t, w.clone()), 0, 0, w.clone());
        assert_eq!(next_group(&mut h), Some(100));
        h.advance_to_next_group();
        assert_eq!(next_group(&mut h), Some(200));
        let _ = batch_collect_all(&mut h);
        // Inner re-scanned per group: at least 3 groups × 3 inner rows.
        assert!(w.get() >= 9, "work = {}", w.get());
    }

    #[test]
    fn batch_distinct_topk_over_idgj() {
        let t = inner_table();
        let top2 = batch_collect_distinct_topk(&mut idgj(grouped_outer(), &t), 0, 2);
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[0].get(0).as_int(), 100);
        assert_eq!(top2[1].get(0).as_int(), 200);
    }

    #[test]
    fn batch_pk_semi_join_refines_selection_and_passes_group_skips_through() {
        let mut ents = Table::new(TableSchema::new(
            "Ent",
            vec![ColumnDef::new("id", ValueType::Int), ColumnDef::new("v", ValueType::Str)],
            Some(0),
        ));
        for (id, v) in [(1i64, "keep"), (2, "drop"), (3, "keep")] {
            ents.insert(row![id, v]).unwrap();
        }
        let pred = Predicate::eq(1, "keep");
        let w = Work::new();
        let mut j = BatchPkSemiJoin::new(grouped_outer(), 1, &ents, &pred, w.clone());
        assert!(j.grouped());
        // Group 100 has keys 1, 2, 3: key 2 fails σ, and nothing of the
        // entity row is appended.
        let b = j.next_batch().unwrap();
        assert!(b.sel_invariants_hold());
        assert_eq!(b.materialize(), vec![row![100i64, 1i64], row![100i64, 3i64]]);
        assert_eq!(w.get(), 6, "three rows pulled, three pk probes");
        // Group 200 (keys 2, 9) has no survivor; group 300 follows.
        assert_eq!(j.next_batch().unwrap().materialize(), vec![row![300i64, 3i64]]);
        j.rewind();
        j.next_batch().unwrap();
        j.advance_to_next_group();
        assert_eq!(j.next_batch().unwrap().materialize(), vec![row![300i64, 3i64]]);
    }
}
