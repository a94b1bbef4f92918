//! Materializing sort.

use ts_storage::faults::{self, sites, FireAction};
use ts_storage::Value;

use crate::batch::{batch_rows, Batch, BatchOperator, BoxedBatchOp, Col};
use crate::op::Work;

/// Sort direction per key column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Ascending.
    Asc,
    /// Descending (the `ORDER BY score DESC` of the paper's SQL3/SQL4).
    Desc,
}

/// One materialized, sorted column of a [`BatchSort`] buffer.
enum SortedCol {
    /// All-Int column kept as a raw `i64` buffer.
    Int(Vec<i64>),
    /// Everything else.
    Val(Vec<Value>),
}

impl SortedCol {
    fn value(&self, i: usize) -> Value {
        match self {
            SortedCol::Int(v) => Value::Int(v[i]),
            SortedCol::Val(v) => v[i].clone(),
        }
    }
}

/// Vectorized, full materializing sort on a list of `(column,
/// direction)` keys.
///
/// Gathers the input into column-major buffers, sorts a permutation,
/// and emits batches from the permuted columns. All-Int columns — keys
/// and payload alike — stay raw `i64` buffers end to end: no per-row
/// scratch key, no per-row `Value`, and a number of allocations
/// proportional to the column count, not the row count (held to that
/// by the counting-allocator tests in `sort_allocs.rs`).
///
/// After sorting, the stream is clustered by the first key column, so a
/// sort on the group column upgrades an ungrouped stream to a grouped
/// one (this is how the non-ET plans produce score order in the final
/// step — paying the blocking cost that DGJ plans avoid); emitted
/// batches are clipped at group boundaries so the grouped batch-stream
/// invariant holds.
pub struct BatchSort<'a> {
    input: BoxedBatchOp<'a>,
    keys: Vec<(usize, Dir)>,
    buffer: Option<Vec<SortedCol>>,
    len: usize,
    pos: usize,
    /// First-key value of the last emitted row — the group boundary for
    /// `advance_to_next_group`.
    last_group: Option<Value>,
    work: Work,
}

impl<'a> BatchSort<'a> {
    /// Sort `input` by `keys`.
    pub fn new(input: BoxedBatchOp<'a>, keys: Vec<(usize, Dir)>, work: Work) -> Self {
        BatchSort { input, keys, buffer: None, len: 0, pos: 0, last_group: None, work }
    }

    fn fill(&mut self) {
        if self.buffer.is_some() {
            return;
        }
        if let FireAction::Starve = faults::fire(sites::EXEC_SORT_FILL) {
            self.work.starve();
        }
        // Drain the input, gathering each column into a flat buffer:
        // raw i64 when every batch holds the column Int-represented,
        // owned values otherwise.
        let mut cols: Vec<SortedCol> = Vec::new();
        let mut n = 0usize;
        while let Some(b) = self.input.next_batch() {
            self.work.tick(b.selected() as u64);
            if cols.is_empty() {
                cols = (0..b.arity()).map(|_| SortedCol::Int(Vec::new())).collect();
            }
            for (c, col) in cols.iter_mut().enumerate() {
                // Demote to Value storage at the first non-Int chunk.
                if let SortedCol::Int(ints) = col {
                    if let Some(buf) = b.col(c).int_slice() {
                        ints.extend(b.sel_iter().map(|i| buf[i]));
                        continue;
                    }
                    let mut vals: Vec<Value> = ints.iter().map(|&k| Value::Int(k)).collect();
                    vals.extend(b.sel_iter().map(|i| b.value(c, i)));
                    *col = SortedCol::Val(vals);
                    continue;
                }
                if let SortedCol::Val(vals) = col {
                    vals.extend(b.sel_iter().map(|i| b.value(c, i)));
                }
            }
            n += b.selected();
        }
        self.len = n;
        // Sort a permutation by the key columns (stable), then permute
        // every column once.
        let mut perm: Vec<u32> = (0..n).map(ts_storage::cast::to_u32).collect();
        let keys = &self.keys;
        perm.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            for &(col, dir) in keys {
                let ord = match &cols[col] {
                    SortedCol::Int(v) => v[a].cmp(&v[b]),
                    SortedCol::Val(v) => v[a].cmp(&v[b]),
                };
                let ord = match dir {
                    Dir::Asc => ord,
                    Dir::Desc => ord.reverse(),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let sorted = cols
            .into_iter()
            .map(|col| match col {
                SortedCol::Int(v) => SortedCol::Int(perm.iter().map(|&i| v[i as usize]).collect()),
                SortedCol::Val(mut v) => {
                    let out = perm
                        .iter()
                        .map(|&i| std::mem::replace(&mut v[i as usize], Value::Null))
                        .collect();
                    SortedCol::Val(out)
                }
            })
            .collect();
        self.buffer = Some(sorted);
    }
}

impl<'a> BatchOperator<'a> for BatchSort<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        if self.work.interrupted() {
            return None;
        }
        self.fill();
        #[expect(
            clippy::expect_used,
            reason = "fill() on the line above guarantees the buffer is Some"
        )]
        let buf = self.buffer.as_ref().expect("filled");
        // A budget that tripped while fill() drained the input leaves a
        // sort of part of it, which is no prefix of the sorted stream.
        if self.work.interrupted() {
            return None;
        }
        if self.pos >= self.len {
            return None;
        }
        let mut end = (self.pos + batch_rows()).min(self.len);
        // Clip at the first key column's group boundary.
        if let Some(&(col, _)) = self.keys.first() {
            let group = buf[col].value(self.pos);
            let mut e = self.pos + 1;
            while e < end && buf[col].value(e) == group {
                e += 1;
            }
            end = e;
            self.last_group = Some(group);
        }
        let cols: Vec<Col<'a>> = buf
            .iter()
            .map(|c| match c {
                SortedCol::Int(v) => Col::IntOwned(v[self.pos..end].to_vec()),
                SortedCol::Val(v) => Col::Vals(v[self.pos..end].to_vec()),
            })
            .collect();
        let out = Batch::new(cols, end - self.pos);
        self.pos = end;
        Some(out)
    }

    fn rewind(&mut self) {
        // The sorted buffer is kept (emission copies out of it), so a
        // rewind just resets the cursor.
        self.pos = 0;
        self.last_group = None;
    }

    fn grouped(&self) -> bool {
        true
    }

    fn advance_to_next_group(&mut self) {
        self.fill();
        let Some(&(col, _)) = self.keys.first() else { return };
        let Some(current) = self.last_group.clone() else {
            return; // nothing emitted yet: already at a group boundary
        };
        #[expect(
            clippy::expect_used,
            reason = "fill() on the line above guarantees the buffer is Some"
        )]
        let buf = self.buffer.as_ref().expect("filled");
        while self.pos < self.len && buf[col].value(self.pos) == current {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::with_batch_rows;
    use crate::driver::batch_collect_all;
    use crate::scan::BatchValuesScan;
    use ts_storage::{row, Row};

    fn sort_of(rows: Vec<Row>, keys: Vec<(usize, Dir)>) -> BatchSort<'static> {
        BatchSort::new(Box::new(BatchValuesScan::new(rows, Work::new())), keys, Work::new())
    }

    fn two_groups() -> Vec<Row> {
        vec![row![10i64, 1i64], row![20i64, 2i64], row![10i64, 3i64], row![20i64, 4i64]]
    }

    #[test]
    fn sorts_desc_then_asc() {
        let rows = vec![row![1i64, 5i64], row![2i64, 9i64], row![3i64, 5i64]];
        let mut s = sort_of(rows, vec![(1, Dir::Desc), (0, Dir::Asc)]);
        let got = batch_collect_all(&mut s);
        assert_eq!(got, vec![row![2i64, 9i64], row![1i64, 5i64], row![3i64, 5i64]]);
    }

    #[test]
    fn rewind_replays_sorted_output() {
        let mut s = sort_of(vec![row![2i64], row![1i64]], vec![(0, Dir::Asc)]);
        let first = batch_collect_all(&mut s);
        s.rewind();
        assert_eq!(batch_collect_all(&mut s), first);
    }

    #[test]
    fn sorted_stream_supports_group_skip() {
        // One-row batches: the skip has to step over (10, 3) in the
        // sorted buffer.
        with_batch_rows(1, || {
            let mut s = sort_of(two_groups(), vec![(0, Dir::Asc)]);
            assert!(s.grouped());
            assert_eq!(s.next_batch().unwrap().materialize(), vec![row![10i64, 1i64]]);
            s.advance_to_next_group();
            assert_eq!(s.next_batch().unwrap().materialize(), vec![row![20i64, 2i64]]);
        });
    }

    #[test]
    fn batch_sort_matches_tuple_sort() {
        let rows = vec![row![1i64, 5i64], row![2i64, 9i64], row![3i64, 5i64], row![0i64, 9i64]];
        // The same ordering on whole tuples with the standard stable sort.
        let mut tuples = rows.clone();
        tuples.sort_by(|a, b| b.get(1).cmp(a.get(1)).then_with(|| a.get(0).cmp(b.get(0))));
        for size in [1, 2, 5] {
            with_batch_rows(size, || {
                let mut s = sort_of(rows.clone(), vec![(1, Dir::Desc), (0, Dir::Asc)]);
                assert_eq!(batch_collect_all(&mut s), tuples, "batch size {size}");
                s.rewind();
                assert_eq!(batch_collect_all(&mut s), tuples, "batch size {size}, rewound");
            });
        }
    }

    #[test]
    fn batch_sort_handles_str_payload_columns() {
        let rows = vec![row![2i64, "b"], row![1i64, "a"], row![2i64, "a"]];
        let mut s = sort_of(rows, vec![(0, Dir::Asc)]);
        let got = batch_collect_all(&mut s);
        assert_eq!(got, vec![row![1i64, "a"], row![2i64, "b"], row![2i64, "a"]]);
    }

    #[test]
    fn batch_sorted_stream_supports_group_skip() {
        let mut s = sort_of(two_groups(), vec![(0, Dir::Asc)]);
        assert!(s.grouped());
        let b = s.next_batch().unwrap(); // the (10, _) group
        assert_eq!(b.try_int(0, b.first().unwrap()), Some(10));
        s.advance_to_next_group();
        let b2 = s.next_batch().unwrap();
        assert_eq!(b2.try_int(0, b2.first().unwrap()), Some(20));
    }
}
