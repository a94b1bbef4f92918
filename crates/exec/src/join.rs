//! The regular (non-DGJ) join operator: hash join.

use ts_storage::faults::{self, sites, FireAction};
use ts_storage::{FastMap, Row, Value};

use crate::batch::{Batch, BatchOperator, BoxedBatchOp};
use crate::op::Work;

/// Vectorized hash join: hashes the build side once (pulled as
/// batches), then probes one batch at a time, assembling output
/// column-wise — no intermediate `Row` per output tuple. Output is
/// `probe_row ++ build_row`, in probe order, matches in build order.
///
/// As §5.2 of the paper notes, a regular hash join does **not** preserve
/// the order of groups cheaply exploitable for skipping — it reports
/// `grouped() == false`, which is exactly why the ET plans need DGJ
/// operators instead.
pub struct BatchHashJoin<'a> {
    probe: BoxedBatchOp<'a>,
    build: BoxedBatchOp<'a>,
    probe_col: usize,
    build_col: usize,
    table: Option<FastMap<Value, Vec<Row>>>,
    work: Work,
}

impl<'a> BatchHashJoin<'a> {
    /// Join `probe` and `build` on `probe_col = build_col`.
    pub fn new(
        probe: BoxedBatchOp<'a>,
        probe_col: usize,
        build: BoxedBatchOp<'a>,
        build_col: usize,
        work: Work,
    ) -> Self {
        BatchHashJoin { probe, probe_col, build, build_col, table: None, work }
    }

    fn build_table(&mut self) {
        if self.table.is_some() {
            return;
        }
        if let FireAction::Starve = faults::fire(sites::EXEC_JOIN_BUILD) {
            self.work.starve();
        }
        let mut map: FastMap<Value, Vec<Row>> = FastMap::default();
        while let Some(b) = self.build.next_batch() {
            self.work.tick(b.selected() as u64);
            for i in b.sel_iter() {
                map.entry(b.value(self.build_col, i)).or_default().push(b.materialize_row(i));
            }
        }
        self.table = Some(map);
    }
}

impl<'a> BatchOperator<'a> for BatchHashJoin<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        self.build_table();
        loop {
            if self.work.interrupted() {
                return None;
            }
            let pb = self.probe.next_batch()?;
            self.work.tick(pb.selected() as u64);
            #[expect(
                clippy::expect_used,
                reason = "build_table() at the top of next_batch() guarantees the table is Some before any probe"
            )]
            let table = self.table.as_ref().expect("built");
            // Column-wise output builders, sized lazily at first match.
            let mut out: Vec<Vec<Value>> = Vec::new();
            let mut emitted = 0usize;
            for i in pb.sel_iter() {
                let Some(matches) = table.get(&pb.value(self.probe_col, i)) else { continue };
                for m in matches {
                    if out.is_empty() {
                        out = vec![Vec::new(); pb.arity() + m.arity()];
                    }
                    for (c, builder) in out.iter_mut().enumerate().take(pb.arity()) {
                        builder.push(pb.value(c, i));
                    }
                    for (c, v) in m.values().enumerate() {
                        out[pb.arity() + c].push(v.clone());
                    }
                    emitted += 1;
                }
            }
            if emitted > 0 {
                return Some(Batch::from_val_cols(out));
            }
        }
    }

    fn rewind(&mut self) {
        self.probe.rewind();
        // Keep the built hash table: the build side is immutable input.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::batch_collect_all;
    use crate::scan::BatchValuesScan;
    use ts_storage::row;

    fn values<'a>(rows: Vec<Row>) -> BoxedBatchOp<'a> {
        Box::new(BatchValuesScan::new(rows, Work::new()))
    }

    #[test]
    fn hash_join_matches_pairs() {
        let probe = values(vec![row![1i64, "L1"], row![2i64, "L2"], row![3i64, "L3"]]);
        let build = values(vec![row![1i64, "R1"], row![1i64, "R1b"], row![2i64, "R2"]]);
        let mut j = BatchHashJoin::new(probe, 0, build, 0, Work::new());
        let got = batch_collect_all(&mut j);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], row![1i64, "L1", 1i64, "R1"]);
        assert_eq!(got[1], row![1i64, "L1", 1i64, "R1b"]);
        assert_eq!(got[2], row![2i64, "L2", 2i64, "R2"]);
        j.rewind();
        assert_eq!(batch_collect_all(&mut j).len(), 3);
    }

    #[test]
    fn hash_join_empty_sides() {
        let mut j = BatchHashJoin::new(values(vec![]), 0, values(vec![row![1i64]]), 0, Work::new());
        assert!(batch_collect_all(&mut j).is_empty());
        let mut j2 =
            BatchHashJoin::new(values(vec![row![1i64]]), 0, values(vec![]), 0, Work::new());
        assert!(batch_collect_all(&mut j2).is_empty());
    }
}
