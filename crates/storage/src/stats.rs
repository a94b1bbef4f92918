//! Catalog statistics.
//!
//! §5.4.3 of the paper assumes the database system keeps (1) group counts,
//! (2) group cardinalities, (3) relation cardinalities `N_i`, (4) index
//! probe costs `I_i`, (5) local-predicate selectivities `ρ_i`, and (6) join
//! selectivities `s_i`, noting that these "can be calculated using
//! selectivity and join estimation techniques". This module is those
//! techniques: per-column distinct counts, most-common-value sketches, and
//! keyword postings, collected in one pass over a table.
//!
//! The keyword postings are an index as well as an estimate. §6.1 runs
//! every method with "indices on all the primary keys and queried
//! attributes"; for the paper's `.ct(keyword)` predicate that index is
//! token → the rows containing it, which is exactly what a document
//! frequency counts. So each string column keeps the row lists
//! themselves: a list's length is the frequency the selectivity estimate
//! reads, and [`crate::Table::select_rows`] answers `Contains` from the
//! list instead of re-tokenising every row.

use std::sync::Arc;

use crate::cast::to_u32;
use crate::column::ColumnStore;
use crate::hash::FastMap;
use crate::row::RowId;
use crate::schema::{ColumnId, TableSchema};
use crate::value::{Value, ValueType};

/// Number of most-common values tracked exactly per column.
const MCV_LIMIT: usize = 64;

/// Statistics for one column.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// Number of non-null values.
    pub non_null: u64,
    /// Number of distinct non-null values.
    pub distinct: u64,
    /// Most common values with exact counts (top 64 by count).
    pub mcv: Vec<(Value, u64)>,
    /// For string columns: token → the ids of the rows containing it,
    /// ascending. A list's length is the token's document frequency.
    pub token_rows: FastMap<String, Vec<RowId>>,
}

/// Statistics for one table.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Total row count.
    pub rows: u64,
    /// Per-column statistics, indexed by [`ColumnId`].
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Collect statistics from the columnar buffers, column by column:
    /// integer columns take a sort-and-run-length pass over their raw
    /// `i64` buffer, string columns take [`str_column`]'s passes.
    pub fn collect(schema: &TableSchema, store: &ColumnStore) -> Self {
        let columns = (0..schema.arity())
            .map(|c| {
                let (counts, token_rows) = match schema.column_type(c) {
                    ValueType::Int => (store.int_counts(c), FastMap::default()),
                    ValueType::Str => str_column(store, c),
                };
                let non_null: u64 = counts.iter().map(|&(_, n)| n).sum();
                let distinct = counts.len() as u64;
                let mut mcv = counts;
                mcv.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                mcv.truncate(MCV_LIMIT);
                ColumnStats { non_null, distinct, mcv, token_rows }
            })
            .collect();

        TableStats { rows: store.len() as u64, columns }
    }

    /// Selectivity of `col = value`.
    ///
    /// Exact if the value is among the tracked most-common values;
    /// otherwise the uniform `1/distinct` estimate over the residual mass.
    pub fn eq_selectivity(&self, col: ColumnId, value: &Value) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let Some(cs) = self.columns.get(col) else { return 0.0 };
        if let Some((_, count)) = cs.mcv.iter().find(|(v, _)| v == value) {
            return *count as f64 / self.rows as f64;
        }
        let mcv_rows: u64 = cs.mcv.iter().map(|(_, c)| c).sum();
        let mcv_distinct = cs.mcv.len() as u64;
        let rest_rows = cs.non_null.saturating_sub(mcv_rows);
        let rest_distinct = cs.distinct.saturating_sub(mcv_distinct);
        if rest_distinct == 0 {
            // All values tracked and `value` is not among them.
            return 0.0;
        }
        (rest_rows as f64 / rest_distinct as f64) / self.rows as f64
    }

    /// Selectivity of `col.ct(keyword)`: the keyword's posting length,
    /// its document frequency, over the row count.
    pub fn contains_selectivity(&self, col: ColumnId, keyword: &str) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        match self.token_rows(col, keyword) {
            Some(rows) => rows.len() as f64 / self.rows as f64,
            None => 0.0,
        }
    }

    /// The ascending ids of the rows whose `col` contains `keyword` as a
    /// token; `None` for a column this table does not have. A token no
    /// row contains (an empty keyword, one holding whitespace, any
    /// keyword on an Int column) has the empty list.
    pub fn token_rows(&self, col: ColumnId, keyword: &str) -> Option<&[RowId]> {
        let cs = self.columns.get(col)?;
        Some(cs.token_rows.get(keyword).map_or(&[], Vec::as_slice))
    }

    /// Distinct count for a column (0 if unknown).
    pub fn distinct(&self, col: ColumnId) -> u64 {
        self.columns.get(col).map(|c| c.distinct).unwrap_or(0)
    }
}

/// [`ColumnStats::token_rows`]'s type.
type TokenRows = FastMap<String, Vec<RowId>>;

/// Value counts and keyword postings of one string column, tokenising
/// each distinct pooled string once, however many rows share it:
///
/// 1. count the rows of each pool id;
/// 2. split every string that occurs into its distinct tokens with the
///    `split_whitespace` that `Predicate::eval_ref` uses, kept as one
///    flat run of token ids per pool id, and sum each token's rows;
/// 3. walk the rows in order and append each to its string's tokens —
///    every list is allocated at its final length and comes out
///    ascending.
fn str_column(store: &ColumnStore, col: ColumnId) -> (Vec<(Value, u64)>, TokenRows) {
    let rows_of = store.str_counts(col);
    let mut token_ids: FastMap<&str, u32> = FastMap::default();
    let mut tokens: Vec<&str> = Vec::new();
    let mut doc_freq: Vec<usize> = Vec::new();
    // Pool id p's tokens are `flat[offsets[p]..offsets[p + 1]]`.
    let mut offsets: Vec<usize> = Vec::with_capacity(rows_of.len() + 1);
    let mut flat: Vec<u32> = Vec::new();
    let mut toks: Vec<u32> = Vec::new();
    let mut counts = Vec::new();
    offsets.push(0);
    for (id, &rows) in rows_of.iter().enumerate() {
        if rows > 0 {
            let s = store.pool_str(to_u32(id));
            toks.clear();
            toks.extend(s.split_whitespace().map(|tok| {
                *token_ids.entry(tok).or_insert_with(|| {
                    tokens.push(tok);
                    doc_freq.push(0);
                    to_u32(tokens.len() - 1)
                })
            }));
            // A row counts once per token, however often its string
            // repeats the token.
            toks.sort_unstable();
            toks.dedup();
            for &t in &toks {
                doc_freq[t as usize] += rows;
            }
            flat.extend_from_slice(&toks);
            counts.push((Value::Str(Arc::clone(s)), rows as u64));
        }
        offsets.push(flat.len());
    }

    let mut postings: Vec<Vec<RowId>> = doc_freq.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (row, id) in store.str_cells(col) {
        let id = id as usize;
        for &t in &flat[offsets[id]..offsets[id + 1]] {
            postings[t as usize].push(row);
        }
    }
    let token_rows = tokens.into_iter().map(str::to_owned).zip(postings).collect();
    (counts, token_rows)
}

/// Estimate the selectivity of an equi-join between two columns using the
/// textbook `1 / max(d1, d2)` rule — the optimizer's `s_i` (§5.4.3 item 6).
pub fn join_selectivity(
    left: &TableStats,
    lcol: ColumnId,
    right: &TableStats,
    rcol: ColumnId,
) -> f64 {
    let d1 = left.distinct(lcol).max(1);
    let d2 = right.distinct(rcol).max(1);
    1.0 / d1.max(d2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{ColumnDef, TableSchema};

    fn schema() -> TableSchema {
        TableSchema::new(
            "DNA",
            vec![
                ColumnDef::new("ID", ValueType::Int),
                ColumnDef::new("type", ValueType::Str),
                ColumnDef::new("defs", ValueType::Str),
            ],
            Some(0),
        )
    }

    fn store_of(schema: &TableSchema, rows: &[crate::row::Row]) -> ColumnStore {
        let mut s = ColumnStore::new(schema.columns.iter().map(|c| c.ty));
        for r in rows {
            s.push_row(r);
        }
        s
    }

    fn rows() -> ColumnStore {
        store_of(
            &schema(),
            &[
                row![1i64, "mRNA", "human ubiquitin carrier protein mRNA"],
                row![2i64, "mRNA", "homo sapiens MMS2 mRNA complete cds"],
                row![3i64, "EST", "sampled short sequence"],
                row![4i64, "genomic", "chromosome fragment"],
            ],
        )
    }

    #[test]
    fn eq_selectivity_from_mcv_is_exact() {
        let st = TableStats::collect(&schema(), &rows());
        assert!((st.eq_selectivity(1, &Value::str("mRNA")) - 0.5).abs() < 1e-12);
        assert!((st.eq_selectivity(1, &Value::str("EST")) - 0.25).abs() < 1e-12);
        assert_eq!(st.eq_selectivity(1, &Value::str("tRNA")), 0.0);
    }

    #[test]
    fn contains_selectivity_counts_documents_not_tokens() {
        let st = TableStats::collect(&schema(), &rows());
        assert!((st.contains_selectivity(2, "mRNA") - 0.5).abs() < 1e-12);
        assert_eq!(st.contains_selectivity(2, "plasmid"), 0.0);
    }

    #[test]
    fn distinct_counts() {
        let st = TableStats::collect(&schema(), &rows());
        assert_eq!(st.distinct(0), 4);
        assert_eq!(st.distinct(1), 3);
    }

    #[test]
    fn join_selectivity_uses_max_distinct() {
        let a = TableStats::collect(&schema(), &rows());
        let two = store_of(
            &schema(),
            &[
                row![1i64, "mRNA", "human ubiquitin carrier protein mRNA"],
                row![2i64, "mRNA", "homo sapiens MMS2 mRNA complete cds"],
            ],
        );
        let b = TableStats::collect(&schema(), &two);
        let s = join_selectivity(&a, 0, &b, 0);
        assert!((s - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_table_has_zero_selectivity() {
        let st = TableStats::collect(&schema(), &store_of(&schema(), &[]));
        assert_eq!(st.eq_selectivity(1, &Value::str("mRNA")), 0.0);
        assert_eq!(st.contains_selectivity(2, "x"), 0.0);
    }

    #[test]
    fn token_dedup_matches_naive_reference() {
        // Every row's tokens, each listed once per row however often the
        // row repeats it, in row order — against a naive first-occurrence
        // scan, on strings with heavy in-string repetition, rows sharing
        // one pooled string, tabs, and a whitespace-only string.
        let docs = [
            "ubi ubi ubi carrier ubi protein protein",
            "protein carrier",
            "ubi ubi ubi carrier ubi protein protein",
            "zz aa zz\taa  zz",
            " \t ",
            "aa",
        ];
        let rows: Vec<crate::row::Row> =
            docs.iter().enumerate().map(|(i, d)| row![i as i64, "mRNA", *d]).collect();
        let st = TableStats::collect(&schema(), &store_of(&schema(), &rows));
        let mut reference: crate::hash::FastMap<&str, Vec<RowId>> = Default::default();
        for (row, doc) in docs.iter().enumerate() {
            let mut seen: Vec<&str> = Vec::new();
            for tok in doc.split_whitespace() {
                if !seen.contains(&tok) {
                    seen.push(tok);
                    reference.entry(tok).or_default().push(to_u32(row));
                }
            }
        }
        let got = &st.columns[2].token_rows;
        assert_eq!(got.len(), reference.len());
        for (tok, want) in &reference {
            assert_eq!(got.get(*tok), Some(want), "token {tok}");
        }
        assert_eq!(got["ubi"], [0, 2]);
        assert_eq!(got["protein"], [0, 1, 2]);
        assert_eq!(got["aa"], [3, 5]);
        assert_eq!(st.token_rows(2, ""), Some(&[][..]));
        assert_eq!(st.token_rows(2, "zz aa"), Some(&[][..]));
        assert_eq!(st.token_rows(0, "ubi"), Some(&[][..]), "an Int column has no tokens");
        assert_eq!(st.token_rows(9, "ubi"), None, "no such column");
    }

    #[test]
    fn nulls_excluded_from_counts() {
        let s = store_of(
            &schema(),
            &[
                crate::row::Row::new(vec![Value::Int(2), Value::Null, Value::Null]),
                row![1i64, "mRNA", "alpha beta"],
            ],
        );
        let st = TableStats::collect(&schema(), &s);
        assert_eq!(st.columns[1].non_null, 1);
        assert_eq!(st.columns[1].distinct, 1);
        assert_eq!(st.token_rows(2, "alpha"), Some(&[1][..]));
    }
}
