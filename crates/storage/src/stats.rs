//! Catalog statistics.
//!
//! §5.4.3 of the paper assumes the database system keeps (1) group counts,
//! (2) group cardinalities, (3) relation cardinalities `N_i`, (4) index
//! probe costs `I_i`, (5) local-predicate selectivities `ρ_i`, and (6) join
//! selectivities `s_i`, noting that these "can be calculated using
//! selectivity and join estimation techniques". This module is those
//! techniques: per-column distinct counts, most-common-value sketches, and
//! keyword document frequencies, collected in one pass over a table.

use crate::column::ColumnStore;
use crate::hash::FastMap;
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
    /// For string columns: token → number of rows containing the token.
    pub token_doc_freq: FastMap<String, u64>,
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
    /// integer columns hash their raw `i64` buffer, string columns count
    /// rows per pooled string — so token document frequencies are
    /// computed once per *distinct* string and multiplied by its row
    /// count, instead of re-tokenizing every row.
    pub fn collect(schema: &TableSchema, store: &ColumnStore) -> Self {
        let columns = (0..schema.arity())
            .map(|c| {
                // One counting pass per column: Str columns derive value
                // counts AND token frequencies from a single str_counts
                // scan; Int columns take the sort-and-run-length pass.
                let mut token_doc_freq: FastMap<String, u64> = FastMap::default();
                // Token scratch, reused across the column's pooled
                // strings; sort-dedup replaces the old `Vec::contains`
                // probe, which was O(tokens²) per string.
                let mut toks: Vec<&str> = Vec::new();
                let counts: Vec<(Value, u64)> = match schema.column_type(c) {
                    ValueType::Int => store.value_counts(c),
                    ValueType::Str => store
                        .str_counts(c)
                        .into_iter()
                        .map(|(s, rows)| {
                            // Count each token once per row (document
                            // frequency); rows sharing a pooled string
                            // share its token set.
                            toks.clear();
                            toks.extend(s.split_whitespace());
                            toks.sort_unstable();
                            toks.dedup();
                            for &tok in &toks {
                                // Probe with the borrowed token; a key
                                // is only allocated the first time the
                                // token is seen in the column.
                                match token_doc_freq.get_mut(tok) {
                                    Some(df) => *df += rows,
                                    None => {
                                        token_doc_freq.insert(tok.to_string(), rows);
                                    }
                                }
                            }
                            (Value::Str(std::sync::Arc::clone(s)), rows)
                        })
                        .collect(),
                };
                let non_null: u64 = counts.iter().map(|&(_, n)| n).sum();
                let distinct = counts.len() as u64;
                let mut mcv = counts;
                mcv.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                mcv.truncate(MCV_LIMIT);
                ColumnStats { non_null, distinct, mcv, token_doc_freq }
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

    /// Selectivity of `col.ct(keyword)` from the token document frequency.
    pub fn contains_selectivity(&self, col: ColumnId, keyword: &str) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let Some(cs) = self.columns.get(col) else { return 0.0 };
        match cs.token_doc_freq.get(keyword) {
            Some(&df) => df as f64 / self.rows as f64,
            None => 0.0,
        }
    }

    /// Distinct count for a column (0 if unknown).
    pub fn distinct(&self, col: ColumnId) -> u64 {
        self.columns.get(col).map(|c| c.distinct).unwrap_or(0)
    }
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
        // Regression for the sort-dedup rewrite: document frequencies
        // must match a naive first-occurrence scan exactly, including on
        // strings with heavy in-string repetition and shared rows.
        let s = store_of(
            &schema(),
            &[
                row![1i64, "mRNA", "ubi ubi ubi carrier ubi protein protein"],
                row![2i64, "mRNA", "ubi ubi ubi carrier ubi protein protein"],
                row![3i64, "mRNA", "protein carrier"],
                row![4i64, "EST", "zz aa zz aa zz"],
                row![5i64, "EST", "aa"],
            ],
        );
        let st = TableStats::collect(&schema(), &s);
        // Naive reference: per row, count each token once.
        let mut reference: crate::hash::FastMap<&str, u64> = Default::default();
        for doc in [
            "ubi ubi ubi carrier ubi protein protein",
            "ubi ubi ubi carrier ubi protein protein",
            "protein carrier",
            "zz aa zz aa zz",
            "aa",
        ] {
            let mut seen: Vec<&str> = Vec::new();
            for tok in doc.split_whitespace() {
                if !seen.contains(&tok) {
                    seen.push(tok);
                    *reference.entry(tok).or_insert(0) += 1;
                }
            }
        }
        assert_eq!(st.columns[2].token_doc_freq.len(), reference.len());
        for (tok, &df) in &reference {
            assert_eq!(st.columns[2].token_doc_freq.get(*tok), Some(&df), "token {tok}");
        }
        assert_eq!(st.columns[2].token_doc_freq.get("ubi"), Some(&2));
        assert_eq!(st.columns[2].token_doc_freq.get("aa"), Some(&2));
        assert_eq!(st.columns[2].token_doc_freq.get("protein"), Some(&3));
    }

    #[test]
    fn nulls_excluded_from_counts() {
        let s = store_of(
            &schema(),
            &[
                row![1i64, "mRNA", "alpha beta"],
                crate::row::Row::new(vec![Value::Int(2), Value::Null, Value::Null]),
            ],
        );
        let st = TableStats::collect(&schema(), &s);
        assert_eq!(st.columns[1].non_null, 1);
        assert_eq!(st.columns[1].distinct, 1);
        assert_eq!(st.columns[2].token_doc_freq.get("alpha"), Some(&1));
    }
}
