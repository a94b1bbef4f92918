//! Query predicates.
//!
//! A 2-query in the paper (§2.2) attaches a constraint `con_i` to each
//! entity set; a constraint "may contain multiple predicates, including
//! keyword search clauses and structured predicates". Example 2.1 uses
//! `desc.ct('enzyme')` (keyword containment) and `type = 'mRNA'`
//! (structured equality). [`Predicate`] covers those plus boolean
//! combinators, and knows how to estimate its own selectivity from
//! [`crate::stats::TableStats`] — that estimate is the optimizer's
//! `ρ_i` parameter (§5.4.3, item 5).

use crate::column::RowRef;
use crate::row::Row;
use crate::schema::ColumnId;
use crate::stats::TableStats;
use crate::value::Value;

/// A predicate over rows of a single table.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (no constraint on this entity set).
    True,
    /// Always false (used for degenerate plans in tests).
    False,
    /// `col = value` structured predicate.
    Eq(ColumnId, Value),
    /// Keyword containment: the string column contains `keyword` as a
    /// whitespace-delimited token — the paper's `.ct('enzyme')`.
    Contains(ColumnId, String),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `col = value` helper.
    pub fn eq(col: ColumnId, value: impl Into<Value>) -> Self {
        Predicate::Eq(col, value.into())
    }

    /// Keyword containment helper.
    pub fn contains(col: ColumnId, keyword: impl Into<String>) -> Self {
        Predicate::Contains(col, keyword.into())
    }

    /// Conjunction helper.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Evaluate against a borrowed columnar row — the allocation-free
    /// twin of [`Predicate::eval`], used by table scans and the query
    /// methods' σ passes. Semantics are identical cell for cell (the
    /// storage-conformance suite holds the two to that).
    pub fn eval_ref(&self, row: RowRef<'_>) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Eq(col, v) => row.value_eq(*col, v),
            Predicate::Contains(col, kw) => match row.try_str(*col) {
                Some(s) => s.split_whitespace().any(|tok| tok == kw),
                None => false,
            },
            Predicate::And(a, b) => a.eval_ref(row) && b.eval_ref(row),
            Predicate::Or(a, b) => a.eval_ref(row) || b.eval_ref(row),
            Predicate::Not(a) => !a.eval_ref(row),
        }
    }

    /// Evaluate against a row. A NULL cell satisfies `Eq(col, Value::Null)`
    /// and no other `Eq`, and never satisfies `Contains`; `Not` of a
    /// predicate a NULL fails is true (two-valued logic, not SQL's
    /// three). `eval_ref`, the batch filters and a hash-index probe of
    /// `Value::Null` all agree.
    pub fn eval(&self, row: &Row) -> bool {
        match self {
            Predicate::True => true,
            Predicate::False => false,
            Predicate::Eq(col, v) => row.get(*col) == v,
            Predicate::Contains(col, kw) => match row.get(*col) {
                Value::Str(s) => s.split_whitespace().any(|tok| tok == kw),
                _ => false,
            },
            Predicate::And(a, b) => a.eval(row) && b.eval(row),
            Predicate::Or(a, b) => a.eval(row) || b.eval(row),
            Predicate::Not(a) => !a.eval(row),
        }
    }

    /// Estimate the fraction of rows satisfying this predicate, from table
    /// statistics. Uses the classic System-R independence assumptions.
    pub fn selectivity(&self, stats: &TableStats) -> f64 {
        match self {
            Predicate::True => 1.0,
            Predicate::False => 0.0,
            Predicate::Eq(col, v) => stats.eq_selectivity(*col, v),
            Predicate::Contains(col, kw) => stats.contains_selectivity(*col, kw),
            Predicate::And(a, b) => a.selectivity(stats) * b.selectivity(stats),
            Predicate::Or(a, b) => {
                let (sa, sb) = (a.selectivity(stats), b.selectivity(stats));
                (sa + sb - sa * sb).clamp(0.0, 1.0)
            }
            Predicate::Not(a) => 1.0 - a.selectivity(stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn contains_matches_tokens_not_substrings() {
        let p = Predicate::contains(1, "enzyme");
        assert!(p.eval(&row![1i64, "ubiquitin-conjugating enzyme UBCi"]));
        // "enzymes" is a different token; `.ct` is token containment here.
        assert!(!p.eval(&row![2i64, "enzymes galore"]));
        assert!(!p.eval(&row![3i64, 9i64])); // wrong type -> false
    }

    #[test]
    fn eq_and_boolean_combinators() {
        let p = Predicate::eq(1, "mRNA").and(Predicate::eq(0, 5i64));
        assert!(p.eval(&row![5i64, "mRNA"]));
        assert!(!p.eval(&row![5i64, "EST"]));
        let q = Predicate::eq(1, "mRNA").or(Predicate::eq(1, "EST"));
        assert!(q.eval(&row![5i64, "EST"]));
        let n = Predicate::Not(Box::new(Predicate::True));
        assert!(!n.eval(&row![1i64]));
    }

    #[test]
    fn null_never_matches_a_non_null_eq_or_contains() {
        let p = Predicate::eq(0, 1i64);
        assert!(!p.eval(&Row::new(vec![Value::Null])));
        let c = Predicate::contains(0, "x");
        assert!(!c.eval(&Row::new(vec![Value::Null])));
    }

    #[test]
    fn eq_null_matches_null_cells_in_eval_eval_ref_and_an_index_probe() {
        let mut t = crate::Table::new(crate::TableSchema::new(
            "N",
            vec![crate::ColumnDef::new("s", crate::ValueType::Str)],
            None,
        ));
        t.insert(Row::new(vec![Value::Null])).unwrap();
        t.insert(row!["x"]).unwrap();
        t.create_index(0);
        let is_null = Predicate::Eq(0, Value::Null);
        assert!(is_null.eval(&Row::new(vec![Value::Null])));
        assert!(!is_null.eval(&row!["x"]));
        assert_eq!(t.scan(&is_null), [0]);
        assert_eq!(t.index_probe(0, &Value::Null), [0]);
        // Two-valued: `Not` of a failed `Contains` keeps the NULL row.
        assert_eq!(t.scan(&Predicate::Not(Box::new(Predicate::contains(0, "x")))), [0]);
    }
}
