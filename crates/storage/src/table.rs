//! Tables: columnar row storage + indexes + statistics.

use std::borrow::Cow;

use crate::cast::to_u32;
use crate::column::{ColumnStore, RowRef};
use crate::error::StorageError;
use crate::hash::FastMap;
use crate::index::HashIndex;
use crate::predicate::Predicate;
use crate::row::{Row, RowId};
use crate::schema::{ColumnId, TableSchema};
use crate::stats::TableStats;
use crate::value::{Value, ValueType};

/// A table: a schema over a [`ColumnStore`], an optional unique
/// primary-key index, secondary hash indexes, and lazily refreshed
/// statistics. Rows are stored column-major — inserts, scans, and
/// clones do no per-row heap allocation; reads hand out borrowing
/// [`RowRef`] views.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    store: ColumnStore,
    /// Unique index on the primary-key column, if the schema declares one.
    pk_index: Option<HashIndex>,
    /// Secondary (non-unique) indexes by column.
    secondary: FastMap<ColumnId, HashIndex>,
    /// Cached statistics; `None` until [`Table::analyze`] runs.
    stats: Option<TableStats>,
}

impl Table {
    /// Create an empty table.
    pub fn new(schema: TableSchema) -> Self {
        let pk_index = schema.primary_key.map(|_| HashIndex::new());
        let store = ColumnStore::new(schema.columns.iter().map(|c| c.ty));
        Table { schema, store, pk_index, secondary: FastMap::default(), stats: None }
    }

    /// The table schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// All rows, in insertion order, as borrowing views.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + Clone {
        self.store.iter()
    }

    /// Row by id.
    pub fn row(&self, id: RowId) -> RowRef<'_> {
        self.store.row(id)
    }

    /// The columnar storage behind this table (read-only; the
    /// conformance suite and the benches audit it directly).
    pub fn store(&self) -> &ColumnStore {
        &self.store
    }

    /// Insert a row, maintaining indexes. Rejects arity mismatches, type
    /// mismatches on non-null values, and duplicate primary keys.
    pub fn insert(&mut self, row: Row) -> Result<RowId, StorageError> {
        if row.arity() != self.schema.arity() {
            return Err(StorageError::SchemaMismatch {
                table: self.schema.name.clone(),
                detail: format!("arity {} != {}", row.arity(), self.schema.arity()),
            });
        }
        for (c, v) in row.values().enumerate() {
            if let Some(ty) = v.value_type() {
                if ty != self.schema.column_type(c) {
                    return Err(StorageError::SchemaMismatch {
                        table: self.schema.name.clone(),
                        detail: format!(
                            "column {} expects {:?}, got {v:?}",
                            c,
                            self.schema.column_type(c)
                        ),
                    });
                }
            }
        }
        let id = to_u32(self.store.len());
        if let (Some(pk_col), Some(pk_index)) = (self.schema.primary_key, self.pk_index.as_mut()) {
            let key = row.get(pk_col);
            if !pk_index.probe(key).is_empty() {
                return Err(StorageError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key: key.to_string(),
                });
            }
            pk_index.insert(key.clone(), id);
        }
        for (&col, idx) in self.secondary.iter_mut() {
            idx.insert(row.get(col).clone(), id);
        }
        self.store.push_row(&row);
        self.stats = None;
        Ok(id)
    }

    /// Insert one all-integer row straight into the column buffers —
    /// the zero-allocation fast lane for all-Int tables (the catalog's
    /// tops tables are). Equivalent to
    /// `insert(row![..])` on an all-Int schema, without building the
    /// owned row.
    pub fn insert_ints(&mut self, vals: &[i64]) -> Result<RowId, StorageError> {
        if vals.len() != self.schema.arity() {
            return Err(StorageError::SchemaMismatch {
                table: self.schema.name.clone(),
                detail: format!("arity {} != {}", vals.len(), self.schema.arity()),
            });
        }
        for c in 0..vals.len() {
            if self.schema.column_type(c) != ValueType::Int {
                return Err(StorageError::SchemaMismatch {
                    table: self.schema.name.clone(),
                    detail: format!("column {c} expects {:?}, got Int", self.schema.column_type(c)),
                });
            }
        }
        let id = to_u32(self.store.len());
        if let (Some(pk_col), Some(pk_index)) = (self.schema.primary_key, self.pk_index.as_mut()) {
            let key = Value::Int(vals[pk_col]);
            if !pk_index.probe(&key).is_empty() {
                return Err(StorageError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key: key.to_string(),
                });
            }
            pk_index.insert(key, id);
        }
        for (&col, idx) in self.secondary.iter_mut() {
            idx.insert(Value::Int(vals[col]), id);
        }
        self.store.push_ints(vals);
        self.stats = None;
        Ok(id)
    }

    /// Pre-size the column buffers for `n` additional rows (bulk loads).
    pub fn reserve(&mut self, n: usize) {
        self.store.reserve(n);
    }

    /// A table over owned Int columns, one per schema column, which it
    /// takes without a copy: the rows [`Table::insert_ints`] would store
    /// one by one, with no index and no statistics yet. A schema that is
    /// not all-Int or declares a primary key (a bulk load checks no key),
    /// or columns that do not match it in number or agree in length, are
    /// a schema mismatch. The catalog's tops tables are built this way.
    pub fn from_int_columns(
        schema: TableSchema,
        columns: Vec<Vec<i64>>,
    ) -> Result<Table, StorageError> {
        let len = columns.first().map_or(0, Vec::len);
        if columns.len() != schema.arity()
            || columns.iter().any(|c| c.len() != len)
            || schema.columns.iter().any(|c| c.ty != ValueType::Int)
            || schema.primary_key.is_some()
        {
            let detail = "not one column of equal length per keyless Int column".to_string();
            return Err(StorageError::SchemaMismatch { detail, table: schema.name });
        }
        Ok(Table { store: ColumnStore::from_ints(columns), ..Table::new(schema) })
    }

    /// Build (or rebuild) a secondary hash index on `col`.
    pub fn create_index(&mut self, col: ColumnId) {
        let mut idx = HashIndex::new();
        for (i, row) in self.store.iter().enumerate() {
            idx.insert(row.get(col), to_u32(i));
        }
        self.secondary.insert(col, idx);
    }

    /// Build (or rebuild) a secondary hash index on `col` from whole
    /// posting runs instead of row-by-row insertion: each distinct key
    /// gets its ascending row ids as one exact-sized posting list, keys
    /// handed to the index in ascending order. Probe results are
    /// identical to [`Table::create_index`]; this is the bulk path
    /// catalog finalization, pruning and [`Table::sort_by_column`] use.
    ///
    /// A null-free Int column (every catalog table column is one) is
    /// indexed by counting, in two linear passes over its raw `i64`
    /// buffer and a sort of the distinct keys only — no `Value` per row,
    /// no sort of the rows. Anything else (Str columns, or an Int column
    /// a null slipped into) sorts the row ids by cell.
    pub fn create_index_bulk(&mut self, col: ColumnId) {
        let idx = if let Some(vals) = self.store.ints(col) {
            int_postings(vals)
        } else {
            let store = &self.store;
            let mut ids: Vec<RowId> = (0..to_u32(store.len())).collect();
            ids.sort_unstable_by(|&a, &b| store.cmp_cells(col, a, b).then(a.cmp(&b)));
            // Run boundaries are detected with borrowed cell compares;
            // only one owned key materializes per distinct value, and
            // the map is pre-sized so it never rehash-grows mid-build.
            let distinct = ids
                .windows(2)
                .filter(|w| store.cmp_cells(col, w[0], w[1]) != std::cmp::Ordering::Equal)
                .count()
                + usize::from(!ids.is_empty());
            let mut idx = HashIndex::with_capacity(distinct);
            let mut i = 0;
            while i < ids.len() {
                let mut j = i + 1;
                while j < ids.len()
                    && store.cmp_cells(col, ids[i], ids[j]) == std::cmp::Ordering::Equal
                {
                    j += 1;
                }
                idx.insert_run(store.value(col, ids[i]), &ids[i..j]);
                i = j;
            }
            idx
        };
        self.secondary.insert(col, idx);
    }

    /// Look up a row by primary key.
    pub fn by_pk(&self, key: &Value) -> Option<RowRef<'_>> {
        let pk_index = self.pk_index.as_ref()?;
        pk_index.probe(key).first().map(|&id| self.row(id))
    }

    /// Row id (not row) by primary key.
    pub fn rowid_by_pk(&self, key: &Value) -> Option<RowId> {
        self.pk_index.as_ref()?.probe(key).first().copied()
    }

    /// Probe a secondary index (must exist) for row ids matching `key`.
    #[expect(
        clippy::panic,
        reason = "documented contract (\"must exist\") — probing a column never indexed is a programming error, not data"
    )]
    pub fn index_probe(&self, col: ColumnId, key: &Value) -> &[RowId] {
        self.secondary
            .get(&col)
            .unwrap_or_else(|| panic!("no index on column {col} of {}", self.schema.name))
            .probe(key)
    }

    /// Row ids whose `col` equals `key`, as one borrowed posting list:
    /// through the unique index when `col` is the primary key, else
    /// through the secondary index on `col` (which must exist).
    pub fn probe(&self, col: ColumnId, key: &Value) -> &[RowId] {
        match &self.pk_index {
            Some(pk_index) if self.schema.primary_key == Some(col) => pk_index.probe(key),
            _ => self.index_probe(col, key),
        }
    }

    /// True if a secondary index exists on `col`.
    pub fn has_index(&self, col: ColumnId) -> bool {
        self.secondary.contains_key(&col) || self.schema.primary_key == Some(col)
    }

    /// Sequential scan with a predicate; returns matching row ids. Runs
    /// over the column buffers with no per-row allocation.
    pub fn scan(&self, pred: &Predicate) -> Vec<RowId> {
        self.store
            .iter()
            .enumerate()
            .filter(|(_, r)| pred.eval_ref(*r))
            .map(|(i, _)| to_u32(i))
            .collect()
    }

    /// The rows satisfying `pred`, answered from the table's indexes
    /// instead of a scan: `Contains` from the keyword postings
    /// [`Table::analyze`] builds, `Eq` through the primary-key or a
    /// secondary index, `True` as every row, and `And` / `Or` / `Not` as
    /// the intersection, union and complement of sorted lists. The ids
    /// are exactly [`Table::scan`]'s — NULL cells included: `Eq(_, Null)`
    /// finds them in the index and `Not` keeps them, as `eval_ref` does.
    ///
    /// `None` when the indexes cannot answer: no statistics since the
    /// last insert, or an `Eq` on a column with no index.
    pub fn select_rows(&self, pred: &Predicate) -> Option<IndexSelection> {
        let stats = self.stats.as_ref()?;
        if !self.indexed(stats, pred) {
            return None;
        }
        let mut read = 0;
        let rows = self.rows_of(stats, pred, &mut read).into_owned();
        read += rows.len() as u64;
        Some(IndexSelection { rows, read })
    }

    /// True when every leaf of `pred` has a posting list or an index.
    fn indexed(&self, stats: &TableStats, pred: &Predicate) -> bool {
        match pred {
            Predicate::True | Predicate::False => true,
            Predicate::Contains(col, _) => *col < stats.columns.len(),
            Predicate::Eq(col, _) => self.has_index(*col),
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                self.indexed(stats, a) && self.indexed(stats, b)
            }
            Predicate::Not(a) => self.indexed(stats, a),
        }
    }

    /// [`Table::select_rows`]'s evaluation, for a predicate
    /// [`Table::indexed`] accepted. Leaves borrow their lists; every
    /// combinator adds the lengths of its inputs to `read`.
    fn rows_of<'a>(
        &'a self,
        stats: &'a TableStats,
        pred: &Predicate,
        read: &mut u64,
    ) -> Cow<'a, [RowId]> {
        match pred {
            Predicate::True => Cow::Owned((0..to_u32(self.len())).collect()),
            Predicate::False => Cow::Borrowed(&[]),
            Predicate::Contains(col, kw) => {
                Cow::Borrowed(stats.token_rows(*col, kw).unwrap_or_default())
            }
            Predicate::Eq(col, v) => Cow::Borrowed(self.probe(*col, v)),
            Predicate::And(a, b) => {
                let (a, b) = (self.rows_of(stats, a, read), self.rows_of(stats, b, read));
                *read += (a.len() + b.len()) as u64;
                Cow::Owned(intersect(&a, &b))
            }
            Predicate::Or(a, b) => {
                let (a, b) = (self.rows_of(stats, a, read), self.rows_of(stats, b, read));
                *read += (a.len() + b.len()) as u64;
                Cow::Owned(union(&a, &b))
            }
            Predicate::Not(a) => {
                let a = self.rows_of(stats, a, read);
                *read += a.len() as u64;
                Cow::Owned(complement(&a, to_u32(self.len())))
            }
        }
    }

    /// Refresh statistics, keyword postings included (one pass).
    /// Idempotent until the next insert.
    pub fn analyze(&mut self) -> &TableStats {
        self.stats.get_or_insert_with(|| TableStats::collect(&self.schema, &self.store))
    }

    /// Cached statistics, if [`Table::analyze`] has run since the last insert.
    pub fn stats(&self) -> Option<&TableStats> {
        self.stats.as_ref()
    }

    /// Approximate heap footprint of the column buffers + indexes, in
    /// bytes. This is the quantity reported in the Table 1
    /// space-requirement reproduction; string payloads are counted once
    /// per distinct string (the pool), not once per row.
    pub fn heap_size(&self) -> usize {
        let pk = self.pk_index.as_ref().map(HashIndex::heap_size).unwrap_or(0);
        let sec: usize = self.secondary.values().map(HashIndex::heap_size).sum();
        self.store.heap_size() + pk + sec
    }

    /// Sort rows by a column (ascending, stable) and rebuild all indexes.
    ///
    /// Catalog tables (LeftTops) are stored grouped by topology id so DGJ
    /// group scans are contiguous; this is the clustering step. The sort
    /// permutes the typed column buffers directly — a flat `(i64, id)`
    /// sort when the column is null-free Int — instead of shuffling
    /// owned rows.
    pub fn sort_by_column(&mut self, col: ColumnId) {
        let mut perm: Vec<RowId> = (0..to_u32(self.store.len())).collect();
        if let Some(vals) = self.store.ints(col) {
            perm.sort_unstable_by_key(|&i| (vals[i as usize], i));
        } else {
            let store = &self.store;
            perm.sort_unstable_by(|&a, &b| store.cmp_cells(col, a, b).then(a.cmp(&b)));
        }
        self.store.apply_permutation(&perm);
        if let Some(pk_col) = self.schema.primary_key {
            let mut idx = HashIndex::new();
            for (i, row) in self.store.iter().enumerate() {
                idx.insert(row.get(pk_col), to_u32(i));
            }
            self.pk_index = Some(idx);
        }
        let mut cols: Vec<ColumnId> = self.secondary.keys().copied().collect();
        cols.sort_unstable();
        for c in cols {
            self.create_index_bulk(c);
        }
        self.stats = None;
    }
}

/// [`Table::create_index_bulk`] on a null-free Int column: count the
/// rows per key, sort the distinct keys, prefix-sum the counts into one
/// slice per key of a flat id buffer, then write every row id into its
/// key's slice. Rows are visited in order, so each slice comes out
/// ascending.
fn int_postings(vals: &[i64]) -> HashIndex {
    // Rows per key, then (after the prefix sums) each key's write cursor.
    let mut cursor: FastMap<i64, u32> = FastMap::default();
    for &v in vals {
        *cursor.entry(v).or_insert(0) += 1;
    }
    let mut keys: Vec<i64> = cursor.keys().copied().collect();
    keys.sort_unstable();
    let mut start = 0;
    for k in &keys {
        if let Some(c) = cursor.get_mut(k) {
            let count = *c;
            *c = start;
            start += count;
        }
    }
    let mut ids: Vec<RowId> = vec![0; vals.len()];
    for (i, v) in vals.iter().enumerate() {
        if let Some(c) = cursor.get_mut(v) {
            ids[*c as usize] = to_u32(i);
            *c += 1;
        }
    }
    // Each cursor now ends its key's slice, where the next key's starts.
    let mut idx = HashIndex::with_capacity(keys.len());
    let mut start = 0;
    for k in keys {
        let end = cursor[&k] as usize;
        idx.insert_run(Value::Int(k), &ids[start..end]);
        start = end;
    }
    idx
}

/// What [`Table::select_rows`] found, and what finding it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSelection {
    /// The matching row ids, ascending.
    pub rows: Vec<RowId>,
    /// Row ids read: both inputs of every combinator, plus the result —
    /// the work a caller meters in place of a scan's rows touched.
    pub read: u64,
}

/// Ids in both ascending lists.
fn intersect(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Ids in either ascending list, once each.
fn union(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The ids of `0..len` not in ascending `a`.
fn complement(a: &[RowId], len: u32) -> Vec<RowId> {
    let mut out = Vec::with_capacity((len as usize).saturating_sub(a.len()));
    let mut next = 0;
    for &id in a {
        out.extend(next..id);
        next = id + 1;
    }
    out.extend(next..len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;

    fn dna_table() -> Table {
        let schema = TableSchema::new(
            "DNA",
            vec![ColumnDef::new("ID", ValueType::Int), ColumnDef::new("type", ValueType::Str)],
            Some(0),
        );
        let mut t = Table::new(schema);
        t.insert(row![214i64, "mRNA"]).unwrap();
        t.insert(row![215i64, "mRNA"]).unwrap();
        t.insert(row![742i64, "genomic"]).unwrap();
        t
    }

    #[test]
    fn insert_and_pk_lookup() {
        let t = dna_table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.by_pk(&Value::Int(215)).unwrap().as_str(1), "mRNA");
        assert!(t.by_pk(&Value::Int(999)).is_none());
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = dna_table();
        let err = t.insert(row![214i64, "EST"]).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn arity_and_type_checked() {
        let mut t = dna_table();
        assert!(matches!(t.insert(row![1i64]).unwrap_err(), StorageError::SchemaMismatch { .. }));
        assert!(matches!(
            t.insert(row!["notanint", "mRNA"]).unwrap_err(),
            StorageError::SchemaMismatch { .. }
        ));
    }

    #[test]
    fn insert_ints_matches_generic_insert() {
        let schema = TableSchema::new(
            "Rel",
            vec![ColumnDef::new("A", ValueType::Int), ColumnDef::new("B", ValueType::Int)],
            Some(0),
        );
        let mut a = Table::new(schema.clone());
        let mut b = Table::new(schema);
        for (x, y) in [(1i64, 10i64), (2, 20), (3, 30)] {
            a.insert(row![x, y]).unwrap();
            b.insert_ints(&[x, y]).unwrap();
        }
        assert!(a.rows().eq(b.rows()));
        assert_eq!(a.heap_size(), b.heap_size());
        // Same validation too: duplicate pk and wrong arity rejected.
        assert!(matches!(b.insert_ints(&[1, 99]).unwrap_err(), StorageError::DuplicateKey { .. }));
        assert!(matches!(b.insert_ints(&[4]).unwrap_err(), StorageError::SchemaMismatch { .. }));
        // And a Str column rejects the fast lane outright.
        let mut t = dna_table();
        assert!(matches!(t.insert_ints(&[1, 2]).unwrap_err(), StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn insert_ints_maintains_indexes() {
        let schema = TableSchema::new(
            "Rel",
            vec![ColumnDef::new("A", ValueType::Int), ColumnDef::new("B", ValueType::Int)],
            None,
        );
        let mut t = Table::new(schema);
        t.create_index(0);
        t.insert_ints(&[7, 1]).unwrap();
        t.insert_ints(&[7, 2]).unwrap();
        assert_eq!(t.index_probe(0, &Value::Int(7)), &[0, 1]);
    }

    #[test]
    fn secondary_index_probe_matches_scan() {
        let mut t = dna_table();
        t.create_index(1);
        let via_idx = t.index_probe(1, &Value::str("mRNA")).to_vec();
        let via_scan = t.scan(&Predicate::eq(1, "mRNA"));
        assert_eq!(via_idx, via_scan);
        assert!(t.has_index(1));
        assert!(t.has_index(0)); // pk
        assert!(!t.has_index(99));
    }

    #[test]
    fn index_maintained_across_inserts() {
        let mut t = dna_table();
        t.create_index(1);
        t.insert(row![900i64, "mRNA"]).unwrap();
        assert_eq!(t.index_probe(1, &Value::str("mRNA")).len(), 3);
    }

    #[test]
    fn analyze_caches_until_insert() {
        let mut t = dna_table();
        let rows = t.analyze().rows;
        assert_eq!(rows, 3);
        assert!(t.stats().is_some());
        t.insert(row![901i64, "EST"]).unwrap();
        assert!(t.stats().is_none());
        assert_eq!(t.analyze().rows, 4);
    }

    #[test]
    fn select_rows_reads_postings_and_indexes_while_stats_are_fresh() {
        let mut t = dna_table();
        let mrna = Predicate::eq(1, "mRNA");
        assert_eq!(t.select_rows(&Predicate::True), None, "no statistics yet");
        t.analyze();
        assert_eq!(t.select_rows(&mrna), None, "no index on `type`");
        t.create_index(1);
        let sel =
            t.select_rows(&Predicate::Not(Box::new(mrna.clone().or(Predicate::eq(0, 742i64)))));
        // Or reads [0, 1] and [2]; Not reads [0, 1, 2]; nothing is left.
        assert_eq!(sel, Some(IndexSelection { rows: vec![], read: 6 }));
        let sel = t.select_rows(&Predicate::contains(1, "mRNA").and(Predicate::eq(0, 215i64)));
        assert_eq!(sel, Some(IndexSelection { rows: vec![1], read: 4 }));
        t.insert(row![900i64, "mRNA"]).unwrap();
        assert_eq!(t.select_rows(&mrna), None, "an insert drops the postings");
        t.analyze();
        assert_eq!(t.select_rows(&mrna).map(|s| s.rows), Some(t.scan(&mrna)));
    }

    #[test]
    fn sort_by_column_rebuilds_indexes() {
        let mut t = dna_table();
        t.create_index(1);
        t.sort_by_column(1); // genomic, mRNA, mRNA
        assert_eq!(t.row(0).as_str(1), "genomic");
        assert_eq!(t.by_pk(&Value::Int(742)).unwrap().as_int(0), 742);
        assert_eq!(t.index_probe(1, &Value::str("mRNA")).len(), 2);
    }

    #[test]
    fn bulk_index_matches_row_by_row_build() {
        let mut a = dna_table();
        a.insert(row![900i64, "mRNA"]).unwrap();
        a.insert(row![901i64, "EST"]).unwrap();
        let mut b = a.clone();
        a.create_index(1);
        b.create_index_bulk(1);
        for key in [Value::str("mRNA"), Value::str("genomic"), Value::str("EST"), Value::str("?")] {
            assert_eq!(a.index_probe(1, &key), b.index_probe(1, &key), "{key:?}");
        }
        // Posting order is insertion order in both builds.
        assert_eq!(b.index_probe(1, &Value::str("mRNA")), &[0, 1, 3]);
    }

    #[test]
    fn bulk_index_int_fast_path_matches() {
        let schema = TableSchema::new(
            "Rel",
            vec![ColumnDef::new("A", ValueType::Int), ColumnDef::new("B", ValueType::Int)],
            None,
        );
        let mut a = Table::new(schema);
        for (x, y) in [(7, 1), (3, 2), (7, 3), (1, 4), (3, 5), (7, 6)] {
            a.insert(row![x as i64, y as i64]).unwrap();
        }
        let mut b = a.clone();
        a.create_index(0);
        b.create_index_bulk(0);
        for key in [1i64, 3, 7, 99] {
            assert_eq!(a.index_probe(0, &Value::Int(key)), b.index_probe(0, &Value::Int(key)));
        }
        assert_eq!(b.index_probe(0, &Value::Int(7)), &[0, 2, 5]);
    }

    #[test]
    fn bulk_index_with_nulls_falls_back_to_generic_path() {
        let schema = TableSchema::new(
            "N",
            vec![ColumnDef::new("A", ValueType::Int), ColumnDef::new("B", ValueType::Int)],
            None,
        );
        let mut t = Table::new(schema);
        t.insert(row![1i64, 1i64]).unwrap();
        t.insert(Row::new(vec![Value::Null, Value::Int(2)])).unwrap();
        t.insert(row![1i64, 3i64]).unwrap();
        t.create_index_bulk(0);
        assert_eq!(t.index_probe(0, &Value::Int(1)), &[0, 2]);
        assert_eq!(t.index_probe(0, &Value::Null), &[1]);
    }

    #[test]
    fn bulk_index_on_empty_table() {
        let mut t = Table::new(dna_table().schema().clone());
        t.create_index_bulk(1);
        assert!(t.index_probe(1, &Value::str("mRNA")).is_empty());
    }

    #[test]
    fn heap_size_grows_with_rows() {
        let mut t = dna_table();
        let before = t.heap_size();
        t.insert(row![950i64, "a-longer-type-string"]).unwrap();
        assert!(t.heap_size() > before);
    }

    #[test]
    fn heap_size_counts_pooled_strings_once() {
        let mut t = dna_table();
        let before = t.heap_size();
        t.insert(row![950i64, "mRNA"]).unwrap(); // already pooled
        let dup_growth = t.heap_size() - before;
        let before = t.heap_size();
        t.insert(row![951i64, "never-seen-before"]).unwrap();
        let fresh_growth = t.heap_size() - before;
        assert!(
            fresh_growth > dup_growth,
            "fresh string must cost its payload: {fresh_growth} vs {dup_growth}"
        );
    }
}
