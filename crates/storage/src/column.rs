//! Columnar table storage: typed column buffers + borrowing row views.
//!
//! The previous layout kept one heap-allocated `Row(Vec<Value>)` per
//! table row, which made AllTops materialization in the offline catalog
//! build allocate once per row and made every scan chase a pointer per
//! tuple. [`ColumnStore`] flips the layout column-major, the shape the
//! paper's Table 1 space accounting assumes and the one the hot paths
//! want:
//!
//! * an **Int column** is one flat `Vec<i64>`;
//! * a **Str column** is one flat `Vec<u32>` of ids into a per-table
//!   [`Arc<str>`] pool, so repeated strings (the generator's keyword
//!   vocabulary, DNA types, …) are stored once;
//! * every column carries a **null bitmap** (`Value::Null` cells set a
//!   bit and leave a zero sentinel in the buffer).
//!
//! Inserts, scans, and clones therefore do **zero per-row heap
//! allocations** — appends are amortized into the column buffers, and
//! cloning a table memcpys a handful of flat vectors. Reads go through
//! [`RowRef`], a `Copy` view of one row that borrows the store; owned
//! [`Row`]s survive only at insertion boundaries and as operator output
//! tuples in `ts-exec`.

use std::sync::Arc;

use crate::hash::FastMap;
use crate::row::{Row, RowId};
use crate::value::{Value, ValueType};

/// Bit-per-row null mask of one column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct NullMask {
    words: Vec<u64>,
    /// Whether any bit is set. `push` is the only writer of `words`, so
    /// it keeps this current and `any` never walks the mask.
    any: bool,
}

impl NullMask {
    /// Record row `i`'s nullness; rows must be pushed in order.
    fn push(&mut self, i: usize, null: bool) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.push(0);
        }
        if null {
            self.words[w] |= 1 << (i % 64);
            self.any = true;
        }
    }

    fn get(&self, i: usize) -> bool {
        self.words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }

    /// True if any pushed row was NULL, in O(1).
    fn any(&self) -> bool {
        self.any
    }

    fn reserve(&mut self, rows: usize) {
        self.words.reserve(rows / 64 + 1);
    }

    fn heap_size(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }
}

/// Per-table string pool: each distinct string stored once, referenced
/// by dense `u32` ids from the Str columns.
#[derive(Debug, Clone, Default)]
struct StrPool {
    strings: Vec<Arc<str>>,
    index: FastMap<Arc<str>, u32>,
}

impl StrPool {
    /// Id of `s`, interning on first sight (the only allocation a
    /// repeated string ever costs is this one-time map entry).
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        if let Some(&id) = self.index.get(s.as_ref() as &str) {
            return id;
        }
        let id = crate::cast::to_u32(self.strings.len());
        self.strings.push(Arc::clone(s));
        self.index.insert(Arc::clone(s), id);
        id
    }

    fn get(&self, id: u32) -> &Arc<str> {
        &self.strings[id as usize]
    }

    fn heap_size(&self) -> usize {
        self.strings.iter().map(|s| s.len()).sum::<usize>()
            + self.strings.len() * std::mem::size_of::<Arc<str>>()
    }
}

/// One typed column: a flat value buffer plus a null bitmap. Null cells
/// hold a zero sentinel in the buffer and a set bit in the mask.
#[derive(Debug, Clone)]
enum Column {
    Int { vals: Vec<i64>, nulls: NullMask },
    Str { ids: Vec<u32>, nulls: NullMask },
}

/// A borrowed cell; the columnar counterpart of `&Value`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cell<'a> {
    Null,
    Int(i64),
    Str(&'a str),
}

/// Column-major row storage for one table.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    len: usize,
    columns: Vec<Column>,
    pool: StrPool,
}

impl ColumnStore {
    /// Empty store with one column per type.
    pub fn new(types: impl IntoIterator<Item = ValueType>) -> Self {
        let columns = types
            .into_iter()
            .map(|ty| match ty {
                ValueType::Int => Column::Int { vals: Vec::new(), nulls: NullMask::default() },
                ValueType::Str => Column::Str { ids: Vec::new(), nulls: NullMask::default() },
            })
            .collect();
        ColumnStore { len: 0, columns, pool: StrPool::default() }
    }

    /// A store of null-free Int columns that owns the given buffers, equal
    /// to one filled by `push_ints` row by row. Panics if the columns
    /// differ in length (the table checks).
    pub fn from_ints(columns: Vec<Vec<i64>>) -> Self {
        let len = columns.first().map_or(0, Vec::len);
        assert!(columns.iter().all(|c| c.len() == len), "columns differ in length");
        let nulls = NullMask { words: vec![0; len.div_ceil(64)], any: false };
        let columns =
            columns.into_iter().map(|vals| Column::Int { vals, nulls: nulls.clone() }).collect();
        ColumnStore { len, columns, pool: StrPool::default() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Number of distinct strings interned in the pool.
    pub fn pool_size(&self) -> usize {
        self.pool.strings.len()
    }

    /// Pre-size every column buffer for `n` additional rows.
    pub fn reserve(&mut self, n: usize) {
        for c in &mut self.columns {
            match c {
                Column::Int { vals, nulls } => {
                    vals.reserve(n);
                    nulls.reserve(n);
                }
                Column::Str { ids, nulls } => {
                    ids.reserve(n);
                    nulls.reserve(n);
                }
            }
        }
    }

    /// Append one row. The caller (the table) has already type-checked
    /// the values against the schema; a mismatch here is a bug and
    /// panics.
    pub fn push_row(&mut self, row: &Row) {
        assert_eq!(row.arity(), self.columns.len(), "row arity != column count");
        let i = self.len;
        for (c, v) in row.values().enumerate() {
            match (&mut self.columns[c], v) {
                (Column::Int { vals, nulls }, Value::Int(x)) => {
                    vals.push(*x);
                    nulls.push(i, false);
                }
                (Column::Int { vals, nulls }, Value::Null) => {
                    vals.push(0);
                    nulls.push(i, true);
                }
                (Column::Str { ids, nulls }, Value::Str(s)) => {
                    let id = self.pool.intern(s);
                    ids.push(id);
                    nulls.push(i, false);
                }
                (Column::Str { ids, nulls }, Value::Null) => {
                    ids.push(0);
                    nulls.push(i, true);
                }
                #[expect(
                    clippy::panic,
                    reason = "Table::insert validated the row against the schema; a mismatch here is memory corruption, not input"
                )]
                (col, v) => panic!("column {c} ({col:?}) cannot hold {v:?}"),
            }
        }
        self.len += 1;
    }

    /// Append one all-integer row straight into the Int column buffers —
    /// the zero-allocation fast lane catalog materialization uses.
    /// Panics if any column is not Int (the table checks the schema).
    pub fn push_ints(&mut self, vals: &[i64]) {
        assert_eq!(vals.len(), self.columns.len(), "row arity != column count");
        let i = self.len;
        for (c, &v) in vals.iter().enumerate() {
            match &mut self.columns[c] {
                Column::Int { vals, nulls } => {
                    vals.push(v);
                    nulls.push(i, false);
                }
                #[expect(
                    clippy::panic,
                    reason = "documented contract — the table checks the schema is all-Int before taking the fast lane"
                )]
                other => panic!("push_ints into non-Int column {c} ({other:?})"),
            }
        }
        self.len += 1;
    }

    fn cell(&self, col: usize, row: RowId) -> Cell<'_> {
        let i = row as usize;
        match &self.columns[col] {
            Column::Int { vals, nulls } => {
                if nulls.get(i) {
                    Cell::Null
                } else {
                    Cell::Int(vals[i])
                }
            }
            Column::Str { ids, nulls } => {
                if nulls.get(i) {
                    Cell::Null
                } else {
                    Cell::Str(self.pool.get(ids[i]))
                }
            }
        }
    }

    /// Owned value of one cell (an `Arc` refcount bump for strings, no
    /// heap allocation).
    pub fn value(&self, col: usize, row: RowId) -> Value {
        let i = row as usize;
        match &self.columns[col] {
            Column::Int { vals, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Int(vals[i])
                }
            }
            Column::Str { ids, nulls } => {
                if nulls.get(i) {
                    Value::Null
                } else {
                    Value::Str(Arc::clone(self.pool.get(ids[i])))
                }
            }
        }
    }

    /// The raw `i64` buffer of an Int column with no nulls. `None` for
    /// Str columns or Int columns containing a null. O(1) (the mask
    /// keeps a has-null flag), so the per-batch readers — the batch
    /// engine's scans and DGJ gathers, the regular plan's AllTops merge —
    /// call it as freely as the bulk index builds and column sorts do.
    pub fn ints(&self, col: usize) -> Option<&[i64]> {
        match &self.columns[col] {
            Column::Int { vals, nulls } if !nulls.any() => Some(vals),
            _ => None,
        }
    }

    /// The raw pool-id buffer of a Str column with no nulls — the Str
    /// counterpart of [`ColumnStore::ints`], O(1) like it, read by the
    /// batch execution engine so string predicates run against borrowed
    /// pool entries instead of materializing an `Arc` bump per row.
    /// `None` for Int columns or Str columns containing a null.
    pub fn str_ids(&self, col: usize) -> Option<&[u32]> {
        match &self.columns[col] {
            Column::Str { ids, nulls } if !nulls.any() => Some(ids),
            _ => None,
        }
    }

    /// The pooled string behind a pool id from [`ColumnStore::str_ids`].
    pub fn pool_str(&self, id: u32) -> &Arc<str> {
        self.pool.get(id)
    }

    /// Compare two cells of one column by [`Value`]'s total order
    /// (NULL < Int < Str) without materializing values.
    pub fn cmp_cells(&self, col: usize, a: RowId, b: RowId) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (self.cell(col, a), self.cell(col, b)) {
            (Cell::Null, Cell::Null) => Ordering::Equal,
            (Cell::Null, _) => Ordering::Less,
            (_, Cell::Null) => Ordering::Greater,
            (Cell::Int(x), Cell::Int(y)) => x.cmp(&y),
            (Cell::Int(_), Cell::Str(_)) => Ordering::Less,
            (Cell::Str(_), Cell::Int(_)) => Ordering::Greater,
            (Cell::Str(x), Cell::Str(y)) => x.cmp(y),
        }
    }

    /// View of one row.
    pub fn row(&self, id: RowId) -> RowRef<'_> {
        debug_assert!((id as usize) < self.len, "row {id} out of range");
        RowRef { store: self, id }
    }

    /// Iterate all rows as borrowing views.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + Clone {
        (0..crate::cast::to_u32(self.len)).map(move |id| RowRef { store: self, id })
    }

    /// Reorder rows so that new row `i` is old row `perm[i]`. One fresh
    /// buffer per column — O(columns) allocations, not O(rows).
    pub fn apply_permutation(&mut self, perm: &[RowId]) {
        assert_eq!(perm.len(), self.len, "permutation length != row count");
        for c in &mut self.columns {
            match c {
                Column::Int { vals, nulls } => {
                    let mut new_vals = Vec::with_capacity(vals.len());
                    let mut new_nulls = NullMask::default();
                    new_nulls.reserve(perm.len());
                    for (i, &p) in perm.iter().enumerate() {
                        new_vals.push(vals[p as usize]);
                        new_nulls.push(i, nulls.get(p as usize));
                    }
                    *vals = new_vals;
                    *nulls = new_nulls;
                }
                Column::Str { ids, nulls } => {
                    let mut new_ids = Vec::with_capacity(ids.len());
                    let mut new_nulls = NullMask::default();
                    new_nulls.reserve(perm.len());
                    for (i, &p) in perm.iter().enumerate() {
                        new_ids.push(ids[p as usize]);
                        new_nulls.push(i, nulls.get(p as usize));
                    }
                    *ids = new_ids;
                    *nulls = new_nulls;
                }
            }
        }
    }

    /// Occurrence counts of an Int column's non-null values (empty for a
    /// Str column), computed columnar: sort a copy of the raw buffer and
    /// run-length-scan it, no hashing at all. This is what
    /// [`crate::stats::TableStats::collect`] runs on instead of hashing
    /// a `Value` per cell; Str columns it counts by pool id
    /// ([`ColumnStore::str_counts`]).
    pub fn int_counts(&self, col: usize) -> Vec<(Value, u64)> {
        let Column::Int { vals, nulls } = &self.columns[col] else {
            return Vec::new();
        };
        let mut sorted: Vec<i64> = if nulls.any() {
            vals.iter().enumerate().filter(|&(i, _)| !nulls.get(i)).map(|(_, &v)| v).collect()
        } else {
            vals.clone()
        };
        sorted.sort_unstable();
        let mut out: Vec<(Value, u64)> = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let mut j = i + 1;
            while j < sorted.len() && sorted[j] == sorted[i] {
                j += 1;
            }
            out.push((Value::Int(sorted[i]), (j - i) as u64));
            i = j;
        }
        out
    }

    /// Rows per pool id among a Str column's non-NULL cells, indexed by
    /// pool id: zero for a string only other columns hold, and all zeros
    /// for an Int column.
    pub fn str_counts(&self, col: usize) -> Vec<usize> {
        let mut counts = vec![0; self.pool.strings.len()];
        for (_, id) in self.str_cells(col) {
            counts[id as usize] += 1;
        }
        counts
    }

    /// The non-NULL cells of a Str column as `(row, pool id)`, in row
    /// order (nothing for Int columns). Token statistics read this to
    /// touch each distinct string once ([`ColumnStore::pool_str`]),
    /// however many rows share it.
    pub fn str_cells(&self, col: usize) -> impl Iterator<Item = (RowId, u32)> + '_ {
        let (ids, nulls): (&[u32], _) = match &self.columns[col] {
            Column::Str { ids, nulls } => (ids, Some(nulls)),
            Column::Int { .. } => (&[], None),
        };
        ids.iter()
            .enumerate()
            .filter(move |&(i, _)| !nulls.is_some_and(|n| n.get(i)))
            .map(|(i, &id)| (crate::cast::to_u32(i), id))
    }

    /// Heap footprint of the column buffers and the string pool, in
    /// bytes: 8 per Int cell, 4 per Str cell, the null-mask words, and
    /// each distinct pooled string once. Strictly monotone in row count.
    pub fn heap_size(&self) -> usize {
        let cols: usize = self
            .columns
            .iter()
            .map(|c| match c {
                Column::Int { vals, nulls } => {
                    vals.len() * std::mem::size_of::<i64>() + nulls.heap_size()
                }
                Column::Str { ids, nulls } => {
                    ids.len() * std::mem::size_of::<u32>() + nulls.heap_size()
                }
            })
            .sum();
        cols + self.pool.heap_size()
    }
}

/// A cheap, `Copy`, borrowing view of one row of a [`ColumnStore`] —
/// what the scan/join/sort hot paths read instead of owned [`Row`]s.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    store: &'a ColumnStore,
    id: RowId,
}

impl<'a> RowRef<'a> {
    /// Position of this row in its table.
    pub fn id(&self) -> RowId {
        self.id
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.store.arity()
    }

    /// Owned value of column `col` (no heap allocation; strings bump the
    /// pool `Arc`).
    pub fn get(&self, col: usize) -> Value {
        self.store.value(col, self.id)
    }

    /// Integer accessor; panics with a clear message on type confusion.
    pub fn as_int(&self, col: usize) -> i64 {
        match self.store.cell(col, self.id) {
            Cell::Int(v) => v,
            #[expect(
                clippy::panic,
                reason = "typed-accessor contract; try_int is the non-panicking sibling for schema-unaware callers"
            )]
            other => panic!("expected Int cell at column {col}, found {other:?}"),
        }
    }

    /// Non-panicking integer accessor.
    pub fn try_int(&self, col: usize) -> Option<i64> {
        match self.store.cell(col, self.id) {
            Cell::Int(v) => Some(v),
            _ => None,
        }
    }

    /// String accessor, borrowing the table's pool; panics on type
    /// confusion.
    pub fn as_str(&self, col: usize) -> &'a str {
        match self.store.cell(col, self.id) {
            Cell::Str(s) => s,
            #[expect(
                clippy::panic,
                reason = "typed-accessor contract; try_str is the non-panicking sibling for schema-unaware callers"
            )]
            other => panic!("expected Str cell at column {col}, found {other:?}"),
        }
    }

    /// Non-panicking string accessor.
    pub fn try_str(&self, col: usize) -> Option<&'a str> {
        match self.store.cell(col, self.id) {
            Cell::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True if column `col` is NULL in this row.
    pub fn is_null(&self, col: usize) -> bool {
        matches!(self.store.cell(col, self.id), Cell::Null)
    }

    /// Cell-for-cell equality with an owned value, allocation-free.
    pub fn value_eq(&self, col: usize, v: &Value) -> bool {
        match (self.store.cell(col, self.id), v) {
            (Cell::Null, Value::Null) => true,
            (Cell::Int(a), Value::Int(b)) => a == *b,
            (Cell::Str(a), Value::Str(b)) => a == &**b,
            _ => false,
        }
    }

    /// Materialize an owned row (one allocation — the operator-output
    /// boundary).
    pub fn to_row(&self) -> Row {
        Row::new((0..self.arity()).map(|c| self.get(c)).collect())
    }
}

impl PartialEq for RowRef<'_> {
    /// Cell-for-cell equality (views into different stores compare
    /// logically, not by identity).
    fn eq(&self, other: &Self) -> bool {
        self.arity() == other.arity()
            && (0..self.arity())
                .all(|c| self.store.cell(c, self.id) == other.store.cell(c, other.id))
    }
}

impl Eq for RowRef<'_> {}

impl PartialEq<Row> for RowRef<'_> {
    fn eq(&self, other: &Row) -> bool {
        self.arity() == other.arity() && (0..self.arity()).all(|c| self.value_eq(c, other.get(c)))
    }
}

impl std::fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = f.debug_tuple("RowRef");
        for c in 0..self.arity() {
            t.field(&self.get(c));
        }
        t.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn store() -> ColumnStore {
        let mut s = ColumnStore::new([ValueType::Int, ValueType::Str]);
        s.push_row(&row![1i64, "mRNA"]);
        s.push_row(&row![2i64, "EST"]);
        s.push_row(&row![3i64, "mRNA"]);
        s
    }

    #[test]
    fn push_and_read_back() {
        let s = store();
        assert_eq!(s.len(), 3);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.row(0).as_int(0), 1);
        assert_eq!(s.row(2).as_str(1), "mRNA");
        assert_eq!(s.row(1).get(1), Value::str("EST"));
    }

    #[test]
    fn strings_are_pooled() {
        let s = store();
        assert_eq!(s.pool_size(), 2, "mRNA interned once");
    }

    #[test]
    fn nulls_round_trip() {
        let mut s = ColumnStore::new([ValueType::Int, ValueType::Str]);
        s.push_row(&Row::new(vec![Value::Null, Value::Null]));
        s.push_row(&row![7i64, "x"]);
        assert!(s.row(0).is_null(0));
        assert!(s.row(0).is_null(1));
        assert_eq!(s.row(0).try_int(0), None);
        assert_eq!(s.row(0).try_str(1), None);
        assert_eq!(s.row(0).get(0), Value::Null);
        assert!(!s.row(1).is_null(0));
        assert_eq!(s.row(1).try_int(0), Some(7));
    }

    #[test]
    fn ints_fast_lane_requires_no_nulls() {
        let mut s = ColumnStore::new([ValueType::Int]);
        s.push_ints(&[5]);
        s.push_ints(&[6]);
        assert_eq!(s.ints(0), Some(&[5i64, 6][..]));
        s.push_row(&Row::new(vec![Value::Null]));
        assert_eq!(s.ints(0), None, "a null disables the raw buffer");
        let t = store();
        assert_eq!(t.ints(1), None, "str column has no int buffer");
    }

    /// The has-null flag sees a NULL wherever it lands — the first row,
    /// the last, the only one, the first bit of a later mask word — and
    /// survives clones and permutations, while a null-free column beside
    /// it keeps its raw buffer.
    #[test]
    fn raw_buffers_see_a_null_in_any_row() {
        let cases = [(1, 0), (2, 0), (2, 1), (63, 62), (64, 63), (65, 64), (129, 128), (200, 192)];
        for (rows, at) in cases {
            let label = format!("{rows} rows, NULL at {at}");
            let mut s = ColumnStore::new([ValueType::Int, ValueType::Str, ValueType::Int]);
            s.reserve(rows);
            for i in 0..rows {
                let x = Value::Int(i as i64);
                let row = if i == at {
                    Row::new(vec![Value::Null, Value::Null, x])
                } else {
                    Row::new(vec![x.clone(), Value::str("s"), x])
                };
                s.push_row(&row);
            }
            let reversed: Vec<RowId> = (0..crate::cast::to_u32(rows)).rev().collect();
            let mut permuted = s.clone();
            permuted.apply_permutation(&reversed);
            assert!(permuted.row(crate::cast::to_u32(rows - 1 - at)).is_null(0), "{label}");
            for (t, how) in [(&s, "pushed"), (&s.clone(), "cloned"), (&permuted, "permuted")] {
                assert_eq!(t.ints(0), None, "{label}, {how}: Int column");
                assert_eq!(t.str_ids(1), None, "{label}, {how}: Str column");
                assert_eq!(t.ints(2).map(<[i64]>::len), Some(rows), "{label}, {how}: null-free");
            }
        }
    }

    #[test]
    fn row_ref_equality_and_to_row() {
        let a = store();
        let b = store();
        assert_eq!(a.row(0), b.row(0));
        assert_ne!(a.row(0), b.row(1));
        assert_eq!(a.row(1).to_row(), row![2i64, "EST"]);
        assert!(a.row(1) == row![2i64, "EST"]);
    }

    #[test]
    fn permutation_reorders_all_columns() {
        let mut s = store();
        s.apply_permutation(&[2, 0, 1]);
        assert_eq!(s.row(0).as_int(0), 3);
        assert_eq!(s.row(0).as_str(1), "mRNA");
        assert_eq!(s.row(2).as_str(1), "EST");
    }

    #[test]
    fn heap_size_strictly_monotone() {
        let mut s = ColumnStore::new([ValueType::Int, ValueType::Str]);
        let mut prev = s.heap_size();
        for i in 0..130 {
            // Repeat one string so the pool stops growing; size must
            // still strictly increase via the id buffer.
            s.push_row(&row![i as i64, "dup"]);
            let now = s.heap_size();
            assert!(now > prev, "row {i}: {now} <= {prev}");
            prev = now;
        }
    }

    #[test]
    fn cmp_cells_matches_value_order() {
        let mut s = ColumnStore::new([ValueType::Str]);
        s.push_row(&Row::new(vec![Value::Null]));
        s.push_row(&row!["a"]);
        s.push_row(&row!["b"]);
        use std::cmp::Ordering::*;
        assert_eq!(s.cmp_cells(0, 0, 1), Less);
        assert_eq!(s.cmp_cells(0, 2, 1), Greater);
        assert_eq!(s.cmp_cells(0, 1, 1), Equal);
    }
}
