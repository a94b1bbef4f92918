//! Storage-conformance differential suite.
//!
//! `ts-storage` replaced the row-major `Vec<Row>` table heap with a
//! columnar [`ColumnStore`] (typed buffers + string pool + null
//! bitmaps) read through borrowing [`RowRef`] views. This suite holds
//! the new layout to the old semantics the hard way: every property
//! drives a random schema and random row batch through **both** a
//! naive `Vec<Row>` reference model (the old storage, re-implemented
//! here in its simplest possible form) and the real [`Table`], then
//! compares insert outcomes, scans, filters, projections, index
//! lookups, predicates answered from indexes (`Table::select_rows`),
//! sorts, and the raw column buffers the fast lanes read
//! (`ColumnStore::ints` / `str_ids`) **cell for cell**. A columnar
//! bug — a null bit off by one, a pool id aliased, a permutation
//! missing a column, a has-null flag lost — shows up as a model
//! divergence on a concrete batch, independent of
//! anything the catalog or the query methods do on top.
//!
//! Run with `PROPTEST_CASES=512` in CI's release pass for real
//! coverage; the checked-in counts are sized for debug `cargo test`.

use proptest::prelude::*;
use ts_storage::{
    ColumnDef, Predicate, Row, RowId, StorageError, Table, TableSchema, Value, ValueType,
};

/// String vocabulary: repeats force pool sharing, multi-token entries
/// exercise `Contains`, and distinct prefixes exercise ordering. The
/// tail is what tokenising can get wrong: no tokens at all, a token
/// repeated within one string, tab and double-space separators, and a
/// token that another token prefixes.
const VOCAB: [&str; 12] = [
    "mRNA",
    "EST",
    "alpha beta",
    "beta gamma delta",
    "x",
    "alpha",
    "",
    " \t ",
    "alpha alpha",
    "alpha\tbeta",
    "beta  gamma",
    "alphabet",
];

/// Vocabulary index seeds: every entry is drawn.
const VOCAB_SEEDS: std::ops::Range<usize> = 0..VOCAB.len();

/// The reference model: the pre-columnar table, reduced to its
/// semantics — an owned row heap plus the same validation rules.
struct RowModel {
    schema: TableSchema,
    rows: Vec<Row>,
}

/// Insert outcome kinds, comparable across model and table.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Outcome {
    Ok,
    SchemaMismatch,
    DuplicateKey,
}

fn outcome_of(r: &Result<RowId, StorageError>) -> Outcome {
    match r {
        Ok(_) => Outcome::Ok,
        Err(StorageError::SchemaMismatch { .. }) => Outcome::SchemaMismatch,
        Err(StorageError::DuplicateKey { .. }) => Outcome::DuplicateKey,
        Err(e) => panic!("unexpected insert error {e:?}"),
    }
}

impl RowModel {
    fn new(schema: TableSchema) -> Self {
        RowModel { schema, rows: Vec::new() }
    }

    fn insert(&mut self, row: Row) -> Outcome {
        if row.arity() != self.schema.arity() {
            return Outcome::SchemaMismatch;
        }
        for (c, v) in row.values().enumerate() {
            if let Some(ty) = v.value_type() {
                if ty != self.schema.column_type(c) {
                    return Outcome::SchemaMismatch;
                }
            }
        }
        if let Some(pk) = self.schema.primary_key {
            if self.rows.iter().any(|r| r.get(pk) == row.get(pk)) {
                return Outcome::DuplicateKey;
            }
        }
        self.rows.push(row);
        Outcome::Ok
    }

    /// Matching row ids, in order — what `Table::scan`,
    /// `Table::index_probe` and `Table::select_rows` must reproduce.
    fn matching(&self, pred: &Predicate) -> Vec<RowId> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| pred.eval(r))
            .map(|(i, _)| i as RowId)
            .collect()
    }

    /// Stable ascending sort by one column, mirroring
    /// `Table::sort_by_column`.
    fn sort_by_column(&mut self, col: usize) {
        self.rows.sort_by(|a, b| a.get(col).cmp(b.get(col)));
    }
}

/// A generated cell seed: `(kind, int value, vocab index)`. Kind 0 is
/// NULL; otherwise the column type picks which payload applies.
type CellSeed = (u8, i64, usize);

fn cell(ty: ValueType, seed: CellSeed) -> Value {
    let (kind, iv, si) = seed;
    if kind == 0 {
        return Value::Null;
    }
    match ty {
        ValueType::Int => Value::Int(iv),
        ValueType::Str => Value::str(VOCAB[si % VOCAB.len()]),
    }
}

/// Build schema + batch from raw seeds. `pk_seed == 0` puts a primary
/// key on column 0 when it is an Int column, so duplicate-key rejection
/// is exercised (int values collide by construction).
fn build_inputs(
    type_seeds: &[u8],
    pk_seed: u8,
    row_seeds: &[Vec<CellSeed>],
) -> (TableSchema, Vec<Row>) {
    let types: Vec<ValueType> =
        type_seeds.iter().map(|&t| if t == 0 { ValueType::Int } else { ValueType::Str }).collect();
    let pk = (pk_seed == 0 && types[0] == ValueType::Int).then_some(0);
    let schema = TableSchema::new(
        "C",
        types.iter().enumerate().map(|(i, &ty)| ColumnDef::new(format!("c{i}"), ty)).collect(),
        pk,
    );
    let rows: Vec<Row> = row_seeds
        .iter()
        .map(|seeds| {
            Row::new(types.iter().zip(seeds).map(|(&ty, &s)| cell(ty, s)).collect::<Vec<_>>())
        })
        .collect();
    (schema, rows)
}

/// Predicates worth checking against a schema: per-column equalities
/// (hits, misses, NULL), containment (string and — vacuously — int
/// columns; keywords that are a prefix of a token, hold a space, or are
/// empty), boolean combinators over the first two, and `Not` / `And` /
/// `Or` nested three deep across columns, every one of them nullable.
fn predicates(schema: &TableSchema) -> Vec<Predicate> {
    let not = |p: Predicate| Predicate::Not(Box::new(p));
    let mut out = Vec::new();
    for c in 0..schema.arity() {
        match schema.column_type(c) {
            ValueType::Int => {
                for k in [-3i64, 0, 7] {
                    out.push(Predicate::eq(c, k));
                }
            }
            ValueType::Str => {
                out.push(Predicate::eq(c, VOCAB[0]));
                out.push(Predicate::eq(c, VOCAB[2]));
                out.push(Predicate::eq(c, "absent"));
            }
        }
        out.push(Predicate::Eq(c, Value::Null));
        for kw in ["alpha", "beta", "alphabet", "alpha beta", ""] {
            out.push(Predicate::contains(c, kw));
        }
    }
    let last = schema.arity() - 1;
    let (a, b) = (Predicate::contains(0, "alpha"), Predicate::contains(last, "beta"));
    let (null0, null_last) = (Predicate::Eq(0, Value::Null), Predicate::Eq(last, Value::Null));
    out.extend([
        out[0].clone().and(out[1].clone()),
        out[0].clone().or(out[1].clone()),
        not(out[0].clone()),
        not(a.clone().and(not(b.clone().or(null_last.clone())))),
        not(a.clone()).or(b.clone().and(not(null0.clone()))),
        a.clone().and(not(b.clone())).or(not(null0.and(not(null_last)))),
        Predicate::True.and(not(Predicate::False.or(not(a)))),
    ]);
    out
}

/// Whether `Table::select_rows` must answer `pred` once the table is
/// analysed: every leaf is `True`, `False`, a `Contains`, or an `Eq` on
/// a column in `indexed`.
fn index_answers(pred: &Predicate, indexed: &[usize]) -> bool {
    match pred {
        Predicate::True | Predicate::False | Predicate::Contains(..) => true,
        Predicate::Eq(c, _) => indexed.contains(c),
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            index_answers(a, indexed) && index_answers(b, indexed)
        }
        Predicate::Not(a) => index_answers(a, indexed),
    }
}

/// `select_rows` against the model for every predicate: the model's ids
/// where the indexes can answer, `None` where they cannot.
fn assert_index_selections(table: &Table, model: &RowModel, indexed: &[usize], label: &str) {
    for pred in predicates(&model.schema) {
        let got = table.select_rows(&pred);
        if !index_answers(&pred, indexed) {
            assert_eq!(got, None, "{label}: {pred:?} has a leaf no index answers");
            continue;
        }
        let sel = got.unwrap_or_else(|| panic!("{label}: {pred:?} must be answered"));
        assert_eq!(sel.rows, model.matching(&pred), "{label}: {pred:?}");
        assert!(sel.read >= sel.rows.len() as u64, "{label}: {pred:?} read {}", sel.read);
    }
}

/// Every cell of `table` equals the model, through every `RowRef`
/// accessor (owned value, typed accessors, null flag).
fn assert_cells_match(table: &Table, model: &RowModel, label: &str) {
    assert_eq!(table.len(), model.rows.len(), "{label}: row count");
    for (i, expected) in model.rows.iter().enumerate() {
        let got = table.row(i as RowId);
        for c in 0..model.schema.arity() {
            let want = expected.get(c);
            assert_eq!(&got.get(c), want, "{label}: cell ({i}, {c})");
            assert_eq!(got.try_int(c), want.try_int(), "{label}: try_int ({i}, {c})");
            assert_eq!(got.try_str(c), want.try_str(), "{label}: try_str ({i}, {c})");
            assert_eq!(got.is_null(c), want.is_null(), "{label}: is_null ({i}, {c})");
        }
        // And the materialization path used at operator boundaries.
        assert_eq!(&got.to_row(), expected, "{label}: to_row({i})");
    }
}

/// The raw-buffer fast lanes against the model: per column, `ints` /
/// `str_ids` is `Some` exactly when the model's column holds no NULL,
/// and then holds the model's cells in row order.
fn assert_raw_buffers_match(table: &Table, model: &RowModel, label: &str) {
    let store = table.store();
    for c in 0..model.schema.arity() {
        let cells = || model.rows.iter().map(|r| r.get(c));
        let raw = |ty| model.schema.column_type(c) == ty && cells().all(|v| !v.is_null());
        let ints: Option<Vec<i64>> =
            raw(ValueType::Int).then(|| cells().filter_map(Value::try_int).collect());
        assert_eq!(store.ints(c).map(<[i64]>::to_vec), ints, "{label}: ints({c})");
        let strs: Option<Vec<&str>> =
            raw(ValueType::Str).then(|| cells().filter_map(Value::try_str).collect());
        let got_strs: Option<Vec<&str>> =
            store.str_ids(c).map(|ids| ids.iter().map(|&id| &**store.pool_str(id)).collect());
        assert_eq!(got_strs, strs, "{label}: str_ids({c})");
    }
}

/// `i64` keys an index must not mishandle: both extremes and their
/// neighbours, and the values around zero.
const EXTREME_KEYS: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

/// Rewrite the Int payloads of `rows` into one key shape: 0 keeps them
/// as drawn; 1 draws every key from [`EXTREME_KEYS`]; 2 puts one key on
/// every row of a column; 3 gives every row its own key, alternating
/// from both ends of `i64`; 4 drops every row. Shapes 1–3 clear the NULL
/// kind, so their Int columns stay null-free and index by counting.
fn reshape_int_keys(shape: u8, rows: &[Vec<CellSeed>]) -> Vec<Vec<CellSeed>> {
    match shape {
        0 => return rows.to_vec(),
        4 => return Vec::new(),
        _ => {}
    }
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(|(c, &(kind, v, si))| {
                    let key = match shape {
                        1 => EXTREME_KEYS[v.rem_euclid(EXTREME_KEYS.len() as i64) as usize],
                        2 => EXTREME_KEYS[c % EXTREME_KEYS.len()],
                        _ if i % 2 == 0 => i64::MIN + i as i64,
                        _ => i64::MAX - i as i64,
                    };
                    (kind.max(1), key, si)
                })
                .collect()
        })
        .collect()
}

/// Every index of `bulk` and `incremental` returns the model's ids for
/// every key present in the model, the extremes, absent keys and NULL.
fn assert_indexes_match(bulk: &Table, incremental: &Table, model: &RowModel, label: &str) {
    for c in 0..model.schema.arity() {
        let mut keys: Vec<Value> = model.rows.iter().map(|r| r.get(c).clone()).collect();
        keys.extend(EXTREME_KEYS.map(Value::Int));
        keys.extend([Value::Null, Value::Int(999), Value::str("absent")]);
        for key in keys {
            let want = model.matching(&Predicate::Eq(c, key.clone()));
            assert_eq!(bulk.index_probe(c, &key), &want[..], "{label}: bulk col {c} key {key:?}");
            assert_eq!(
                incremental.index_probe(c, &key),
                &want[..],
                "{label}: incremental col {c} key {key:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Insert conformance: same outcomes (accept / schema error /
    /// duplicate key), same surviving rows cell-for-cell, and a heap
    /// size that grows with every accepted row.
    #[test]
    fn insert_outcomes_and_cells_match(
        type_seeds in proptest::collection::vec(0u8..2, 1..5),
        pk_seed in 0u8..3,
        row_seeds in proptest::collection::vec(
            proptest::collection::vec((0u8..8, -5i64..12, VOCAB_SEEDS), 4), 0..40),
    ) {
        let (schema, rows) = build_inputs(&type_seeds, pk_seed, &row_seeds);
        let mut table = Table::new(schema.clone());
        let mut model = RowModel::new(schema.clone());
        let mut prev_size = table.heap_size();
        for row in rows {
            let got = outcome_of(&table.insert(row.clone()));
            let want = model.insert(row);
            prop_assert_eq!(got, want, "insert outcome");
            let size = table.heap_size();
            if got == Outcome::Ok {
                prop_assert!(size > prev_size, "heap_size must grow: {} <= {}", size, prev_size);
            } else {
                prop_assert_eq!(size, prev_size, "rejected insert must not change heap_size");
            }
            prev_size = size;
        }
        assert_cells_match(&table, &model, "after inserts");
        // Arity mismatches rejected identically too.
        let short = Row::new(vec![Value::Null]);
        if schema.arity() > 1 {
            prop_assert_eq!(outcome_of(&table.insert(short.clone())), model.insert(short));
        }
    }

    /// Scan/filter conformance: `Table::scan` over the column buffers
    /// returns exactly the model's matching ids for every predicate
    /// shape, and `eval_ref` agrees with `eval` row by row.
    #[test]
    fn scans_and_filters_match(
        type_seeds in proptest::collection::vec(0u8..2, 1..5),
        row_seeds in proptest::collection::vec(
            proptest::collection::vec((0u8..8, -5i64..12, VOCAB_SEEDS), 4), 0..40),
    ) {
        let (schema, rows) = build_inputs(&type_seeds, 1, &row_seeds);
        let mut table = Table::new(schema.clone());
        let mut model = RowModel::new(schema.clone());
        for row in rows {
            table.insert(row.clone()).expect("no pk, types match");
            model.insert(row);
        }
        for pred in predicates(&schema) {
            prop_assert_eq!(table.scan(&pred), model.matching(&pred), "scan {:?}", &pred);
            for (i, row) in model.rows.iter().enumerate() {
                prop_assert_eq!(
                    pred.eval_ref(table.row(i as RowId)),
                    pred.eval(row),
                    "eval_ref vs eval at row {} for {:?}", i, &pred
                );
            }
        }
    }

    /// σ-from-indexes conformance: once the table is analysed, with a
    /// secondary index on one Str column (and the primary key's, when
    /// there is one), `select_rows` returns the model's ids for every
    /// predicate whose leaves an index answers and `None` for the rest.
    /// An insert drops the postings with the rest of the statistics —
    /// `None` until the next `analyze`, which answers for the new row
    /// too.
    #[test]
    fn index_selections_match_the_model(
        type_seeds in proptest::collection::vec(0u8..2, 1..5),
        pk_seed in 0u8..3,
        index_seed in 0usize..4,
        row_seeds in proptest::collection::vec(
            proptest::collection::vec((0u8..8, -5i64..12, VOCAB_SEEDS), 4), 0..40),
        late_seeds in proptest::collection::vec((1u8..8, 100i64..200, VOCAB_SEEDS), 4),
    ) {
        let (schema, rows) = build_inputs(&type_seeds, pk_seed, &row_seeds);
        let mut table = Table::new(schema.clone());
        let mut model = RowModel::new(schema.clone());
        for row in rows {
            prop_assert_eq!(outcome_of(&table.insert(row.clone())), model.insert(row));
        }
        let mut indexed: Vec<usize> = schema.primary_key.into_iter().collect();
        let str_cols: Vec<usize> =
            (0..schema.arity()).filter(|&c| schema.column_type(c) == ValueType::Str).collect();
        if !str_cols.is_empty() {
            let col = str_cols[index_seed % str_cols.len()];
            table.create_index(col);
            indexed.push(col);
        }
        for pred in predicates(&schema) {
            prop_assert_eq!(table.select_rows(&pred), None, "never analysed: {:?}", &pred);
        }
        table.analyze();
        assert_index_selections(&table, &model, &indexed, "analysed");

        // A late row: no NULLs, int cells outside every earlier key.
        let (_, late) = build_inputs(&type_seeds, pk_seed, &[late_seeds]);
        let late = late.into_iter().next().expect("one row");
        prop_assert_eq!(outcome_of(&table.insert(late.clone())), Outcome::Ok);
        model.insert(late);
        for pred in predicates(&schema) {
            prop_assert_eq!(table.select_rows(&pred), None, "stale: {:?}", &pred);
        }
        table.analyze();
        assert_index_selections(&table, &model, &indexed, "re-analysed");
    }

    /// Index conformance: bulk and row-by-row index builds both return
    /// the model's matching ids for present keys, absent keys, and
    /// NULL — on Int columns (counted postings) and Str columns (pool
    /// path) alike — and both stay current through later inserts.
    /// `key_shape` rewrites the Int cells ([`reshape_int_keys`]): as
    /// drawn (NULLs included, so the generic path), the extremes of
    /// `i64`, one key on every row, all-distinct keys, or no rows at all.
    #[test]
    fn index_lookups_match(
        type_seeds in proptest::collection::vec(0u8..2, 1..5),
        key_shape in 0u8..5,
        row_seeds in proptest::collection::vec(
            proptest::collection::vec((0u8..8, -5i64..12, VOCAB_SEEDS), 4), 0..40),
        late_seeds in proptest::collection::vec(
            proptest::collection::vec((0u8..8, -5i64..12, VOCAB_SEEDS), 4), 0..4),
    ) {
        let row_seeds = reshape_int_keys(key_shape, &row_seeds);
        let (schema, rows) = build_inputs(&type_seeds, 1, &row_seeds);
        let mut bulk = Table::new(schema.clone());
        let mut model = RowModel::new(schema.clone());
        for row in rows {
            bulk.insert(row.clone()).expect("no pk, types match");
            model.insert(row);
        }
        let mut incremental = bulk.clone();
        for c in 0..schema.arity() {
            bulk.create_index_bulk(c);
            incremental.create_index(c);
        }
        assert_indexes_match(&bulk, &incremental, &model, "built");

        let (_, late) = build_inputs(&type_seeds, 1, &late_seeds);
        for row in late {
            bulk.insert(row.clone()).expect("no pk, types match");
            incremental.insert(row.clone()).expect("no pk, types match");
            model.insert(row);
        }
        assert_indexes_match(&bulk, &incremental, &model, "after inserts");
    }

    /// Sort conformance: `sort_by_column` (columnar permutation, flat
    /// Int fast path) equals the model's stable row sort, and the
    /// rebuilt indexes still answer like the model afterwards.
    #[test]
    fn sorts_match(
        type_seeds in proptest::collection::vec(0u8..2, 1..5),
        row_seeds in proptest::collection::vec(
            proptest::collection::vec((0u8..8, -5i64..12, VOCAB_SEEDS), 4), 0..40),
        sort_col_seed in 0usize..4,
    ) {
        let (schema, rows) = build_inputs(&type_seeds, 1, &row_seeds);
        let sort_col = sort_col_seed % schema.arity();
        let mut table = Table::new(schema.clone());
        let mut model = RowModel::new(schema.clone());
        for row in rows {
            table.insert(row.clone()).expect("no pk, types match");
            model.insert(row);
        }
        let index_col = (sort_col + 1) % schema.arity();
        table.create_index_bulk(index_col);
        table.sort_by_column(sort_col);
        model.sort_by_column(sort_col);
        assert_cells_match(&table, &model, "after sort");
        // The secondary index was rebuilt over the permuted ids.
        let probe_keys: Vec<Value> = match schema.column_type(index_col) {
            ValueType::Int => vec![Value::Int(0), Value::Int(7), Value::Null],
            ValueType::Str => vec![Value::str(VOCAB[0]), Value::str(VOCAB[3]), Value::Null],
        };
        for key in probe_keys {
            let want = model.matching(&Predicate::Eq(index_col, key.clone()));
            prop_assert_eq!(
                table.index_probe(index_col, &key), &want[..],
                "post-sort probe col {} key {:?}", index_col, &key
            );
        }
    }

    /// Raw-buffer conformance: after any interleaving of `insert` (NULLs
    /// included), `insert_ints`, `reserve`, `sort_by_column` and `clone`,
    /// long enough to cross mask words, `ints` and `str_ids` agree with
    /// the model after every step ([`assert_raw_buffers_match`]). Both
    /// answer from a has-null flag, not from the mask, so a path that
    /// rebuilds the mask without carrying the flag fails here.
    /// `null_rate` is the chance, in 64ths, that a cell is NULL.
    #[test]
    fn raw_buffers_match_through_any_interleaving(
        type_seeds in proptest::collection::vec(0u8..3, 1..4),
        pk_seed in 0u8..3,
        null_rate in 0u8..3,
        ops in proptest::collection::vec(
            (0u8..16, proptest::collection::vec((0u8..64, -5i64..40, VOCAB_SEEDS), 4), 0usize..4),
            0..160),
    ) {
        // Two Int columns in three, so all-Int schemas take `insert_ints`.
        let types: Vec<u8> = type_seeds.iter().map(|&t| t / 2).collect();
        let (schema, _) = build_inputs(&types, pk_seed, &[]);
        let mut table = Table::new(schema.clone());
        let mut model = RowModel::new(schema.clone());
        for (step, (kind, seeds, col_seed)) in ops.into_iter().enumerate() {
            let seeds: Vec<CellSeed> =
                seeds.iter().map(|&(k, v, si)| (u8::from(k >= null_rate), v, si)).collect();
            match kind {
                0..=9 => {
                    let (_, rows) = build_inputs(&types, pk_seed, &[seeds]);
                    let row = rows.into_iter().next().expect("one row");
                    prop_assert_eq!(outcome_of(&table.insert(row.clone())), model.insert(row));
                }
                10..=12 => {
                    let vals: Vec<i64> =
                        seeds[..schema.arity()].iter().map(|&(_, v, _)| v).collect();
                    let row = Row::new(vals.iter().map(|&v| Value::Int(v)).collect());
                    prop_assert_eq!(outcome_of(&table.insert_ints(&vals)), model.insert(row));
                }
                13 => table.reserve(col_seed * 40),
                14 => {
                    let col = col_seed % schema.arity();
                    table.sort_by_column(col);
                    model.sort_by_column(col);
                }
                _ => table = table.clone(),
            }
            assert_raw_buffers_match(&table, &model, &format!("step {step} (op {kind})"));
        }
        assert_cells_match(&table, &model, "after the interleaving");
    }

    /// The all-Int fast lane is indistinguishable from generic inserts:
    /// same outcomes (including duplicate-pk rejection), same cells,
    /// same bytes.
    #[test]
    fn insert_ints_matches_insert(
        pk_seed in 0u8..2,
        rows in proptest::collection::vec((-4i64..8, -4i64..8, -4i64..8), 0..40),
    ) {
        let schema = TableSchema::new(
            "I",
            vec![
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::new("b", ValueType::Int),
                ColumnDef::new("c", ValueType::Int),
            ],
            (pk_seed == 0).then_some(0),
        );
        let mut generic = Table::new(schema.clone());
        let mut fast = Table::new(schema);
        for (a, b, c) in rows {
            let vals = [a, b, c];
            let via_generic =
                outcome_of(&generic.insert(Row::new(vals.iter().map(|&v| Value::Int(v)).collect())));
            let via_fast = outcome_of(&fast.insert_ints(&vals));
            prop_assert_eq!(via_generic, via_fast, "outcome for {:?}", vals);
        }
        prop_assert!(generic.rows().eq(fast.rows()), "cell content diverged");
        prop_assert_eq!(generic.heap_size(), fast.heap_size());
    }

    /// The bulk constructor over owned Int columns against row-by-row
    /// `insert_ints`: the same rows, raw buffers and bytes, and after
    /// `create_index_bulk` on every column the same probes (present keys,
    /// the extremes, absent keys) and bytes, for one to three columns,
    /// any key shape ([`reshape_int_keys`]) and any row count, none
    /// included.
    #[test]
    fn int_columns_match_row_by_row_inserts(
        arity in 1usize..4,
        key_shape in 0u8..5,
        row_seeds in proptest::collection::vec(
            proptest::collection::vec((0u8..8, -5i64..12, VOCAB_SEEDS), 4), 0..40),
    ) {
        let rows: Vec<Vec<i64>> = reshape_int_keys(key_shape, &row_seeds)
            .iter()
            .map(|r| r[..arity].iter().map(|&(_, v, _)| v).collect())
            .collect();
        let defs = (0..arity).map(|c| ColumnDef::new(format!("c{c}"), ValueType::Int)).collect();
        let schema = TableSchema::new("I", defs, None);
        let mut by_row = Table::new(schema.clone());
        for r in &rows {
            by_row.insert_ints(r).expect("all-Int, no pk");
        }
        let cols = (0..arity).map(|c| rows.iter().map(|r| r[c]).collect()).collect();
        let mut bulk = Table::from_int_columns(schema, cols).expect("all-Int, no pk");
        prop_assert!(bulk.rows().eq(by_row.rows()), "rows");
        for c in 0..arity {
            prop_assert_eq!(bulk.store().ints(c), by_row.store().ints(c), "ints({})", c);
        }
        prop_assert_eq!(bulk.heap_size(), by_row.heap_size());
        for c in 0..arity {
            bulk.create_index_bulk(c);
            by_row.create_index_bulk(c);
            let keys = rows.iter().map(|r| r[c]).chain(EXTREME_KEYS).chain([999]);
            for key in keys.map(Value::Int) {
                prop_assert_eq!(bulk.index_probe(c, &key), by_row.index_probe(c, &key));
            }
        }
        prop_assert_eq!(bulk.heap_size(), by_row.heap_size());
    }

    /// `heap_size` is strictly monotone in row count whatever the
    /// batch looks like — duplicate strings, nulls, fresh strings.
    #[test]
    fn heap_size_monotone_and_bounded(
        type_seeds in proptest::collection::vec(0u8..2, 1..5),
        row_seeds in proptest::collection::vec(
            proptest::collection::vec((0u8..8, -5i64..12, VOCAB_SEEDS), 4), 1..60),
    ) {
        let (schema, rows) = build_inputs(&type_seeds, 1, &row_seeds);
        let mut table = Table::new(schema);
        let mut prev = table.heap_size();
        for row in rows {
            table.insert(row).expect("no pk, types match");
            let now = table.heap_size();
            prop_assert!(now > prev, "heap_size fell or stalled: {} -> {}", prev, now);
            prev = now;
        }
    }
}

/// What `Table::from_int_columns` rejects: columns that do not match the
/// schema in number, a column the schema does not type Int, columns of
/// unequal length, and a primary key (a bulk load checks no key). The
/// rows `insert_ints` would have taken, it takes.
#[test]
fn int_columns_reject_what_the_schema_does_not_fit() {
    let int = |name: &str| ColumnDef::new(name, ValueType::Int);
    let two = TableSchema::new("T", vec![int("a"), int("b")], None);
    let mixed = TableSchema::new("M", vec![int("a"), ColumnDef::new("s", ValueType::Str)], None);
    let keyed = TableSchema::new("K", vec![int("a"), int("b")], Some(0));
    for (schema, cols) in [
        (two.clone(), vec![vec![1]]),
        (two.clone(), vec![vec![1, 2], vec![3]]),
        (mixed, vec![vec![1], vec![2]]),
        (keyed, vec![vec![1], vec![2]]),
    ] {
        let got = Table::from_int_columns(schema.clone(), cols.clone());
        assert!(
            matches!(got, Err(StorageError::SchemaMismatch { .. })),
            "{} with {cols:?}",
            schema.name
        );
    }
    let t = Table::from_int_columns(two, vec![vec![1, 2], vec![3, 4]]).expect("fits");
    assert_eq!(t.store().ints(1), Some(&[3i64, 4][..]));
}
