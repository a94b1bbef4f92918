//! Hash indexes over table columns.
//!
//! The paper's experimental setup builds "indices on all the primary keys
//! and queried attributes" (§6.1). We provide an equality hash index; the
//! optimizer's `I_i` parameter (cost of an index probe, §5.4.3) is the cost
//! of one [`HashIndex::probe`].

use crate::hash::{FastBuildHasher, FastMap};
use crate::row::RowId;
use crate::value::Value;

/// An equality hash index mapping a column value to the row ids holding it.
///
/// Non-unique by design; a unique (primary key) index is simply one where
/// every posting list has length 1, enforced by [`crate::Table`] on insert.
/// Probes hash with the fast non-Sip hasher ([`crate::hash`]); probe
/// results are position-independent, so iteration order never leaks.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: FastMap<Value, Vec<RowId>>,
}

impl HashIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty index pre-sized for `distinct` keys — bulk builds size the
    /// map once instead of rehash-growing run by run.
    pub fn with_capacity(distinct: usize) -> Self {
        HashIndex { map: FastMap::with_capacity_and_hasher(distinct, FastBuildHasher::default()) }
    }

    /// Insert a posting.
    pub fn insert(&mut self, key: Value, row: RowId) {
        self.map.entry(key).or_default().push(row);
    }

    /// Bulk-insert one fully formed posting run: every row id in `ids`
    /// (pre-sorted ascending) carries `key`. The posting vector is
    /// allocated at its exact final length — no per-row `entry()`
    /// churn. Bulk index builds detect runs on the columnar buffers
    /// (cheap cell comparisons) and materialize exactly one owned key
    /// per distinct value for this call. The caller guarantees each
    /// key is handed over at most once per build.
    pub fn insert_run(&mut self, key: Value, ids: &[RowId]) {
        debug_assert!(!ids.is_empty(), "a run has at least one posting");
        let prev = self.map.insert(key, ids.to_vec());
        debug_assert!(prev.is_none(), "insert_run called twice for one key");
    }

    /// Rows whose indexed column equals `key`.
    pub fn probe(&self, key: &Value) -> &[RowId] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Total number of postings.
    pub fn postings(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Approximate heap footprint in bytes (space accounting).
    pub fn heap_size(&self) -> usize {
        self.map
            .iter()
            .map(|(k, v)| {
                std::mem::size_of::<Value>()
                    + k.heap_size()
                    + v.len() * std::mem::size_of::<RowId>()
            })
            .sum()
    }

    /// Iterate `(key, postings)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &[RowId])> {
        self.map.iter().map(|(k, v)| (k, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_hits_and_misses() {
        let mut idx = HashIndex::new();
        idx.insert(Value::Int(7), 0);
        idx.insert(Value::Int(7), 3);
        idx.insert(Value::str("mRNA"), 1);
        assert_eq!(idx.probe(&Value::Int(7)), &[0, 3]);
        assert_eq!(idx.probe(&Value::str("mRNA")), &[1]);
        assert!(idx.probe(&Value::Int(8)).is_empty());
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.postings(), 3);
    }
}
