//! Rows and row identifiers.

use crate::value::Value;

/// Index of a row within its table's row vector.
///
/// `u32` keeps catalog tables (AllTops is the big one) compact; a table is
/// limited to ~4 billion rows, far beyond laptop-scale reproduction needs.
pub type RowId = u32;

/// A row is an owned sequence of values matching the table schema arity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// Construct a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row(values)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Value at column `i`.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// Iterate the values.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter()
    }

    /// Concatenate two rows (used by joins to build output tuples).
    pub fn concat(&self, other: &Row) -> Row {
        let mut v = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Row(v)
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Self {
        Row(v)
    }
}

/// Convenience macro for building rows in tests and generators.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::row::Row::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn concat_preserves_order() {
        let a = row![1i64, "x"];
        let b = row![2i64];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(0).as_int(), 1);
        assert_eq!(c.get(1).as_str(), "x");
        assert_eq!(c.get(2).as_int(), 2);
    }
}
