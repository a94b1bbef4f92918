//! Typed values stored in table cells.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The type of a column / value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer (entity IDs, foreign keys, scores).
    Int,
    /// Interned UTF-8 string (definitions, types, keywords).
    Str,
}

/// A single cell value.
///
/// Strings are `Arc<str>` so that rows can be cloned cheaply while the
/// generator shares keyword payloads across millions of rows.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// String value.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The runtime type of this value, or `None` for NULL.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Str(_) => Some(ValueType::Str),
        }
    }

    /// Integer accessor; panics with a clear message on type confusion.
    ///
    /// Used on foreign-key columns where the schema guarantees `Int`.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(i) => *i,
            #[expect(
                clippy::panic,
                reason = "typed-accessor contract; try_int is the non-panicking sibling for schema-unaware callers"
            )]
            other => panic!("expected Int value, found {other:?}"),
        }
    }

    /// Non-panicking integer accessor.
    pub fn try_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String accessor; panics on type confusion.
    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            #[expect(
                clippy::panic,
                reason = "typed-accessor contract; try_str is the non-panicking sibling for schema-unaware callers"
            )]
            other => panic!("expected Str value, found {other:?}"),
        }
    }

    /// Non-panicking string accessor.
    pub fn try_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True if this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate in-memory footprint in bytes, used by the space
    /// accounting behind Table 1 of the paper.
    pub fn heap_size(&self) -> usize {
        match self {
            Value::Null => 0,
            Value::Int(_) => 0,
            Value::Str(s) => s.len(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL < Int < Str; within a type, natural order.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_)) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_and_hash_agree() {
        let a = Value::str("enzyme");
        let b = Value::str("enzyme");
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(Value::Int(1), Value::str("1"));
    }

    #[test]
    fn total_order_is_null_int_str() {
        let mut vals = vec![Value::str("a"), Value::Int(3), Value::Null, Value::Int(-1)];
        vals.sort();
        assert_eq!(vals, vec![Value::Null, Value::Int(-1), Value::Int(3), Value::str("a")]);
    }

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Int(42).as_int(), 42);
        assert_eq!(Value::str("mRNA").as_str(), "mRNA");
        assert_eq!(Value::Null.try_int(), None);
        assert_eq!(Value::Int(1).try_str(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn as_int_panics_on_str() {
        Value::str("x").as_int();
    }

    #[test]
    fn heap_size_counts_string_payload() {
        assert_eq!(Value::Int(7).heap_size(), 0);
        assert_eq!(Value::str("abcd").heap_size(), 4);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("uni").to_string(), "uni");
    }
}
