//! # ts-storage
//!
//! The in-memory relational substrate underneath topology search.
//!
//! The paper ("Topology Search over Biological Databases") runs its methods
//! on IBM DB2 / SQL Server; this crate is our from-scratch replacement: a
//! small but complete relational engine with
//!
//! * typed [`Value`]s and [`Row`]s,
//! * columnar [`Table`] storage ([`ColumnStore`]: one flat buffer per
//!   typed column, a per-table string pool, null bitmaps) read through
//!   borrowing [`RowRef`] views — zero per-row heap allocations on
//!   insert, scan, and clone,
//! * [`Table`]s with primary-key and secondary hash [`index`]es,
//! * composable [`Predicate`]s, including the paper's keyword-containment
//!   predicate (`desc.ct('enzyme')`) and structured equality predicates,
//! * catalog [`stats`] (cardinalities, distinct counts, keyword postings)
//!   the cost-based plan choices in `ts-core` estimate from, and which
//!   [`Table::select_rows`] reads with the hash indexes to answer a
//!   predicate without a scan,
//! * a [`Database`] that also carries the Entity–Relationship schema
//!   (entity sets and binary relationship sets, §2.1 of the paper) from
//!   which `ts-graph` builds the data graph,
//! * the vendored fast non-Sip [`hash`]er ([`FastMap`]/[`FastSet`])
//!   behind every hot-path map in the workspace.
//!
//! Everything is deliberately simple, deterministic and allocation-aware;
//! the point is a faithful, inspectable substrate, not a general DBMS.

#![forbid(unsafe_code)]
// Lint scope: error-or-justify panics, checked narrowing, FastMap only,
// audited clocks/joins/catch_unwind (lists in the root clippy.toml; see
// docs/LINTS.md). A suppression is `#[expect(<lint>, reason = "..")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation,
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod cast;
pub mod column;
pub mod db;
pub mod error;
pub mod faults;
pub mod hash;
pub mod index;
pub mod predicate;
pub mod row;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use column::{ColumnStore, RowRef};
pub use db::{Database, EntitySetDef, EntitySetId, RelSetDef, RelSetId};
pub use error::StorageError;
pub use hash::{fast_hash_u16s, FastBuildHasher, FastHasher, FastMap, FastSet};
pub use index::HashIndex;
pub use predicate::Predicate;
pub use row::{Row, RowId};
pub use schema::{ColumnDef, ColumnId, TableId, TableSchema};
pub use stats::{ColumnStats, TableStats};
pub use table::{IndexSelection, Table};
pub use value::{Value, ValueType};
