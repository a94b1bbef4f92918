//! # ts-graph
//!
//! Graph substrate for topology search, implementing §2.1 of the paper:
//!
//! * the **data graph** (Fig. 6): one node per entity, one undirected
//!   labeled edge per relationship row ([`DataGraph`]);
//! * the **schema graph** (Fig. 1): entity sets connected by relationship
//!   sets, with label-walk enumeration and the walk automaton that steers
//!   instance-path search ([`SchemaGraph`], [`WalkAutomaton`]);
//! * **simple-path enumeration** `PS(a, b, l)` — all simple paths of
//!   length ≤ l between two entities ([`paths`]);
//! * **labeled-graph isomorphism** via exact canonical codes (colour
//!   refinement + backtracking minimal encoding, a miniature nauty) —
//!   the identity of a topology everywhere in the system ([`canon`]);
//! * small **labeled multigraphs** and union-building from paths
//!   ([`lgraph`]), plus ASCII [`render`]ing of topology structures.

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

pub mod canon;
pub mod data_graph;
pub mod fixtures;
pub mod lgraph;
pub mod paths;
pub mod render;
pub mod schema_graph;

pub use canon::{canonical_code, is_isomorphic, CanonicalCode};
pub use data_graph::{DataGraph, NodeId};
pub use lgraph::{InstanceGraphBuilder, LGraph};
pub use paths::{
    enumerate_pair_paths, paths_from_into, PairPaths, Path, PathArena, PathRef, PathSig, PathSink,
};
pub use schema_graph::{SchemaGraph, WalkAutomaton};
