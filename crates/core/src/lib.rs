//! # ts-core
//!
//! The paper's primary contribution: **data topologies** and the family
//! of algorithms that compute them.
//!
//! A *topology* (Definition 2) summarizes, at the schema level, the
//! complete set of ways a pair of entities is related at the instance
//! level: group the simple paths `PS(a,b,l)` into isomorphism classes
//! (Definition 1), union one representative per class, and take the
//! isomorphism class of the union. The *l-topology result* of a 2-query
//! (Definition 3) is the set of topologies over all pairs of entities
//! satisfying the query's constraints.
//!
//! This crate provides:
//!
//! * [`topology`] — Definitions 1–2: path equivalence classes and
//!   `l-Top(a,b)` with canonical-code deduplication;
//! * [`compute`] — the offline Topology Computation module (§4.1) that
//!   builds the `AllTops` catalog from the base data (optionally in
//!   parallel);
//! * [`catalog`] — the `AllTops` / `TopInfo` / `LeftTops` tables (§3.2,
//!   §4.2) materialized as real relational tables plus the per-topology
//!   metadata; AllTops answers the `ExcpTops` question;
//! * [`prune`] — the Topology Pruning module (§4.2): frequency-threshold
//!   pruning of path-shaped topologies, counting their exceptions;
//! * [`score`] — the `Freq` / `Rare` / `Domain` ranking schemes (§6.1);
//! * [`methods`] — all nine evaluation strategies of §6: `SQL`,
//!   `Full-Top`, `Fast-Top`, `Full-Top-k`, `Fast-Top-k`,
//!   `Full-Top-k-ET`, `Fast-Top-k-ET`, `Full-Top-k-Opt`,
//!   `Fast-Top-k-Opt`;
//! * [`weak`] — Appendix B's weak-relationship patterns and the
//!   domain-knowledge pruning policy of §6.2.3;
//! * [`instances`] — instance retrieval for a chosen topology (§6.2.4).

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

pub mod catalog;
pub mod compare;
pub mod compute;
pub mod instances;
pub mod methods;
pub mod prune;
pub mod query;
pub mod score;
pub mod snapshot;
pub mod topology;
pub mod weak;

// The test-side Definition-2 reference the facade's integration tests
// share; it names this crate `ts_core`, as they do.
#[cfg(test)]
extern crate self as ts_core;
#[cfg(test)]
#[path = "../../../tests/reference/mod.rs"]
mod reference;

pub use catalog::{Catalog, EsPair, PairView, TopologyId, TopologyMeta};
pub use compare::{diff, ResultView, TopologyDiff};
pub use compute::{
    compute_catalog, compute_catalog_with_hasher, panic_detail, try_compute_catalog,
    try_compute_catalog_with_hasher, ComputeError, ComputeOptions, ComputeStats,
};
pub use methods::{validate_query, EvalOutcome, Method, Plan, PlanNote, QueryContext, QueryError};
pub use prune::{prune_catalog, PruneOptions, PruneReport};
pub use query::{RankScheme, TopologyQuery};
pub use score::{score_catalog, DomainScorer};
pub use snapshot::Snapshot;
pub use topology::TopOptions;
pub use ts_exec::{Budget, Exhausted, Work};
pub use weak::WeakPolicy;
