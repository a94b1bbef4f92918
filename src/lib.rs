//! # topology-search
//!
//! A from-scratch reproduction of *"Topology Search over Biological
//! Databases"* (Guo, Shanmugasundaram, Yona): data topologies — schema-
//! level summaries of every way two entities relate at the instance
//! level — and the full family of evaluation strategies the paper
//! develops around them (`Full-Top`, `Fast-Top` with pruning + exception
//! tables, top-k variants, early-termination plans built on Distinct
//! Group Join operators, and a cost-based optimizer).
//!
//! This facade re-exports the workspace crates under stable paths:
//!
//! * [`storage`] — in-memory relational substrate (tables, indexes,
//!   predicates, statistics);
//! * [`graph`] — data/schema graphs, simple-path enumeration, exact
//!   labeled-graph canonicalization;
//! * [`exec`] — batch-at-a-time Volcano engine with the DGJ operator family;
//! * [`optimizer`] — the Theorem-1 cost model for DGJ stacks, the
//!   early-termination side of the `*-Opt` methods' plan choice;
//! * [`core`] — topologies, the catalog (AllTops / LeftTops / TopInfo,
//!   with ExcpTops counted, not stored), pruning, scoring, and the nine
//!   query methods;
//! * [`biozon`] — the seeded synthetic Biozon generator and the paper's
//!   experiment workloads.
//!
//! ## Quickstart
//!
//! ```
//! use topology_search::prelude::*;
//!
//! // Generate a small Biozon-shaped database.
//! let biozon = biozon::generate(&biozon::BiozonConfig::small(42));
//! let graph = graph::DataGraph::from_db(&biozon.db).unwrap();
//! let schema = graph::SchemaGraph::from_db(&biozon.db);
//!
//! // Offline: compute the topology catalog at l = 2, prune, score.
//! let (mut catalog, _stats) =
//!     core::compute_catalog(&biozon.db, &graph, &schema, &core::ComputeOptions::with_l(2));
//! core::prune_catalog(&mut catalog, core::PruneOptions::default());
//! core::score_catalog(&mut catalog, &biozon::domain_scorer(&biozon.ids));
//!
//! // Online: how are proteins related to DNAs?
//! let ctx = core::QueryContext {
//!     db: &biozon.db,
//!     graph: &graph,
//!     schema: &schema,
//!     catalog: &catalog,
//! };
//! let query = core::TopologyQuery::new(
//!     biozon.ids.protein,
//!     storage::Predicate::True,
//!     biozon.ids.dna,
//!     storage::Predicate::True,
//!     2,
//! );
//! let outcome = core::Method::FastTopKOpt.eval(&ctx, &query);
//! assert!(!outcome.topologies.is_empty());
//! ```

#![forbid(unsafe_code)]
// Lint scope: audited clocks/joins/catch_unwind (list in the root
// clippy.toml; see docs/LINTS.md). A suppression is
// `#[expect(<lint>, reason = "..")]`.
#![deny(
    clippy::disallowed_methods,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

/// In-memory relational substrate.
pub use ts_storage as storage;

/// Graph substrate: paths and isomorphism.
pub use ts_graph as graph;

/// Volcano execution engine with DGJ operators.
pub use ts_exec as exec;

/// Theorem-1 cost model for DGJ stacks.
pub use ts_optimizer as optimizer;

/// Topologies, catalog, and the nine evaluation methods.
pub use ts_core as core;

/// Synthetic Biozon generator and workloads.
pub use ts_biozon as biozon;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::{biozon, core, exec, graph, optimizer, storage};
    pub use ts_core::{
        compute_catalog, prune_catalog, score_catalog, Catalog, ComputeOptions, EsPair,
        EvalOutcome, Method, PruneOptions, QueryContext, RankScheme, TopologyQuery,
    };
    pub use ts_storage::{Predicate, RowRef};
}
