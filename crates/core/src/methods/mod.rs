//! The nine query evaluation strategies of the paper's experiments
//! (§6.1): `SQL`, `Full-Top`, `Fast-Top`, `Full-Top-k`, `Fast-Top-k`,
//! `Full-Top-k-ET`, `Fast-Top-k-ET`, `Full-Top-k-Opt`, `Fast-Top-k-Opt`.
//!
//! All strategies answer the same question — the (top-k) l-topology
//! result of a 2-query — on the same substrate, so their outcomes are
//! directly comparable. [`EvalOutcome`] carries the result set plus two
//! cost figures: wall-clock milliseconds and the machine-independent
//! [`ts_exec::Work`] counter.
//!
//! [`Method::eval_with`] is the one front door: it alone reads the
//! clock, tags the method and reads the meter. The strategy modules
//! below it return their result rows and a [`PlanNote`] — which of the
//! two fixed plan shapes (the regular join/sort plan of Fig. 14, run as
//! one clustered partition merge; the DGJ stack of Fig. 15) ran, as data.

pub mod common;
pub mod et;
pub mod fast_top;
pub mod full_top;
pub mod opt;
mod plan;
pub mod sql_method;
pub mod topk;

use std::time::Instant;

use ts_exec::{Exhausted, Work};
use ts_graph::{DataGraph, SchemaGraph};
use ts_storage::faults::{self, sites, FireAction};
use ts_storage::Database;

pub use plan::{EtPlanKind, Evaluated, OptChoice, Plan, PlanNote, Variant};

use crate::catalog::{Catalog, EsPair, TopologyId};
use crate::query::TopologyQuery;

/// Everything a method needs to run.
pub struct QueryContext<'a> {
    /// Base data.
    pub db: &'a Database,
    /// Data graph over the base data (for online path checks and the SQL
    /// method's on-the-fly topology computation).
    pub graph: &'a DataGraph,
    /// Schema graph.
    pub schema: &'a SchemaGraph,
    /// Precomputed topology catalog.
    pub catalog: &'a Catalog,
}

/// A query rejected before evaluation.
///
/// Historically a malformed query panicked deep inside a method
/// (`Database::entity_set` indexes by `es`) or silently returned an
/// empty result; the serving layer needs a typed rejection instead, so
/// [`Method::try_eval`] validates the query against the context first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// An entity-set id not present in the database schema.
    UnknownEntity {
        /// The offending id (es1 or es2 of the query).
        es: u16,
        /// Number of entity sets the database declares.
        entity_sets: usize,
    },
    /// The query's path-length limit does not match the catalog's.
    LMismatch {
        /// `l` of the query.
        query_l: usize,
        /// `l` the catalog was computed at.
        catalog_l: usize,
    },
    /// The catalog was not computed for the query's entity-set pair, so
    /// it cannot tell the answer from an empty one.
    EspairNotComputed {
        /// The query's entity-set pair (normalized).
        espair: EsPair,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownEntity { es, entity_sets } => {
                write!(f, "unknown entity set {es} (database declares {entity_sets})")
            }
            QueryError::LMismatch { query_l, catalog_l } => {
                write!(f, "query l = {query_l} but the catalog was computed at l = {catalog_l}")
            }
            QueryError::EspairNotComputed { espair } => {
                write!(f, "the catalog was not computed for {espair:?}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Validate a query against a context: both entity-set ids must exist,
/// the path-length limit must match the catalog's, and the catalog must
/// have been computed for the query's entity-set pair. Every method
/// behaves identically on an invalid query — it never runs.
pub fn validate_query(ctx: &QueryContext<'_>, q: &TopologyQuery) -> Result<(), QueryError> {
    let entity_sets = ctx.db.entity_sets().len();
    for es in [q.es1, q.es2] {
        if usize::from(es) >= entity_sets {
            return Err(QueryError::UnknownEntity { es, entity_sets });
        }
    }
    if q.l != ctx.catalog.l {
        return Err(QueryError::LMismatch { query_l: q.l, catalog_l: ctx.catalog.l });
    }
    let espair = EsPair::new(q.es1, q.es2);
    if ctx.catalog.computed_espairs().binary_search(&espair).is_err() {
        return Err(QueryError::EspairNotComputed { espair });
    }
    Ok(())
}

/// The strategy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// §3.1: one query per candidate schema topology, no precomputation.
    Sql,
    /// §3.2: single join against the full AllTops table.
    FullTop,
    /// §4.3: LeftTops join plus online checks for pruned topologies.
    FastTop,
    /// §5.1 over AllTops: full evaluation, sort by score, fetch k.
    FullTopK,
    /// §5.1 over LeftTops with score-gated pruned checks.
    FastTopK,
    /// §5.3 over AllTops with a DGJ operator stack.
    FullTopKEt,
    /// §5.3 over LeftTops with a DGJ stack plus score-gated pruned checks.
    FastTopKEt,
    /// §5.4: cost-based choice between Full-Top-k and Full-Top-k-ET.
    FullTopKOpt,
    /// §5.4: cost-based choice between Fast-Top-k and Fast-Top-k-ET.
    FastTopKOpt,
}

impl Method {
    /// All nine methods in the paper's Table 2 row order.
    pub fn all() -> [Method; 9] {
        [
            Method::Sql,
            Method::FullTop,
            Method::FastTop,
            Method::FullTopK,
            Method::FastTopK,
            Method::FullTopKEt,
            Method::FastTopKEt,
            Method::FullTopKOpt,
            Method::FastTopKOpt,
        ]
    }

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Sql => "SQL",
            Method::FullTop => "Full-Top",
            Method::FastTop => "Fast-Top",
            Method::FullTopK => "Full-Top-k",
            Method::FastTopK => "Fast-Top-k",
            Method::FullTopKEt => "Full-Top-k-ET",
            Method::FastTopKEt => "Fast-Top-k-ET",
            Method::FullTopKOpt => "Full-Top-k-Opt",
            Method::FastTopKOpt => "Fast-Top-k-Opt",
        }
    }

    /// True for the methods that produce ranked top-k output.
    pub fn is_topk(self) -> bool {
        !matches!(self, Method::Sql | Method::FullTop | Method::FastTop)
    }

    /// Evaluate a query with this strategy (unbudgeted, unvalidated —
    /// the historical entry point; a malformed query may panic).
    pub fn eval(self, ctx: &QueryContext<'_>, q: &TopologyQuery) -> EvalOutcome {
        self.eval_with(ctx, q, Work::new())
    }

    /// Validate, then evaluate. The serving entry point: a malformed
    /// query is a typed [`QueryError`], never a panic.
    pub fn try_eval(
        self,
        ctx: &QueryContext<'_>,
        q: &TopologyQuery,
    ) -> Result<EvalOutcome, QueryError> {
        self.try_eval_with(ctx, q, Work::new())
    }

    /// Validate, then evaluate under a caller-provided (possibly
    /// budgeted) work meter.
    pub fn try_eval_with(
        self,
        ctx: &QueryContext<'_>,
        q: &TopologyQuery,
        work: Work,
    ) -> Result<EvalOutcome, QueryError> {
        validate_query(ctx, q)?;
        Ok(self.eval_with(ctx, q, work))
    }

    /// Evaluate under a caller-provided work meter. With a budgeted
    /// [`Work`] the plan stops cooperatively at the first exhausted
    /// limit and the outcome carries the partial result plus
    /// [`EvalOutcome::exhausted`].
    pub fn eval_with(self, ctx: &QueryContext<'_>, q: &TopologyQuery, work: Work) -> EvalOutcome {
        if let FireAction::Starve = faults::fire(sites::CORE_METHOD_EVAL) {
            work.starve();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock timing statistic only; it lands in the outcome's millis field and never reaches catalog bytes"
        )]
        let start = Instant::now();
        let (topologies, detail) = match self {
            Method::Sql => sql_method::eval(ctx, q, &work),
            Method::FullTop => full_top::eval(ctx, q, &work),
            Method::FastTop => fast_top::eval(ctx, q, &work),
            Method::FullTopK => topk::eval(ctx, q, Variant::Full, &work),
            Method::FastTopK => topk::eval(ctx, q, Variant::Fast, &work),
            Method::FullTopKEt => et::eval(ctx, q, Variant::Full, EtPlanKind::Idgj, &work),
            Method::FastTopKEt => et::eval(ctx, q, Variant::Fast, EtPlanKind::Idgj, &work),
            Method::FullTopKOpt => opt::eval(ctx, q, Variant::Full, &work),
            Method::FastTopKOpt => opt::eval(ctx, q, Variant::Fast, &work),
        };
        EvalOutcome {
            method: self,
            topologies,
            work: work.get(),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            detail,
            exhausted: work.exhausted(),
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The result of evaluating a query with one strategy.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Which method ran.
    pub method: Method,
    /// Result topologies. Ranked methods: `(tid, score)` descending by
    /// score, at most k. Unranked methods: every result topology with its
    /// score slot 0.
    pub topologies: Vec<(TopologyId, f64)>,
    /// Machine-independent work units (tuples touched + index probes).
    pub work: u64,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// The plan that ran and, for `*-Opt`, the optimizer's choice; its
    /// `Display` is the explain text.
    pub detail: PlanNote,
    /// `Some` when a budgeted run stopped early: the limit that tripped.
    /// `topologies` then holds the partial result accumulated so far.
    pub exhausted: Option<Exhausted>,
}

impl EvalOutcome {
    /// The topology ids only.
    pub fn tids(&self) -> Vec<TopologyId> {
        self.topologies.iter().map(|&(t, _)| t).collect()
    }

    /// The topology ids as a sorted set (for unordered comparisons).
    pub fn tid_set(&self) -> Vec<TopologyId> {
        let mut v = self.tids();
        v.sort_unstable();
        v.dedup();
        v
    }
}
