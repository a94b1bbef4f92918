//! # ts-exec
//!
//! A Volcano-style iterator execution engine (Graefe & McKenna's
//! `getNext` interface, which the paper cites in §5.3) extended with the
//! paper's **Distinct Group Join (DGJ)** operator family.
//!
//! DGJ operators have the two properties of §5.3:
//!
//! * **(a)** they understand groups of tuples, preserve the order of
//!   groups from input to output, and
//! * **(b)** they can efficiently skip from one group to the next via
//!   [`Operator::advance_to_next_group`] — the hook that makes
//!   early-termination top-k topology evaluation possible.
//!
//! Two implementations are provided, exactly as in the paper: [`Idgj`]
//! (index nested-loops) and [`Hdgj`] (hash join executed a group at a
//! time, re-evaluating the inner per group). Regular operators
//! (scans, filters, hash join, index NLJ, sort, distinct, limit, union)
//! complete the engine so that every strategy of the evaluation runs on
//! the same substrate.
//!
//! All operators share a [`Work`] counter that meters tuples processed
//! and index probes — a machine-independent cost figure reported next to
//! wall-clock time in the benchmark harnesses. A [`Work`] built with
//! [`Work::with_budget`] additionally enforces a per-query [`Budget`]
//! (deadline, step/row quotas, cancellation token): operators poll it at
//! their batch boundaries and surface exhaustion as end-of-stream, which
//! the serving layer (`ts-server`) turns into graceful degradation.

#![forbid(unsafe_code)]

pub mod batch;
pub mod dgj;
pub mod driver;
pub mod join;
pub mod op;
pub mod scan;
pub mod simple;
pub mod sort;

pub use batch::{
    batch_rows, engine, set_batch_rows, set_engine, Batch, BatchOperator, BoxedBatchOp, Col,
    Engine, DEFAULT_BATCH_ROWS,
};
pub use dgj::{BatchHdgj, BatchIdgj, BatchPkSemiJoin, Hdgj, Idgj};
pub use driver::{
    batch_collect_all, batch_collect_all_budgeted, batch_collect_distinct_groups,
    batch_collect_distinct_topk, batch_collect_distinct_topk_budgeted, collect_all,
    collect_all_budgeted, collect_distinct_groups, collect_distinct_topk,
    collect_distinct_topk_budgeted,
};
pub use join::{BatchHashJoin, BatchIndexNlJoin, HashJoin, IndexNlJoin};
pub use op::{BoxedOp, Budget, Exhausted, Operator, Work};
pub use scan::{
    BatchIndexLookupScan, BatchKeyScan, BatchTableScan, BatchValuesScan, IndexLookupScan,
    TableScan, ValuesScan,
};
pub use simple::{
    BatchDistinct, BatchFilter, BatchLimit, BatchProject, BatchUnionAll, Distinct, Filter, Limit,
    Project, UnionAll,
};
pub use sort::{BatchSort, Dir, Sort};
