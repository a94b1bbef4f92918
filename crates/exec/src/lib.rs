//! # ts-exec
//!
//! A Volcano-style iterator execution engine (Graefe & McKenna's
//! `getNext` interface, which the paper cites in §5.3) pulling column
//! batches instead of single tuples, extended with the paper's
//! **Distinct Group Join (DGJ)** operator family.
//!
//! There is one operator trait, [`BatchOperator`]: `next_batch` hands
//! out a [`Batch`] of up to [`DEFAULT_BATCH_ROWS`] rows (borrowed column
//! slices plus a selection vector), `rewind` restarts the stream.
//!
//! DGJ operators have the two properties of §5.3:
//!
//! * **(a)** they understand groups of tuples, preserve the order of
//!   groups from input to output (a grouped stream never emits a batch
//!   spanning two groups), and
//! * **(b)** they can efficiently skip from one group to the next via
//!   [`BatchOperator::advance_to_next_group`] — the hook that makes
//!   early-termination top-k topology evaluation possible.
//!
//! Two implementations are provided, exactly as in the paper:
//! [`BatchIdgj`] (index nested-loops, reading posting lists lazily; with
//! [`BatchPkSemiJoin`] for joins that only test the inner row) and
//! [`BatchHdgj`] (hash join executed a group at a time, re-evaluating
//! the inner per group). The regular operators the plans of Fig. 14 need
//! (table / values / key scans, filter, hash join, sort, distinct)
//! complete the engine so that every strategy of the evaluation runs on
//! the same substrate, and the `batch_collect_*` drivers pull a plan to
//! completion or to its first `k` distinct groups. An operator ships
//! only while a plan or the benchmark's layer probes build it.
//!
//! All operators share a [`Work`] counter that meters tuples processed
//! and index probes — a machine-independent cost figure reported next to
//! wall-clock time in the benchmark harnesses. A [`Work`] built with
//! [`Work::with_budget`] additionally enforces a per-query [`Budget`]
//! (deadline, step/row quotas, cancellation token): operators poll it at
//! their batch boundaries and surface exhaustion as end-of-stream, which
//! the serving layer (`ts-server`) turns into graceful degradation.
//!
//! The operators are checked against an independent reference: a model
//! of each one over plain `Vec<Row>` in `tests/model/`, which shares no
//! code with this crate and is compared with the batch operators at
//! batch sizes on both sides of every boundary. `tests/metering.rs`
//! holds every operator and budgeted driver to the meter at the same
//! sizes: at least one tick per row pulled from each input, and a step
//! quota that stops the stream at a prefix of the unbudgeted one.

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

pub mod batch;
pub mod dgj;
pub mod driver;
pub mod join;
pub mod op;
pub mod scan;
pub mod simple;
pub mod sort;

pub use batch::{
    batch_rows, set_batch_rows, Batch, BatchOperator, BoxedBatchOp, Col, DEFAULT_BATCH_ROWS,
};
pub use dgj::{BatchHdgj, BatchIdgj, BatchPkSemiJoin};
pub use driver::{
    batch_collect_all, batch_collect_all_budgeted, batch_collect_distinct_topk,
    batch_collect_distinct_topk_budgeted,
};
pub use join::BatchHashJoin;
pub use op::{Budget, Exhausted, Work};
pub use scan::{BatchKeyScan, BatchTableScan, BatchValuesScan};
pub use simple::{BatchDistinct, BatchFilter};
pub use sort::{BatchSort, Dir};
