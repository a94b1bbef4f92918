//! # ts-server
//!
//! A resilient embedded serving layer over the nine evaluation methods
//! of §6: the piece a production deployment of the paper's system would
//! wrap around the catalog.
//!
//! Design, in one pass through a query's life:
//!
//! * **Admission** — [`Server::submit`] pushes onto a bounded queue.
//!   A full queue is *load shedding*: the caller gets a typed
//!   [`ServerError::Overloaded`] with a retry-after hint derived from
//!   the observed service rate, never an unbounded wait.
//! * **Budget** — every admitted query carries a [`ts_exec::Budget`]
//!   (wall-clock deadline measured from admission, step quota, row
//!   quota, server-wide cancellation token) threaded through the
//!   cooperative [`ts_exec::Work`] meter that every operator already
//!   polls at batch boundaries.
//! * **Snapshot** — workers evaluate against an immutable
//!   [`ts_core::Snapshot`] shared via `Arc`; [`Server::publish`] swaps
//!   the `Arc` and bumps the epoch. In-flight queries finish on the
//!   snapshot they started with; nothing is ever mutated in place.
//! * **Degradation** — a budget-exhausted query is not an error: the
//!   partial result ships as [`QueryResponse::Degraded`], and when the
//!   *step* quota blows on an expensive method the worker reruns the
//!   cheap `Full-Top`/`Full-Top-k` baseline (fresh quota, original
//!   deadline) before giving up — the planner's choice is a
//!   performance bet, not a correctness dependency.
//! * **Isolation** — the whole per-query evaluation runs under
//!   `catch_unwind`: a panicking query (including every injected
//!   `ts_storage::faults` panic) becomes [`QueryResponse::Failed`] for
//!   that one caller while the worker thread lives on.
//!
//! The crate ships no load driver of its own: the open-loop `serve_open`
//! workload of `benchmark/` is the one that takes a server through
//! saturation, and `tests/fault_storm.rs` the one that injects faults.

#![forbid(unsafe_code)]
// Lint scope: error-or-justify panics, audited clocks/joins/catch_unwind
// (lists in the root clippy.toml; see docs/LINTS.md). A suppression is
// `#[expect(<lint>, reason = "..")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::disallowed_methods,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod server;

pub use server::{
    BudgetSpec, QueryResponse, Server, ServerConfig, ServerError, ShutdownReport, Stats, Ticket,
};
