//! # ts-optimizer
//!
//! The cost side of the paper's optimizer for top-k topology queries
//! (§5.4): [`cost`] is the probabilistic model for stacks of DGJ
//! operators — Lemma 1/2 recurrences for the per-tuple result
//! probability `x_i` and no-result probe cost `δ_i`, Theorems 2–4 for
//! the per-group parameters `np_i` / `nc_i` / `ec_i`, and Theorem 1's
//! dynamic program for `E[Z^k_{1:m}]`, the expected cost of finding the
//! top-k results over groups `g_1..g_m` in score order.
//!
//! §5.4.1's general join-order search is out of scope: every plan this
//! workspace runs is one of two fixed three-relation shapes (the regular
//! plan of Fig. 14, the DGJ stack of Fig. 15), so the optimizer's whole
//! decision is one comparison, made in `ts_core::methods::opt` between
//! this model's estimate and the regular plan's.
//!
//! The crate is deliberately independent of `ts-core`: it prices an
//! abstract stack described by fan-outs, selectivities, probe costs and
//! group cardinalities.

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

pub mod cost;

pub use cost::{et_stack_cost, CostModel, DgjOpParams, DgjStackParams};
