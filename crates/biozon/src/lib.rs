//! # ts-biozon
//!
//! A seeded synthetic generator for a Biozon-shaped biological database
//! (the paper's experimental substrate, §6.1), plus the experiment
//! workloads.
//!
//! The real Biozon (28M objects / 9.6M relationships integrated from
//! GenBank, SwissProt, …) is not available; what the paper's findings
//! depend on is reproduced structurally instead:
//!
//! * the **Fig. 1 schema** — Protein, DNA, Unigene, Interaction, Family,
//!   Structure, Pathway entity sets with encodes / uni_encodes /
//!   uni_contains / interacts(P) / interacts(D) / belongs / manifest /
//!   member relationships;
//! * **power-law degree distributions** (Zipf-sampled endpoints), which
//!   make the topology-frequency distribution come out Zipfian (Fig. 11);
//! * **engineered predicate selectivities** — keywords planted in
//!   `Protein.desc` and `Interaction.desc` at 15% / 50% / 85% rates, the
//!   selective / medium / unselective axes of Table 2;
//! * **planted Fig. 16 motifs** — two proteins encoded by one DNA that
//!   also interact — so the biologically significant topology exists to
//!   be found;
//! * globally unique entity ids across sets (the paper's "IDs of
//!   different biological objects are not overlapping" assumption that
//!   Full-Top's single AllTops table relies on).
//!
//! Everything is deterministic in the seed.

#![forbid(unsafe_code)]
// Lint scope: audited clocks/joins/catch_unwind (list in the root
// clippy.toml; see docs/LINTS.md). A suppression is
// `#[expect(<lint>, reason = "..")]`.
#![deny(
    clippy::disallowed_methods,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod config;
pub mod generate;
pub mod workload;

pub use config::BiozonConfig;
pub use generate::{generate, Biozon, SchemaIds};
pub use workload::{domain_scorer, query_mix, selectivity_predicate, weak_policy_l4, Selectivity};
