//! What ran, as data: the [`PlanNote`] every strategy hands the front
//! door next to its result rows. `Display` renders the explain text on
//! demand, so the query path never formats a string.

use std::fmt;

use crate::catalog::TopologyId;

/// Which precomputed table backs a method: the `Full-*` family reads
/// AllTops, the `Fast-*` family LeftTops plus online checks for the
/// pruned topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// AllTops (no pruning).
    Full,
    /// LeftTops + exception checks.
    Fast,
}

impl Variant {
    /// Paper name of that table.
    pub(crate) fn table_name(self) -> &'static str {
        match self {
            Variant::Full => "AllTops",
            Variant::Fast => "LeftTops",
        }
    }
}

/// Which DGJ implementation an early-termination stack uses (the
/// paper's Fig. 15 (a) and (b); the "best and worst plans" of Table 2's
/// selective ET cells are exactly this choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtPlanKind {
    /// Index nested-loops DGJs.
    Idgj,
    /// Hash DGJs (inner re-evaluated per group). No `Method` builds
    /// it; the tests hold it to the IDGJ stack's ranking.
    Hdgj,
}

/// The plan a strategy ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// §3.1: one independent existence query per candidate topology.
    Sql {
        /// Candidate topologies of the query's entity-set pair.
        candidates: usize,
    },
    /// Fig. 14: join the tops table with both selected entity sides,
    /// distinct TIDs — run as a merge of σ(E1) with the query espair's
    /// clustered partition of the table (`full_top::distinct_tids`);
    /// ranked methods sort by score and fetch k on top.
    Regular {
        /// Tops table read.
        table: Variant,
        /// Sort + fetch-k on top (the `*-Top-k` methods).
        ranked: bool,
        /// Online path checks for pruned topologies: one per pruned
        /// topology of the pair (Fast-Top), or those the score gate let
        /// through (Fast-Top-k). Always 0 over AllTops.
        checks: usize,
    },
    /// Fig. 15: DGJ stack over TopInfo in score order.
    Et {
        /// Tops table read.
        table: Variant,
        /// DGJ implementation.
        dgj: EtPlanKind,
        /// Score-gated online checks that ran (0 over AllTops).
        checks: usize,
    },
}

/// §5.4's decision as the `*-Opt` methods took it: both estimates, in
/// work units. The cheaper plan ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptChoice {
    /// Theorem-1 expected cost of the DGJ stack.
    pub et_cost: f64,
    /// Estimated cost of the regular plan.
    pub regular_cost: f64,
}

impl OptChoice {
    /// True when the early-termination plan was the cheaper estimate.
    pub fn chose_et(&self) -> bool {
        self.et_cost < self.regular_cost
    }
}

/// What ran for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanNote {
    /// The plan that produced the result.
    pub plan: Plan,
    /// The optimizer's decision, for the `*-Opt` methods.
    pub opt: Option<OptChoice>,
}

impl From<Plan> for PlanNote {
    fn from(plan: Plan) -> Self {
        PlanNote { plan, opt: None }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Plan::Sql { candidates } => {
                write!(f, "{candidates} independent per-topology queries")
            }
            Plan::Regular { table: Variant::Full, ranked: false, .. } => {
                f.write_str("DISTINCT(σE2(MERGE(AllTops[espair].E1, σE1))).TID")
            }
            Plan::Regular { table: Variant::Fast, ranked: false, checks } => {
                write!(f, "LeftTops partition merge UNION {checks} online path checks")
            }
            Plan::Regular { table: Variant::Full, ranked: true, .. } => {
                f.write_str("partition merge + sort + fetch-k over AllTops")
            }
            Plan::Regular { table: Variant::Fast, ranked: true, checks } => write!(
                f,
                "partition merge + sort + fetch-k over LeftTops; {checks} gated pruned checks"
            ),
            Plan::Et { table, dgj, checks } => write!(
                f,
                "{} stack over {}; {checks} gated pruned checks",
                match dgj {
                    EtPlanKind::Idgj => "IDGJ",
                    EtPlanKind::Hdgj => "HDGJ",
                },
                table.table_name()
            ),
        }
    }
}

impl fmt::Display for OptChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "opt chose {} (ET est {:.1} vs regular est {:.1})",
            if self.chose_et() { "ET" } else { "regular" },
            self.et_cost,
            self.regular_cost
        )
    }
}

impl fmt::Display for PlanNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.opt {
            Some(choice) => write!(f, "{choice}; inner: {}", self.plan),
            None => self.plan.fmt(f),
        }
    }
}

/// What a strategy module hands the front door: `(tid, score)` rows and
/// the note of the plan that produced them.
pub type Evaluated = (Vec<(TopologyId, f64)>, PlanNote);
