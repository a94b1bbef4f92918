//! Topology comparison primitives across queries (§8 future work:
//! "primitives for comparing topologies across multiple queries").
//!
//! Results from different queries — or from catalogs built over
//! different databases or path limits — are compared by **canonical
//! code**, the database-independent identity of a topology. The primitive
//! is a three-way diff: topologies only in the left result, only in the
//! right, and common (with both frequencies, so enrichment questions
//! like "which relationship structures appear for TFs but not for
//! enzymes?" fall out directly).

use ts_graph::CanonicalCode;
use ts_storage::FastMap;

use crate::catalog::{Catalog, TopologyId};

/// One side of a comparison: topology ids resolved to codes + metadata.
#[derive(Debug, Clone)]
pub struct ResultView<'a> {
    catalog: &'a Catalog,
    tids: Vec<TopologyId>,
}

impl<'a> ResultView<'a> {
    /// Wrap a result set (e.g. [`crate::EvalOutcome::tids`]).
    pub fn new(catalog: &'a Catalog, tids: Vec<TopologyId>) -> Self {
        ResultView { catalog, tids }
    }

    fn codes(&self) -> FastMap<&CanonicalCode, TopologyId> {
        self.tids.iter().map(|&t| (&self.catalog.meta(t).code, t)).collect()
    }
}

/// A topology present on both sides of a diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonTopology {
    /// Id in the left catalog.
    pub left: TopologyId,
    /// Id in the right catalog.
    pub right: TopologyId,
    /// Frequency in the left catalog.
    pub left_freq: u64,
    /// Frequency in the right catalog.
    pub right_freq: u64,
}

/// Three-way diff of two topology result sets.
#[derive(Debug, Clone, Default)]
pub struct TopologyDiff {
    /// Topologies only in the left result (left-catalog ids).
    pub only_left: Vec<TopologyId>,
    /// Topologies only in the right result (right-catalog ids).
    pub only_right: Vec<TopologyId>,
    /// Topologies in both, with frequencies from each side.
    pub common: Vec<CommonTopology>,
}

impl TopologyDiff {
    /// Jaccard similarity of the two result sets.
    pub fn jaccard(&self) -> f64 {
        let union = self.only_left.len() + self.only_right.len() + self.common.len();
        if union == 0 {
            return 1.0;
        }
        self.common.len() as f64 / union as f64
    }
}

/// Compare two result sets by canonical code. The sides may come from
/// the same catalog (two queries) or different catalogs (two databases,
/// two path limits, with/without a weak policy, …).
pub fn diff(left: &ResultView<'_>, right: &ResultView<'_>) -> TopologyDiff {
    let lc = left.codes();
    let rc = right.codes();
    let mut out = TopologyDiff::default();
    for (code, &ltid) in &lc {
        match rc.get(code) {
            Some(&rtid) => out.common.push(CommonTopology {
                left: ltid,
                right: rtid,
                left_freq: left.catalog.meta(ltid).freq,
                right_freq: right.catalog.meta(rtid).freq,
            }),
            None => out.only_left.push(ltid),
        }
    }
    for (code, &rtid) in &rc {
        if !lc.contains_key(code) {
            out.only_right.push(rtid);
        }
    }
    out.only_left.sort_unstable();
    out.only_right.sort_unstable();
    out.common.sort_by_key(|c| c.left);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_catalog, ComputeOptions};
    use crate::methods::{Method, QueryContext};
    use crate::query::TopologyQuery;
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};
    use ts_storage::Predicate;

    fn setup() -> (ts_storage::Database, ts_graph::DataGraph, ts_graph::SchemaGraph, Catalog) {
        let (db, g, schema) = figure3();
        let (cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        (db, g, schema, cat)
    }

    #[test]
    fn identical_queries_diff_empty() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3);
        let r1 = Method::FullTop.eval(&ctx, &q);
        let r2 = Method::FullTop.eval(&ctx, &q);
        let d = diff(&ResultView::new(&cat, r1.tids()), &ResultView::new(&cat, r2.tids()));
        assert!(d.only_left.is_empty());
        assert!(d.only_right.is_empty());
        assert_eq!(d.common.len(), r1.tids().len());
        assert!((d.jaccard() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn narrower_query_is_subset() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let broad = Method::FullTop
            .eval(&ctx, &TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3));
        let narrow = Method::FullTop.eval(
            &ctx,
            &TopologyQuery::new(PROTEIN, Predicate::contains(1, "MMS2"), DNA, Predicate::True, 3),
        );
        let d = diff(&ResultView::new(&cat, broad.tids()), &ResultView::new(&cat, narrow.tids()));
        assert!(d.only_right.is_empty(), "narrow cannot have extra topologies");
        assert!(!d.only_left.is_empty());
        assert!(d.jaccard() < 1.0);
    }

    #[test]
    fn cross_catalog_comparison_by_code() {
        // Compare the same query against a catalog built at l = 2: the
        // l = 3-only topologies must land in only_left.
        let (db, g, schema, cat3) = setup();
        let (cat2, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(2));
        let ctx3 = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat3 };
        let ctx2 = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat2 };
        let q = TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3);
        let q2 = TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 2);
        let r3 = Method::FullTop.eval(&ctx3, &q);
        let r2 = Method::FullTop.eval(&ctx2, &q2);
        let d = diff(&ResultView::new(&cat3, r3.tids()), &ResultView::new(&cat2, r2.tids()));
        assert!(!d.only_left.is_empty(), "length-3 topologies exist only at l=3");
        assert!(d.only_right.is_empty(), "every l=2 topology also arises at l=3 here");
        for c in &d.common {
            assert_eq!(cat3.meta(c.left).code, cat2.meta(c.right).code);
        }
    }

    #[test]
    fn empty_sides() {
        let (_db, _g, _schema, cat) = setup();
        let d = diff(&ResultView::new(&cat, vec![]), &ResultView::new(&cat, vec![]));
        assert_eq!(d.jaccard(), 1.0);
        assert!(d.common.is_empty());
    }
}
