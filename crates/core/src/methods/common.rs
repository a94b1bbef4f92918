//! Shared plumbing for the evaluation strategies.

use ts_exec::{BatchOperator, BatchTableScan, Work};
use ts_graph::PathSig;
use ts_storage::FastSet;
use ts_storage::{Predicate, Table};

use crate::catalog::{EsPair, TopologyId};
use crate::methods::QueryContext;
use crate::query::TopologyQuery;

/// The query oriented to the catalog's normalized espair: constraints
/// for the `from` side and the `to` side of stored (E1, E2) pairs.
pub struct Oriented<'q> {
    /// Normalized entity-set pair.
    pub espair: EsPair,
    /// Constraint on E1 (the `espair.from` entity set).
    pub con_from: &'q Predicate,
    /// Constraint on E2 (the `espair.to` entity set).
    pub con_to: &'q Predicate,
}

/// Orient a query to catalog storage order.
pub fn orient<'q>(q: &'q TopologyQuery) -> Oriented<'q> {
    let espair = EsPair::new(q.es1, q.es2);
    if q.es1 <= q.es2 {
        Oriented { espair, con_from: &q.con1, con_to: &q.con2 }
    } else {
        Oriented { espair, con_from: &q.con2, con_to: &q.con1 }
    }
}

/// The backing table of an entity set plus its primary-key column.
pub fn entity_table<'a>(ctx: &QueryContext<'a>, es: u16) -> (&'a Table, usize) {
    let def = ctx.db.entity_set(es as usize);
    let table = ctx.db.table(def.table);
    // lint: allow(unwrap-in-lib): Database::add_entity_set rejects tables
    // without a primary key, so every entity-set table carries one
    let pk = table.schema().primary_key.expect("entity sets have primary keys");
    (table, pk)
}

/// Entity ids of `es` satisfying `con` (a metered sequential scan — the
/// σ of the paper's plans).
pub fn selected_ids(ctx: &QueryContext<'_>, es: u16, con: &Predicate, work: &Work) -> FastSet<i64> {
    let (table, pk) = entity_table(ctx, es);
    let mut out = FastSet::default();
    let mut scan = BatchTableScan::new(table, con.clone(), work.clone());
    while let Some(b) = scan.next_batch() {
        for i in b.sel_iter() {
            out.insert(b.value(pk, i).as_int());
        }
    }
    out
}

/// Decode a path signature into `(types, rels)` oriented so that
/// `types[0] == start_type`, if possible.
pub fn decode_sig(sig: &PathSig, start_type: u16) -> Option<(Vec<u16>, Vec<u16>)> {
    let v = &sig.0;
    debug_assert!(v.len() % 2 == 1, "signature interleaves types and rels");
    let types: Vec<u16> = v.iter().step_by(2).copied().collect();
    let rels: Vec<u16> = v.iter().skip(1).step_by(2).copied().collect();
    if types.first() == Some(&start_type) {
        return Some((types, rels));
    }
    if types.last() == Some(&start_type) {
        let mut t = types;
        let mut r = rels;
        t.reverse();
        r.reverse();
        return Some((t, r));
    }
    None
}

/// The online existence check for a pruned path topology (§4.3): is
/// there a pair `(a ∈ A, b ∈ B)` connected by an instance of the
/// topology's label walk that is **not** in the exception table?
///
/// This is the paper's lower sub-query of SQL1 — a join along the path's
/// relationship tables with `NOT EXISTS (SELECT 1 FROM ExcpTops …)` —
/// executed as a label-constrained DFS with first-witness early exit.
pub fn online_path_check(
    ctx: &QueryContext<'_>,
    tid: TopologyId,
    a_ids: &FastSet<i64>,
    b_ids: &FastSet<i64>,
    work: &Work,
) -> bool {
    let meta = ctx.catalog.meta(tid);
    // lint: allow(unwrap-in-lib): callers run the online check only for pruned
    // topologies, and pruning selects only path-shaped victims (path_sig is Some)
    let sig = meta.path_sig.as_ref().expect("online check requires a path topology");
    let Some((types, rels)) = decode_sig(sig, meta.espair.from) else {
        return false;
    };
    let g = ctx.graph;
    for &a in a_ids {
        let Some(start) = g.node(meta.espair.from, a) else { continue };
        // Label-constrained DFS: position i must have type types[i].
        let mut stack: Vec<(u32, usize, Vec<u32>)> = vec![(start, 0, vec![start])];
        while let Some((node, pos, path)) = stack.pop() {
            if pos == rels.len() {
                let b = g.node_entity(node);
                if b_ids.contains(&b) {
                    work.tick(1); // exception-table probe
                    if !ctx.catalog.excp_contains(a, b, tid) {
                        return true;
                    }
                }
                continue;
            }
            for &(rid, next) in g.neighbors(node) {
                work.tick(1);
                if rid != rels[pos] || g.node_type(next) != types[pos + 1] {
                    continue;
                }
                if path.contains(&next) {
                    continue; // simple paths only
                }
                let mut p2 = path.clone();
                p2.push(next);
                stack.push((next, pos + 1, p2));
            }
        }
    }
    false
}

/// What the strategy modules' unit tests share: the paper's Figure 3
/// database with its l = 3 catalog.
#[cfg(test)]
pub(crate) mod fixture {
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};
    use ts_graph::{DataGraph, SchemaGraph};
    use ts_storage::{Database, Predicate};

    use crate::compute::{compute_catalog, ComputeOptions};
    use crate::methods::QueryContext;
    use crate::prune::{prune_catalog, PruneOptions};
    use crate::query::TopologyQuery;
    use crate::score::{score_catalog, DomainScorer};
    use crate::Catalog;

    pub(crate) struct Fig3 {
        db: Database,
        graph: DataGraph,
        schema: SchemaGraph,
        pub(crate) catalog: Catalog,
    }

    impl Fig3 {
        /// Catalog pruned at `threshold` (`u64::MAX` prunes nothing) and
        /// scored with the default domain scorer.
        pub(crate) fn pruned_at(threshold: u64) -> Fig3 {
            let (db, graph, schema) = figure3();
            let (mut catalog, _) =
                compute_catalog(&db, &graph, &schema, &ComputeOptions::with_l(3));
            prune_catalog(&mut catalog, PruneOptions { threshold, max_pruned: 64 });
            score_catalog(&mut catalog, &DomainScorer::default());
            Fig3 { db, graph, schema, catalog }
        }

        pub(crate) fn ctx(&self) -> QueryContext<'_> {
            QueryContext {
                db: &self.db,
                graph: &self.graph,
                schema: &self.schema,
                catalog: &self.catalog,
            }
        }
    }

    /// §2.2's example query: enzyme proteins against mRNA DNAs.
    pub(crate) fn enzyme_mrna() -> TopologyQuery {
        TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "enzyme"),
            DNA,
            Predicate::eq(1, "mRNA"),
            3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_sig_orients_both_ways() {
        // Sig for P(0) -ue(1)- U(1) -uc(2)- D(2): [0,1,1,2,2].
        let sig = PathSig(vec![0, 1, 1, 2, 2]);
        let (t, r) = decode_sig(&sig, 0).unwrap();
        assert_eq!(t, vec![0, 1, 2]);
        assert_eq!(r, vec![1, 2]);
        let (t2, r2) = decode_sig(&sig, 2).unwrap();
        assert_eq!(t2, vec![2, 1, 0]);
        assert_eq!(r2, vec![2, 1]);
        assert!(decode_sig(&sig, 9).is_none());
    }
}
