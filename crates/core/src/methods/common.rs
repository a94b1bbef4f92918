//! Shared plumbing for the evaluation strategies.

use ts_exec::{BatchOperator, BatchTableScan, Work, DEFAULT_BATCH_ROWS};
use ts_graph::PathSig;
use ts_storage::faults::{self, sites, FireAction};
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
    #[expect(
        clippy::expect_used,
        reason = "Database::add_entity_set rejects tables without a primary key, so every entity-set table carries one"
    )]
    let pk = table.schema().primary_key.expect("entity sets have primary keys");
    (table, pk)
}

/// Both σ of an oriented query, each evaluated exactly once.
///
/// The from side is an ascending id list: the regular plan merges it
/// with a tops partition's E1 column, and the online path checks start
/// their searches from it, so neither's work depends on how a hash set
/// happened to lay the ids out. The to side is only ever asked "is this
/// entity selected?", so it is a membership set.
pub struct Selected {
    /// σ(from) entity ids, ascending.
    pub from: Vec<i64>,
    /// σ(to) entity ids.
    pub to: FastSet<i64>,
}

impl Selected {
    /// Evaluate both constraints (the σ of the paper's plans), each from
    /// its table's indexes where they can answer it, by a metered
    /// sequential scan where they cannot. A budget that trips during σ
    /// leaves the selection short; every consumer polls the meter before
    /// using it.
    pub fn eval(ctx: &QueryContext<'_>, o: &Oriented<'_>, work: &Work) -> Selected {
        let mut from = select_ids(ctx, o.espair.from, o.con_from, work);
        from.sort_unstable();
        let to = select_ids(ctx, o.espair.to, o.con_to, work).into_iter().collect();
        Selected { from, to }
    }
}

/// Ticks charged to the meter at a time: its poll window, so every
/// metered loop of a plan polls deadlines and quotas as often as a table
/// scan does.
pub(crate) const CHUNK: u64 = DEFAULT_BATCH_ROWS as u64;

/// Primary keys of the `es` entities satisfying `con`.
///
/// [`Table::select_rows`] answers from the keyword postings and the
/// primary-key / secondary indexes, and the meter is charged the row
/// ids it read, [`CHUNK`] at a time with a poll between chunks; a budget
/// that trips there leaves the selection empty. Where the indexes
/// cannot answer — statistics dropped by an insert since `analyze`, or
/// an `Eq` on an unindexed column — a [`BatchTableScan`] reads every
/// row, one tick each.
fn select_ids(ctx: &QueryContext<'_>, es: u16, con: &Predicate, work: &Work) -> Vec<i64> {
    let (table, pk) = entity_table(ctx, es);
    let Some(sel) = table.select_rows(con) else {
        let mut ids = Vec::new();
        let mut scan = BatchTableScan::new(table, con.clone(), work.clone());
        while let Some(b) = scan.next_batch() {
            ids.extend(b.sel_iter().map(|i| b.value(pk, i).as_int()));
        }
        return ids;
    };
    if let FireAction::Starve = faults::fire(sites::EXEC_SCAN) {
        work.starve();
    }
    let mut unpaid = sel.read;
    while unpaid > 0 && !work.interrupted() {
        let chunk = unpaid.min(CHUNK);
        work.tick(chunk);
        unpaid -= chunk;
    }
    if work.interrupted() {
        return Vec::new();
    }
    #[expect(
        clippy::expect_used,
        reason = "an entity set's primary key is a null-free Int column: the data graph every query context carries is built by reading each entity's pk as an Int"
    )]
    let ids = table.store().ints(pk).expect("entity-set primary keys are Int");
    sel.rows.iter().map(|&r| ids[r as usize]).collect()
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

/// The DFS stack and path buffer every online path check of one query
/// shares, so a query allocates them once however many checks run.
#[derive(Debug, Default)]
pub struct CheckScratch {
    stack: Vec<(u32, usize)>,
    path: Vec<u32>,
}

/// The online existence check for a pruned path topology (§4.3): is
/// there a pair `(a ∈ A, b ∈ B)` connected by an instance of the
/// topology's label walk that is **not** an exception?
///
/// This is the paper's lower sub-query of SQL1 — a join along the path's
/// relationship tables with `NOT EXISTS (SELECT 1 FROM ExcpTops …)` —
/// executed as a label-constrained DFS with first-witness early exit,
/// along the walk the catalog decoded when it pruned `tid`. A witness is
/// no exception when it is an AllTops row of `tid` ([`crate::Catalog::holds`])
/// in stored orientation: a same-set pair's E1 is its lower node id.
/// A `tid` that is not pruned has no check: `false`.
pub fn online_path_check(
    ctx: &QueryContext<'_>,
    tid: TopologyId,
    sel: &Selected,
    scratch: &mut CheckScratch,
    work: &Work,
) -> bool {
    let Some((types, rels)) = ctx.catalog.pruned_walk(tid) else {
        return false;
    };
    let espair = ctx.catalog.meta(tid).espair;
    let g = ctx.graph;
    // One stack and one path buffer serve every start entity. An entry
    // popped at depth d overwrites path[d]; its ancestors in path[..d]
    // are intact, because under LIFO order everything popped since its
    // parent was a descendant of that parent (depth >= d).
    let CheckScratch { stack, path } = scratch;
    path.clear();
    path.resize(rels.len() + 1, 0);
    for &a in &sel.from {
        let Some(start) = g.node(espair.from, a) else { continue };
        // Label-constrained DFS: position i must have type types[i].
        stack.clear();
        stack.push((start, 0));
        while let Some((node, pos)) = stack.pop() {
            path[pos] = node;
            if pos == rels.len() {
                let b = g.node_entity(node);
                if sel.to.contains(&b) {
                    work.tick(1); // exception probe
                    let stored =
                        if espair.from == espair.to && node < start { (b, a) } else { (a, b) };
                    if ctx.catalog.holds(stored.0, stored.1, tid) {
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
                if path[..=pos].contains(&next) {
                    continue; // simple paths only
                }
                stack.push((next, pos + 1));
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
    use ts_graph::fixtures::{DNA, PROTEIN};

    /// [`online_path_check`] written the obvious way — a fresh stack per
    /// start entity, every stack entry owning a copy of its path — as
    /// the reference for the shared stack and path buffer.
    fn reference_check(
        ctx: &QueryContext<'_>,
        tid: TopologyId,
        sel: &Selected,
        work: &Work,
    ) -> bool {
        let meta = ctx.catalog.meta(tid);
        let sig = meta.path_sig.as_ref().expect("path topology");
        let Some((types, rels)) = decode_sig(sig, meta.espair.from) else {
            return false;
        };
        let g = ctx.graph;
        for &a in &sel.from {
            let Some(start) = g.node(meta.espair.from, a) else { continue };
            let mut stack: Vec<(u32, usize, Vec<u32>)> = vec![(start, 0, vec![start])];
            while let Some((node, pos, path)) = stack.pop() {
                if pos == rels.len() {
                    let b = g.node_entity(node);
                    if sel.to.contains(&b) {
                        work.tick(1);
                        // The pair as stored: a same-set pair's E1 is its
                        // end with the lower node id.
                        let same_set = meta.espair.from == meta.espair.to;
                        let (e1, e2) = if same_set && node < start { (b, a) } else { (a, b) };
                        if ctx.catalog.holds(e1, e2, tid) {
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
                        continue;
                    }
                    let mut p2 = path.clone();
                    p2.push(next);
                    stack.push((next, pos + 1, p2));
                }
            }
        }
        false
    }

    #[test]
    fn online_check_matches_the_copying_reference_verdict_and_ticks() {
        // Every pruned P–D path topology of Fig. 3 against every
        // non-empty choice of proteins and DNAs: witnesses found early,
        // found late, blocked as exceptions, and absent.
        let f = fixture::Fig3::pruned_at(0);
        let ctx = f.ctx();
        let pruned = f.catalog.pruned_ids(EsPair::new(PROTEIN, DNA));
        assert_eq!(pruned.len(), 2, "P–D and P–U–D");
        let (proteins, dnas) = ([32i64, 34, 44, 78], [214i64, 215, 742]);
        let (mut found, mut absent) = (0, 0);
        // One scratch across every check, as within a query.
        let mut scratch = CheckScratch::default();
        for from_mask in 1u32..16 {
            for to_mask in 1u32..8 {
                let pick = |ids: &[i64], mask: u32| -> Vec<i64> {
                    ids.iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, &id)| id)
                        .collect()
                };
                let sel = Selected {
                    from: pick(&proteins, from_mask),
                    to: pick(&dnas, to_mask).into_iter().collect(),
                };
                for &tid in pruned {
                    let (w, w_ref) = (Work::new(), Work::new());
                    let got = online_path_check(&ctx, tid, &sel, &mut scratch, &w);
                    assert_eq!(
                        got,
                        reference_check(&ctx, tid, &sel, &w_ref),
                        "{from_mask} {to_mask}"
                    );
                    assert_eq!(w.get(), w_ref.get(), "ticks, {from_mask} {to_mask} tid {tid}");
                    if got {
                        found += 1;
                    } else {
                        absent += 1;
                    }
                }
            }
        }
        assert!(found > 20 && absent > 20, "{found} found, {absent} absent");
    }

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
