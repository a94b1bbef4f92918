//! The Topology Pruning module (§4.2).
//!
//! The frequency distribution of topologies is approximately Zipfian
//! (Fig. 11): a handful of very frequent, structurally simple topologies
//! account for most AllTops rows. Pruning removes them from the
//! precomputed table — their existence is cheap to check online — and
//! records in `ExcpTops` the pairs that *look* related by the simple
//! topology (they have a matching path) but are actually related by a
//! more complex one, so the online check will not claim them (Fig. 13:
//! (78, 215) matches T2's path but its topologies are T3/T4, hence the
//! exception row; (44, 742) truly has T2 and is *not* stored).
//!
//! Eligibility: only **path-shaped** topologies are pruned. The paper
//! observes the frequent ones "are no more complicated than a path" and
//! its online check (§4.3) is a path join; complex topologies always
//! stay in LeftTops. A pair with a matching path is in exception for T
//! exactly when its topology set does not contain T — which for a
//! single-path topology happens iff the pair has ≥ 2 path classes.

use ts_storage::{cast, Table};

use crate::catalog::{Catalog, EsPair, TopologyId};

/// Pruning configuration.
#[derive(Debug, Clone, Copy)]
pub struct PruneOptions {
    /// Prune path-shaped topologies with frequency strictly above this.
    pub threshold: u64,
    /// Upper bound on how many topologies may be pruned (the paper prunes
    /// 19 of 805 at l ≤ 3; a bound keeps the online-check count small).
    pub max_pruned: usize,
}

impl Default for PruneOptions {
    fn default() -> Self {
        PruneOptions { threshold: 1000, max_pruned: 64 }
    }
}

/// What pruning did.
#[derive(Debug, Clone, Default)]
pub struct PruneReport {
    /// Pruned topology ids (most frequent first).
    pub pruned: Vec<TopologyId>,
    /// Rows in AllTops (unchanged by pruning).
    pub alltops_rows: usize,
    /// Rows left in LeftTops.
    pub lefttops_rows: usize,
    /// Rows written to ExcpTops.
    pub excptops_rows: usize,
}

/// Prune the catalog in place, rebuilding `LeftTops` and `ExcpTops`.
///
/// Idempotent in effect: re-running with the same options rebuilds the
/// same tables from the unchanged `AllTops` ground truth. LeftTops is a
/// filtered copy of AllTops' columns; ExcpTops visits only the pairs
/// with ≥ 2 path classes (the rule in the module doc), in pair order,
/// and lists each one's exceptions in victim order (frequency
/// descending, then id).
pub fn prune_catalog(catalog: &mut Catalog, opts: PruneOptions) -> PruneReport {
    // Select pruning victims: path-shaped, above threshold, most frequent
    // first.
    let mut victims: Vec<(u64, TopologyId)> = catalog
        .metas()
        .iter()
        .filter(|m| m.path_sig.is_some() && m.freq > opts.threshold)
        .map(|m| (m.freq, m.id))
        .collect();
    victims.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    victims.truncate(opts.max_pruned);
    let pruned_ids: Vec<TopologyId> = victims.iter().map(|&(_, id)| id).collect();

    // Flag metas (clearing stale flags from a previous run).
    catalog.set_pruned(&pruned_ids);

    // Rebuild LeftTops = AllTops minus pruned TIDs, sized exactly (a
    // topology's frequency is its AllTops row count): surviving rows are
    // copied from AllTops' raw column buffers through the all-Int fast
    // lane, the pruned test is the meta's flag.
    let pruned_rows: u64 = pruned_ids.iter().map(|&tid| catalog.meta(tid).freq).sum();
    let mut lefttops = Table::new(catalog.lefttops.schema().clone());
    lefttops.reserve(
        catalog.alltops.len().saturating_sub(usize::try_from(pruned_rows).unwrap_or(usize::MAX)),
    );
    let [e1, e2, tids] = catalog.alltops_columns();
    for ((&e1, &e2), &tid) in e1.iter().zip(e2).zip(tids) {
        if !catalog.meta(cast::int_to_u32(tid)).pruned {
            #[expect(
                clippy::expect_used,
                reason = "rows are copied from alltops, which shares the same fixed 3-Int-column schema"
            )]
            lefttops.insert_ints(&[e1, e2, tid]).expect("copy of valid row");
        }
    }
    lefttops.create_index_bulk(2);

    // Rebuild ExcpTops: pairs with a pruned topology's path but a
    // different topology set. Victims are grouped by espair (stably, so
    // a pair's rows keep the victims' frequency order), and each pair
    // reads only its own espair's run. A pair with one path class is
    // skipped before that lookup: its one topology is the path itself,
    // so if a victim has the class's signature the pair has the victim.
    #[expect(
        clippy::expect_used,
        reason = "the victim filter above requires path_sig.is_some(), and every path-shaped topology's signature was interned when the catalog was built"
    )]
    let mut pruned_sigs: Vec<(EsPair, u32, TopologyId)> = pruned_ids
        .iter()
        .map(|&tid| {
            let meta = catalog.meta(tid);
            let sig = meta.path_sig.as_ref().expect("victims are path-shaped");
            let sig_id = catalog.sig_id(sig).expect("pruned topology's signature is interned");
            (meta.espair, sig_id, tid)
        })
        .collect();
    pruned_sigs.sort_by_key(|&(espair, _, _)| espair);
    // Collected first so the table is reserved exactly.
    let mut excp_rows: Vec<[i64; 3]> = Vec::new();
    for p in catalog.pairs().filter(|p| p.sigs.len() >= 2) {
        let lo = pruned_sigs.partition_point(|v| v.0 < p.espair);
        for &(_, sig_id, tid) in pruned_sigs[lo..].iter().take_while(|v| v.0 == p.espair) {
            if p.sigs.contains(&sig_id) && !p.topos.contains(&i64::from(tid)) {
                excp_rows.push([p.e1, p.e2, i64::from(tid)]);
            }
        }
    }
    let mut excptops = Table::new(catalog.excptops.schema().clone());
    excptops.reserve(excp_rows.len());
    for row in &excp_rows {
        #[expect(
            clippy::expect_used,
            reason = "excptops is rebuilt here with the same fixed 3-Int-column schema"
        )]
        excptops.insert_ints(row).expect("excptops schema is fixed");
    }
    let excp_order = order_by_tid(&excp_rows, catalog.topology_count());

    let report = PruneReport {
        pruned: pruned_ids,
        alltops_rows: catalog.alltops.len(),
        lefttops_rows: lefttops.len(),
        excptops_rows: excp_rows.len(),
    };
    catalog.lefttops = lefttops;
    catalog.excptops = excptops;
    catalog.excp_order = excp_order;
    report
}

/// ExcpTops' row ids sorted by (TID, E1, E2), by counting on TID: the
/// rows arrive in pair order, so within one TID (one espair) they are
/// already in (E1, E2) order, and a stable placement by TID is the whole
/// sort.
fn order_by_tid(rows: &[[i64; 3]], topologies: usize) -> Vec<u32> {
    let mut starts = vec![0u32; topologies + 1];
    for row in rows {
        starts[cast::int_to_usize(row[2]) + 1] += 1;
    }
    for t in 1..starts.len() {
        starts[t] += starts[t - 1];
    }
    let mut order = vec![0u32; rows.len()];
    for (rid, row) in rows.iter().enumerate() {
        let slot = &mut starts[cast::int_to_usize(row[2])];
        order[*slot as usize] = cast::to_u32(rid);
        *slot += 1;
    }
    debug_assert!(
        order.windows(2).all(|w| {
            let [a, b] = [w[0], w[1]].map(|r| rows[r as usize]);
            (a[2], a[0], a[1]) < (b[2], b[0], b[1])
        }),
        "ExcpTops rows of one TID arrive in (E1, E2) order"
    );
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EsPair;
    use crate::compute::{compute_catalog, ComputeOptions};
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};

    fn catalog() -> Catalog {
        let (db, g, schema) = figure3();
        let (cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        cat
    }

    #[test]
    fn threshold_zero_prunes_all_path_topologies() {
        let mut cat = catalog();
        let report = prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 64 });
        // T1 (P-D) and T2 (P-U-D) are the only path-shaped P-D topologies;
        // other espairs contribute their own path topologies.
        assert!(!report.pruned.is_empty());
        for &tid in &report.pruned {
            assert!(cat.meta(tid).path_sig.is_some());
            assert!(cat.meta(tid).pruned);
        }
        assert_eq!(report.alltops_rows, report.lefttops_rows + pruned_row_count(&cat));
    }

    fn pruned_row_count(cat: &Catalog) -> usize {
        cat.alltops
            .rows()
            .filter(|r| cat.meta(TopologyId::try_from(r.as_int(2)).unwrap()).pruned)
            .count()
    }

    #[test]
    fn exception_semantics_match_figure13() {
        // Prune everything path-shaped. Pair (78,215) has a P-U-D path
        // but topologies {T3,T4}: it must appear in ExcpTops for the
        // pruned P-U-D topology. Pair (44,742) has the P-U-D topology
        // itself: it must NOT appear.
        let mut cat = catalog();
        prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 64 });
        let pd = EsPair::new(PROTEIN, DNA);
        let t2 = cat
            .metas()
            .iter()
            .find(|m| m.espair == pd && m.pruned && m.path_sig.as_ref().map(|s| s.len()) == Some(2))
            .expect("P-U-D topology pruned")
            .id;
        assert!(cat.excp_contains(78, 215, t2));
        assert!(!cat.excp_contains(44, 742, t2));
        // And T1 (direct encodes): (32,214) truly has T1, no exception.
        let t1 = cat
            .metas()
            .iter()
            .find(|m| m.espair == pd && m.pruned && m.path_sig.as_ref().map(|s| s.len()) == Some(1))
            .expect("P-D topology pruned")
            .id;
        assert!(!cat.excp_contains(32, 214, t1));
    }

    #[test]
    fn high_threshold_prunes_nothing() {
        let mut cat = catalog();
        let report = prune_catalog(&mut cat, PruneOptions { threshold: 1_000_000, max_pruned: 64 });
        assert!(report.pruned.is_empty());
        assert_eq!(report.lefttops_rows, report.alltops_rows);
        assert_eq!(report.excptops_rows, 0);
    }

    #[test]
    fn max_pruned_caps_victims() {
        let mut cat = catalog();
        let report = prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 1 });
        assert_eq!(report.pruned.len(), 1);
    }

    #[test]
    fn repruning_is_stable() {
        let mut cat = catalog();
        let r1 = prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 64 });
        let r2 = prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 64 });
        assert_eq!(r1.pruned, r2.pruned);
        assert_eq!(r1.lefttops_rows, r2.lefttops_rows);
        assert_eq!(r1.excptops_rows, r2.excptops_rows);
        // And loosening the threshold restores everything.
        let r3 = prune_catalog(&mut cat, PruneOptions { threshold: u64::MAX, max_pruned: 64 });
        assert_eq!(r3.lefttops_rows, r3.alltops_rows);
        assert!(cat.metas().iter().all(|m| !m.pruned));
    }

    #[test]
    fn complex_topologies_never_pruned() {
        let mut cat = catalog();
        prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 1000 });
        for m in cat.metas() {
            if m.path_sig.is_none() {
                assert!(!m.pruned, "complex topology {} must stay in LeftTops", m.id);
            }
        }
    }
}
