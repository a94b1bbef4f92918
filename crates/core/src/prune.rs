//! The Topology Pruning module (§4.2).
//!
//! The frequency distribution of topologies is approximately Zipfian
//! (Fig. 11): a handful of very frequent, structurally simple topologies
//! account for most AllTops rows. Pruning removes them from the
//! precomputed LeftTops table — their existence is cheap to check
//! online. A pair that *looks* related by a pruned topology (it has a
//! matching path) but is actually related by a more complex one is an
//! exception, which the online check must not claim (Fig. 13: (78, 215)
//! matches T2's path but its topologies are T3/T4, hence an exception;
//! (44, 742) truly has T2 and is not one).
//!
//! Eligibility: only **path-shaped** topologies are pruned. The paper
//! observes the frequent ones "are no more complicated than a path" and
//! its online check (§4.3) is a path join; complex topologies always
//! stay in LeftTops. A pair with a matching path is in exception for T
//! exactly when its topology set does not contain T — which for a
//! single-path topology happens iff the pair has ≥ 2 path classes.
//!
//! §4.2 stores the exceptions as ExcpTops so that a deployment can drop
//! AllTops. This catalog keeps AllTops, where a witness is no exception
//! exactly when it is a row ([`Catalog::holds`]), so pruning only counts
//! them: T's exceptions are the pairs with T's class less the `freq(T)`
//! pairs whose only class it is.

use ts_storage::cast;

use crate::catalog::{tops_table, Catalog, TopologyId};

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
    /// Exceptions counted: the rows ExcpTops would hold.
    pub excptops_rows: usize,
}

/// Prune the catalog in place: rebuild `LeftTops` and count the
/// exceptions of every pruned topology.
///
/// Idempotent in effect: re-running with the same options rebuilds the
/// same LeftTops from the unchanged `AllTops` ground truth.
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

    // LeftTops = AllTops minus the pruned TIDs, sized exactly: a
    // topology's frequency is its AllTops row count.
    let pruned: Vec<bool> = catalog.metas().iter().map(|m| pruned_ids.contains(&m.id)).collect();
    let pruned_rows: u64 = victims.iter().map(|&(freq, _)| freq).sum();
    let [e1, e2, tids] = catalog.alltops_columns();
    let left_rows = tids.len() - usize::try_from(pruned_rows).unwrap_or(usize::MAX);
    let mut cols: [Vec<i64>; 3] = std::array::from_fn(|_| Vec::with_capacity(left_rows));
    for ((&e1, &e2), &tid) in e1.iter().zip(e2).zip(tids) {
        if !pruned[cast::int_to_usize(tid)] {
            cols[0].push(e1);
            cols[1].push(e2);
            cols[2].push(tid);
        }
    }
    let lefttops = tops_table("LeftTops", cols);

    // Exceptions: pairs with a victim's path class, less its frequency.
    let mut with_class = vec![0usize; catalog.sig_count()];
    for &sig in catalog.class_ids() {
        with_class[sig as usize] += 1;
    }
    #[expect(
        clippy::expect_used,
        reason = "the victim filter above requires path_sig.is_some(), and every path-shaped topology's signature was interned when the catalog was built"
    )]
    let exceptions: Vec<(TopologyId, usize)> = pruned_ids
        .iter()
        .map(|&tid| {
            let meta = catalog.meta(tid);
            let sig = meta.path_sig.as_ref().expect("victims are path-shaped");
            let sig_id = catalog.sig_id(sig).expect("pruned topology's signature is interned");
            let freq = usize::try_from(meta.freq).unwrap_or(usize::MAX);
            (tid, with_class[sig_id as usize] - freq)
        })
        .collect();

    let report = PruneReport {
        pruned: pruned_ids,
        alltops_rows: catalog.alltops.len(),
        lefttops_rows: lefttops.len(),
        excptops_rows: exceptions.iter().map(|e| e.1).sum(),
    };
    catalog.set_pruned(&exceptions, lefttops);
    report
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
        // but topologies {T3,T4}: it is an exception for the pruned
        // P-U-D topology, not an AllTops row of it. Pair (44,742) has the
        // P-U-D topology itself: no exception.
        let mut cat = catalog();
        prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 64 });
        let pd = EsPair::new(PROTEIN, DNA);
        let t2 = cat
            .metas()
            .iter()
            .find(|m| m.espair == pd && m.pruned && m.path_sig.as_ref().map(|s| s.len()) == Some(2))
            .expect("P-U-D topology pruned")
            .id;
        assert!(!cat.holds(78, 215, t2));
        assert!(cat.holds(44, 742, t2));
        // (34, 215) has the P-U-D path beside its encodes edge: the other
        // exception.
        assert_eq!(cat.meta(t2).exceptions, 2, "(78, 215) and (34, 215)");
        assert!(!cat.holds(34, 215, t2));
        // And T1 (direct encodes): (32,214) truly has T1, no exception.
        let t1 = cat
            .metas()
            .iter()
            .find(|m| m.espair == pd && m.pruned && m.path_sig.as_ref().map(|s| s.len()) == Some(1))
            .expect("P-D topology pruned")
            .id;
        assert!(cat.holds(32, 214, t1));
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
