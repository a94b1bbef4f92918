//! Experiment workloads: the Table-2 selectivity grid, the Biozon domain
//! scorer, the Appendix-B weak-relationship policy, and the serving-mix
//! generator the serving tests and `benchmark/` replay.

use ts_core::{DomainScorer, RankScheme, TopologyQuery, WeakPolicy};
use ts_storage::Predicate;

use crate::generate::{SchemaIds, KW_MEDIUM, KW_SELECTIVE, KW_UNSELECTIVE};

/// The three predicate selectivities of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Selectivity {
    /// ~15% of rows.
    Selective,
    /// ~50% of rows.
    Medium,
    /// ~85% of rows.
    Unselective,
}

impl Selectivity {
    /// All three, in the paper's row/column order.
    pub fn all() -> [Selectivity; 3] {
        [Selectivity::Selective, Selectivity::Medium, Selectivity::Unselective]
    }

    /// Nominal fraction.
    pub fn fraction(self) -> f64 {
        match self {
            Selectivity::Selective => 0.15,
            Selectivity::Medium => 0.50,
            Selectivity::Unselective => 0.85,
        }
    }
}

impl std::fmt::Display for Selectivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Selectivity::Selective => "selective",
            Selectivity::Medium => "medium",
            Selectivity::Unselective => "unselective",
        };
        write!(f, "{s}")
    }
}

/// Keyword-containment predicate of the given selectivity on a `desc`
/// column (column 1 of Protein / Interaction / Unigene tables).
pub fn selectivity_predicate(sel: Selectivity) -> Predicate {
    let kw = match sel {
        Selectivity::Selective => KW_SELECTIVE,
        Selectivity::Medium => KW_MEDIUM,
        Selectivity::Unselective => KW_UNSELECTIVE,
    };
    Predicate::contains(1, kw)
}

/// SplitMix64 step: the workload stream must be deterministic in the
/// seed and independent of any crate-level RNG state.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A constraint for one query endpoint: DNA draws from its `type`
/// column (Example 2.1's `type = 'mRNA'`), everything else from the
/// Table-2 selectivity keywords on its `desc` column, with
/// unconstrained endpoints mixed in.
fn endpoint_constraint(es: u16, ids: &SchemaIds, r: u64) -> Predicate {
    if es == ids.dna {
        match r % 3 {
            0 => Predicate::True,
            1 => Predicate::eq(1, "mRNA"),
            _ => Predicate::eq(1, "EST"),
        }
    } else {
        match r % 4 {
            0 => Predicate::True,
            1 => selectivity_predicate(Selectivity::Selective),
            2 => selectivity_predicate(Selectivity::Medium),
            _ => selectivity_predicate(Selectivity::Unselective),
        }
    }
}

/// A deterministic serving mix: `n` queries cycling the
/// paper's six entity-set pairs with constraints, `k` (1..=20), and
/// ranking scheme drawn from a SplitMix64 stream over `seed`.
///
/// This is what the fault-storm suite and `benchmark/` replay: same seed,
/// same queries, in the same order, on every machine.
pub fn query_mix(ids: &SchemaIds, l: usize, n: usize, seed: u64) -> Vec<TopologyQuery> {
    let pairs = [
        (ids.protein, ids.dna),
        (ids.protein, ids.interaction),
        (ids.protein, ids.unigene),
        (ids.dna, ids.interaction),
        (ids.dna, ids.unigene),
        (ids.unigene, ids.interaction),
    ];
    let mut state = seed;
    (0..n)
        .map(|i| {
            let (es1, es2) = pairs[i % pairs.len()];
            let con1 = endpoint_constraint(es1, ids, splitmix(&mut state));
            let con2 = endpoint_constraint(es2, ids, splitmix(&mut state));
            let k = 1 + (splitmix(&mut state) % 20) as usize;
            let scheme = RankScheme::all()[(splitmix(&mut state) % 3) as usize];
            TopologyQuery::new(es1, con1, es2, con2, l).with_k(k).with_scheme(scheme)
        })
        .collect()
}

/// The pseudo-domain-expert configured for the Biozon schema: interaction
/// relationships are the biologically interesting edges (Fig. 16).
pub fn domain_scorer(ids: &SchemaIds) -> DomainScorer {
    DomainScorer {
        interesting_rels: vec![ids.interacts_p, ids.interacts_d],
        ..DomainScorer::default()
    }
}

/// Appendix-B weak-relationship policy for l = 4: bans the walks the
/// paper calls out as connecting "most likely unrelated" entities when
/// repeated — foremost P-D-P-U-D (§6.2.3), plus the PUPU / DUPU family
/// extended to DNA endpoints.
pub fn weak_policy_l4(ids: &SchemaIds) -> WeakPolicy {
    let (p, d, u) = (ids.protein, ids.dna, ids.unigene);
    let (e, ue, uc) = (ids.encodes, ids.uni_encodes, ids.uni_contains);
    let mut w = WeakPolicy::new();
    // P-D-P-U-D: protein → its DNA → another protein of that DNA → that
    // protein's unigene → an EST in the cluster.
    w.ban_walk(&[p, d, p, u, d], &[e, e, ue, uc]);
    // P-U-P-U-D: homologous-protein hop repeated through unigenes.
    w.ban_walk(&[p, u, p, u, d], &[ue, ue, ue, uc]);
    // D-U-P-U-D: two ESTs related only through a shared protein's clusters.
    w.ban_walk(&[d, u, p, u, d], &[uc, ue, ue, uc]);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BiozonConfig;
    use crate::generate::generate;

    #[test]
    fn predicates_select_expected_fractions() {
        let b = generate(&BiozonConfig::default());
        let t = b.db.table_by_name("Protein").unwrap();
        for sel in Selectivity::all() {
            let pred = selectivity_predicate(sel);
            let got = t.scan(&pred).len() as f64 / t.len() as f64;
            assert!(
                (got - sel.fraction()).abs() < 0.06,
                "{sel}: got {got}, expected ~{}",
                sel.fraction()
            );
        }
    }

    #[test]
    fn interaction_predicates_work_too() {
        let b = generate(&BiozonConfig::default());
        let t = b.db.table_by_name("Interaction").unwrap();
        let got = t.scan(&selectivity_predicate(Selectivity::Medium)).len() as f64 / t.len() as f64;
        assert!((got - 0.5).abs() < 0.1);
    }

    #[test]
    fn domain_scorer_uses_interactions() {
        let b = generate(&BiozonConfig::small(1));
        let s = domain_scorer(&b.ids);
        assert!(s.interesting_rels.contains(&b.ids.interacts_p));
    }

    #[test]
    fn query_mix_is_deterministic_and_varied() {
        let b = generate(&BiozonConfig::small(1));
        let a = query_mix(&b.ids, 3, 60, 7);
        let c = query_mix(&b.ids, 3, 60, 7);
        assert_eq!(a.len(), 60);
        for (x, y) in a.iter().zip(&c) {
            assert_eq!((x.es1, x.es2, x.k, x.scheme, x.l), (y.es1, y.es2, y.k, y.scheme, y.l));
        }
        let pairs: std::collections::BTreeSet<_> = a.iter().map(|q| (q.es1, q.es2)).collect();
        assert_eq!(pairs.len(), 6, "all six paper pairs cycle through");
        let schemes: std::collections::BTreeSet<_> =
            a.iter().map(|q| format!("{}", q.scheme)).collect();
        assert_eq!(schemes.len(), 3, "all three ranking schemes appear");
        let ks: std::collections::BTreeSet<_> = a.iter().map(|q| q.k).collect();
        assert!(ks.len() > 5 && ks.iter().all(|&k| (1..=20).contains(&k)));
        let other_seed = query_mix(&b.ids, 3, 60, 8);
        let same: usize =
            a.iter().zip(&other_seed).filter(|(x, y)| (x.k, x.scheme) == (y.k, y.scheme)).count();
        assert!(same < 30, "different seeds should draw different streams");
    }

    #[test]
    fn weak_policy_has_three_bans() {
        let b = generate(&BiozonConfig::small(1));
        let w = weak_policy_l4(&b.ids);
        assert_eq!(w.len(), 3);
    }
}
