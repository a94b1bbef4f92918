//! Answer checking: every (query, method) result is compared with the
//! `Full-Top` / `Full-Top-k` reference for its query. The rule is that
//! of the workspace's `tests/method_equivalence.rs`, re-implemented
//! here because the harness may touch the program only from outside.

use std::collections::HashSet;

use ts_core::{Catalog, Method, QueryContext, TopologyId, TopologyQuery, Work};

use crate::stats::Fnv;

/// Ground truth for one query.
pub struct Reference {
    /// `Full-Top`'s unranked result, sorted.
    pub set: Vec<TopologyId>,
    /// `Full-Top-k`'s complete ranking (k beyond any topology count).
    pub ranked: Vec<(TopologyId, f64)>,
}

pub fn reference(ctx: &QueryContext<'_>, q: &TopologyQuery) -> Reference {
    let eval = |m: Method, q: &TopologyQuery| {
        m.try_eval_with(ctx, q, Work::new()).expect("workload queries are valid")
    };
    let set = eval(Method::FullTop, q).tid_set();
    let ranked = eval(Method::FullTopK, &q.clone().with_k(1_000_000)).topologies;
    Reference { set, ranked }
}

/// `Ok` iff `got` is a correct complete answer of `method` to the query.
///
/// Unranked methods: the same topology set as `Full-Top`. Ranked
/// methods: `min(k, all)` results, position for position the reference
/// score sequence, and within each run of tied scores distinct
/// topologies drawn from that score's class (ties may break either way).
pub fn check_answer(
    method: Method,
    k: usize,
    got: &[(TopologyId, f64)],
    reference: &Reference,
) -> Result<(), String> {
    if !method.is_topk() {
        let mut set: Vec<TopologyId> = got.iter().map(|&(t, _)| t).collect();
        set.sort_unstable();
        set.dedup();
        return if set == reference.set {
            Ok(())
        } else {
            Err(format!("set of {} topologies, reference has {}", set.len(), reference.set.len()))
        };
    }
    let full = &reference.ranked;
    let n = k.min(full.len());
    if got.len() != n {
        return Err(format!("{} results, expected {n}", got.len()));
    }
    for (i, (&(_, gs), &(_, fs))) in got.iter().zip(full).enumerate() {
        if gs != fs {
            return Err(format!("position {i}: score {gs}, reference {fs}"));
        }
    }
    let mut i = 0;
    while i < n {
        let score = full[i].1;
        let mut j = i;
        while j < n && full[j].1 == score {
            j += 1;
        }
        let class: HashSet<TopologyId> =
            full.iter().filter(|&&(_, s)| s == score).map(|&(t, _)| t).collect();
        let group: HashSet<TopologyId> = got[i..j].iter().map(|&(t, _)| t).collect();
        if group.len() != j - i {
            return Err(format!("duplicate topology in the tie group at {i}"));
        }
        if !group.is_subset(&class) {
            return Err(format!("tie group at {i} leaves its score class"));
        }
        i = j;
    }
    Ok(())
}

/// A degraded (budget-cut) partial answer may be short, but every
/// topology in it must belong to the full result.
pub fn partial_is_sound(got: &[(TopologyId, f64)], reference: &Reference) -> bool {
    got.iter().all(|(t, _)| reference.set.binary_search(t).is_ok())
}

/// Fold one op's answer into the run's `answers_digest`: op index, then
/// each result's canonical code and score bits. Codes, not topology
/// ids, so that two commits that number topologies differently still
/// agree.
pub fn digest_answer(fnv: &mut Fnv, catalog: &Catalog, op: usize, got: &[(TopologyId, f64)]) {
    fnv.u64(op as u64);
    fnv.u64(got.len() as u64);
    for &(tid, score) in got {
        for word in &catalog.meta(tid).code.0 {
            fnv.bytes(&word.to_le_bytes());
        }
        fnv.u64(score.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        Reference {
            set: vec![1, 2, 3, 4, 5],
            ranked: vec![(3, 9.0), (1, 7.0), (4, 7.0), (5, 7.0), (2, 1.0)],
        }
    }

    #[test]
    fn unranked_answers_compare_as_sets() {
        let r = reference();
        let got: Vec<_> = [5, 3, 1, 2, 4, 3].iter().map(|&t| (t, 0.0)).collect();
        assert!(check_answer(Method::FastTop, 10, &got, &r).is_ok());
        assert!(check_answer(Method::FastTop, 10, &got[..3], &r).is_err());
    }

    #[test]
    fn ranked_answers_match_modulo_ties() {
        let r = reference();
        // k = 3 cuts the 7.0 class; any two of its three members do.
        assert!(check_answer(Method::FullTopKEt, 3, &[(3, 9.0), (5, 7.0), (1, 7.0)], &r).is_ok());
        assert!(check_answer(Method::FullTopKEt, 3, &[(3, 9.0), (1, 7.0), (4, 7.0)], &r).is_ok());
        // Wrong length, wrong score, duplicate, and a stranger in the class.
        assert!(check_answer(Method::FullTopKEt, 3, &[(3, 9.0), (1, 7.0)], &r).is_err());
        assert!(check_answer(Method::FullTopKEt, 3, &[(3, 9.0), (1, 7.0), (2, 1.0)], &r).is_err());
        assert!(check_answer(Method::FullTopKEt, 3, &[(3, 9.0), (1, 7.0), (1, 7.0)], &r).is_err());
        assert!(check_answer(Method::FullTopKEt, 3, &[(3, 9.0), (1, 7.0), (2, 7.0)], &r).is_err());
        // k beyond the result: everything, in score order.
        assert!(check_answer(Method::FastTopK, 50, &r.ranked, &r).is_ok());
    }

    #[test]
    fn partial_answers_must_stay_inside_the_full_result() {
        let r = reference();
        assert!(partial_is_sound(&[(2, 0.0)], &r));
        assert!(partial_is_sound(&[], &r));
        assert!(!partial_is_sound(&[(2, 0.0), (9, 0.0)], &r));
    }
}
