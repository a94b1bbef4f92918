//! Weak relationships and domain-knowledge pruning (§6.2.3, Appendix B).
//!
//! As the path limit grows (l ≥ 4), paths like `P-D-P-U-D` connect
//! entities that are "most likely unrelated": they dilute meaningful
//! topologies (Fig. 17 shows one interesting topology splitting into
//! four) and are intrinsically expensive (hundreds of millions of
//! instances). The paper's proposed solution is "to use domain knowledge
//! to prune such weak topologies"; Appendix B (Table 4) lists the path
//! patterns in Biozon that give rise to them.
//!
//! [`WeakPolicy`] is that domain knowledge as a value: a set of banned
//! path signatures. The offline computation consults it once per schema
//! walk and drops the paths of banned walks before topology formation, so
//! weak relationships never enter the catalog.

use ts_graph::PathSig;
use ts_storage::FastSet;

/// Build the reversal-normalized signature of a label walk
/// (`types.len() == rels.len() + 1`).
pub fn sig_from_labels(types: &[u16], rels: &[u16]) -> PathSig {
    assert_eq!(types.len(), rels.len() + 1, "walk shape mismatch");
    let mut fwd = Vec::with_capacity(types.len() + rels.len());
    for i in 0..rels.len() {
        fwd.push(types[i]);
        fwd.push(rels[i]);
    }
    #[expect(
        clippy::expect_used,
        reason = "the shape assert above forces types.len() == rels.len() + 1 >= 1"
    )]
    fwd.push(*types.last().expect("non-empty walk"));
    PathSig::from_interleaved(fwd)
}

/// A set of path patterns considered weak relationships.
#[derive(Debug, Clone, Default)]
pub struct WeakPolicy {
    banned: FastSet<PathSig>,
}

impl WeakPolicy {
    /// Empty policy (bans nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ban a signature directly.
    pub fn ban(&mut self, sig: PathSig) -> &mut Self {
        self.banned.insert(sig);
        self
    }

    /// Ban a label walk given as type/relationship id sequences.
    pub fn ban_walk(&mut self, types: &[u16], rels: &[u16]) -> &mut Self {
        self.ban(sig_from_labels(types, rels))
    }

    /// Number of banned patterns.
    pub fn len(&self) -> usize {
        self.banned.len()
    }

    /// True when nothing is banned.
    pub fn is_empty(&self) -> bool {
        self.banned.is_empty()
    }

    /// True if the signature is banned.
    pub fn is_banned(&self, sig: &PathSig) -> bool {
        self.banned.contains(sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_graph::fixtures::{figure3, DNA, PROTEIN, UNIGENE};
    use ts_graph::paths::enumerate_pair_paths;

    #[test]
    fn sig_from_labels_matches_path_sig() {
        // P-U-D via uni_encodes(1), uni_contains(2).
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 2);
        let some_pud = pp.all_paths().find(|p| p.len() == 2).expect("a P-U-D path exists");
        let sig = sig_from_labels(&[PROTEIN, UNIGENE, DNA], &[1, 2]);
        assert_eq!(some_pud.sig(&g), sig);
    }

    #[test]
    fn reversed_walk_same_signature() {
        let a = sig_from_labels(&[0, 1, 2], &[5, 6]);
        let b = sig_from_labels(&[2, 1, 0], &[6, 5]);
        assert_eq!(a, b);
    }

    #[test]
    fn policy_bans_and_allows() {
        let (_db, g, schema) = figure3();
        let mut policy = WeakPolicy::new();
        policy.ban_walk(&[PROTEIN, UNIGENE, DNA], &[1, 2]);
        assert_eq!(policy.len(), 1);
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        let mut banned = 0;
        let mut allowed = 0;
        for p in pp.all_paths() {
            if policy.is_banned(&p.sig(&g)) {
                banned += 1;
            } else {
                allowed += 1;
            }
        }
        assert!(banned > 0, "the P-U-D paths must be banned");
        assert!(allowed > 0, "other shapes must survive");
    }

    #[test]
    #[should_panic(expected = "walk shape mismatch")]
    fn malformed_walk_panics() {
        sig_from_labels(&[0, 1], &[0, 1]);
    }
}
