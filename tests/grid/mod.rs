//! The query grid the integration tests share: 20 seeded random
//! (espair, σ, σ, k) draws over the paper's six entity-set pairs, each
//! under the three rank schemes, and the generator behind it.

use topology_search::prelude::*;

/// SplitMix64 — deterministic workload RNG, so every run replays the
/// same query sequence and failures reproduce.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A random constraint appropriate for the entity set's schema: DNA has
/// a `type` column, the other sets carry a `desc` column with planted
/// selectivity keywords.
pub fn random_predicate(es: u16, ids: &ts_biozon::SchemaIds, rng: &mut Rng) -> Predicate {
    if es == ids.dna {
        match rng.below(3) {
            0 => Predicate::True,
            1 => Predicate::eq(1, "mRNA"),
            _ => Predicate::eq(1, "genomic"),
        }
    } else {
        match rng.below(4) {
            0 => Predicate::True,
            1 => biozon::selectivity_predicate(biozon::Selectivity::Selective),
            2 => biozon::selectivity_predicate(biozon::Selectivity::Medium),
            _ => biozon::selectivity_predicate(biozon::Selectivity::Unselective),
        }
    }
}

/// The grid: 20 random (espair, σ, σ, k) draws, each under the three
/// rank schemes in turn, at path limit `l`.
pub fn grid_queries(ids: &ts_biozon::SchemaIds, l: usize) -> Vec<TopologyQuery> {
    let espairs = [
        (ids.protein, ids.dna),
        (ids.protein, ids.unigene),
        (ids.protein, ids.interaction),
        (ids.dna, ids.unigene),
        (ids.dna, ids.interaction),
        (ids.unigene, ids.interaction),
    ];
    let ks = [1usize, 2, 3, 5, 10, 1_000];
    let mut rng = Rng(0xB10_0B0E);
    let mut queries = Vec::new();
    for _ in 0..20 {
        let (es1, es2) = espairs[rng.below(espairs.len())];
        let con1 = random_predicate(es1, ids, &mut rng);
        let con2 = random_predicate(es2, ids, &mut rng);
        let k = ks[rng.below(ks.len())];
        for scheme in RankScheme::all() {
            queries.push(
                TopologyQuery::new(es1, con1.clone(), es2, con2.clone(), l)
                    .with_k(k)
                    .with_scheme(scheme),
            );
        }
    }
    queries
}
