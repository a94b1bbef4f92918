//! A vendored FxHash-style hasher for the hot-path maps.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3: a keyed PRF designed
//! to resist hash-flooding from untrusted input. Every key in this
//! system is trusted internal data — interned `PathSig`/`CanonicalCode`
//! vectors, entity ids, pooled strings — and the offline build probes
//! these maps millions of times, so the DoS insurance costs real wall
//! clock on long keys for nothing. [`FastHasher`] is the standard
//! production answer (the word-at-a-time multiply-xor scheme of
//! rustc-hash / FxHash, vendored here because this build environment has
//! no registry access): a rotate, an xor, and one multiply per word.
//!
//! Determinism discipline: a non-random hasher must never be allowed to
//! *hide* an iteration-order dependence (a randomly-seeded hasher would
//! surface it as flaky output; a fixed one freezes it into "works on my
//! machine"). Every map swept onto [`FastMap`] therefore either (a) is
//! lookup-only — iteration never feeds output — or (b) has its iteration
//! sorted/grouped structurally before anything observable is derived.
//! `tests/hasher_equivalence.rs` holds the whole offline build to that
//! contract by rebuilding the catalog under randomly-seeded SipHash and
//! asserting byte identity.

// Whole module: it defines the FastMap/FastSet aliases.
#![expect(
    clippy::disallowed_types,
    reason = "this module defines the FastMap/FastSet aliases; std's HashMap is the base type being re-seeded, not a use of SipHash"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family: odd, high entropy across the high
/// bits, one `mul` per word on every 64-bit target.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// Word-at-a-time multiply-xor hasher (FxHash scheme). Not keyed, not
/// flood-resistant — for trusted internal keys only.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // One multiply per 8-byte word, then one per remaining tail
        // chunk; the length is folded in so prefixes don't collide with
        // their extensions.
        let mut rest = bytes;
        while rest.len() >= 8 {
            let (head, tail) = rest.split_at(8);
            #[expect(clippy::expect_used, reason = "split_at(8) just made head exactly 8 bytes")]
            self.add(u64::from_le_bytes(head.try_into().expect("8-byte chunk")));
            rest = tail;
        }
        if rest.len() >= 4 {
            let (head, tail) = rest.split_at(4);
            #[expect(clippy::expect_used, reason = "split_at(4) just made head exactly 4 bytes")]
            self.add(u32::from_le_bytes(head.try_into().expect("4-byte chunk")) as u64);
            rest = tail;
        }
        for &b in rest {
            self.add(b as u64);
        }
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "keeps the low 64 bits on purpose; the next line folds in the high 64"
        )]
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] — the `S` parameter of the aliases
/// below and of the hasher-generic build internals in `ts-core`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` with the fast hasher — drop-in for hot-path maps.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` with the fast hasher.
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

/// Hash of a `u16` sequence, identical to what `FastHasher` produces for
/// the same values written element-wise. This is the precomputed-hash
/// currency of the `PathSig` interners: a worker hashes a signature once
/// at first-intern time, caches the result alongside the interned id,
/// and every later interner (the catalog's, at merge time) reuses the
/// cached hash instead of re-walking the signature bytes.
#[inline]
pub fn fast_hash_u16s(seq: &[u16]) -> u64 {
    let mut h = FastHasher::default();
    for &v in seq {
        h.write_u16(v);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal() {
        assert_eq!(hash_of(&vec![1u16, 2, 3]), hash_of(&vec![1u16, 2, 3]));
        assert_eq!(hash_of(&"topology"), hash_of(&"topology"));
        assert_eq!(hash_of(&(7u16, 42i64)), hash_of(&(7u16, 42i64)));
    }

    #[test]
    fn different_keys_usually_differ() {
        assert_ne!(hash_of(&vec![1u16, 2, 3]), hash_of(&vec![1u16, 3, 2]));
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        assert_ne!(hash_of(&""), hash_of(&"x"));
    }

    #[test]
    fn byte_writes_fold_length() {
        // A prefix and its extension must not collide trivially.
        let mut a = FastHasher::default();
        a.write(b"abcd");
        let mut b = FastHasher::default();
        b.write(b"abcd\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fast_hash_u16s_matches_element_writes() {
        let seq = [3u16, 0, 7, 0, 3];
        let mut h = FastHasher::default();
        for &v in &seq {
            h.write_u16(v);
        }
        assert_eq!(fast_hash_u16s(&seq), h.finish());
        assert_ne!(fast_hash_u16s(&seq), fast_hash_u16s(&seq[..4]));
    }

    #[test]
    fn fastmap_roundtrip() {
        let mut m: FastMap<Vec<u16>, u32> = FastMap::default();
        for i in 0..100u32 {
            m.insert(vec![u16::try_from(i).unwrap(), u16::try_from(i * 7).unwrap()], i);
        }
        for i in 0..100u32 {
            assert_eq!(
                m.get(&vec![u16::try_from(i).unwrap(), u16::try_from(i * 7).unwrap()]),
                Some(&i)
            );
        }
        let mut s: FastSet<i64> = FastSet::default();
        s.insert(-3);
        assert!(s.contains(&-3) && !s.contains(&3));
    }
}
