//! Checked narrowing casts for index/offset math.
//!
//! CSR offsets, interner ids, and column positions are stored narrow
//! (`u32`/`u16`/`u8`) but computed wide (`usize`), and topology ids are
//! stored in `i64` TID columns. A bare `value as u32` truncates silently
//! when the invariant ("this buffer never exceeds 4 GiB of entries", "a
//! TID cell holds an id") is violated; these helpers make the invariant
//! explicit. Debug builds assert the value is in range, release builds
//! compile down to the same raw cast — zero cost on the hot path.
//!
//! `clippy::cast_possible_truncation` points offenders here; the raw
//! casts inside each helper are the single allowed occurrence.

// Whole module: every helper is the one sanctioned raw narrowing cast.
#![expect(clippy::cast_possible_truncation, reason = "range checked by the debug_assert above")]

/// `usize` → `u32`, asserting the value fits in debug builds.
#[inline(always)]
pub fn to_u32(v: usize) -> u32 {
    debug_assert!(v <= u32::MAX as usize, "to_u32: {v} exceeds u32::MAX");
    v as u32
}

/// `usize` → `u16`, asserting the value fits in debug builds.
#[inline(always)]
pub fn to_u16(v: usize) -> u16 {
    debug_assert!(v <= u16::MAX as usize, "to_u16: {v} exceeds u16::MAX");
    v as u16
}

/// `usize` → `u8`, asserting the value fits in debug builds.
#[inline(always)]
pub fn to_u8(v: usize) -> u8 {
    debug_assert!(v <= u8::MAX as usize, "to_u8: {v} exceeds u8::MAX");
    v as u8
}

/// `i64` cell → `u32` id (a TID column read), asserting the cell holds
/// a non-negative value that fits in debug builds.
#[inline(always)]
pub fn int_to_u32(v: i64) -> u32 {
    debug_assert!((0..=i64::from(u32::MAX)).contains(&v), "int_to_u32: {v} out of range");
    v as u32
}

/// `i64` cell → `usize` index (a TID column read), asserting the cell
/// holds a non-negative `u32`-range id in debug builds.
#[inline(always)]
pub fn int_to_usize(v: i64) -> usize {
    debug_assert!((0..=i64::from(u32::MAX)).contains(&v), "int_to_usize: {v} out of range");
    v as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_round_trip() {
        assert_eq!(to_u32(0), 0);
        assert_eq!(to_u32(u32::MAX as usize), u32::MAX);
        assert_eq!(to_u16(u16::MAX as usize), u16::MAX);
        assert_eq!(to_u8(255), 255);
        assert_eq!(int_to_u32(i64::from(u32::MAX)), u32::MAX);
        assert_eq!(int_to_usize(7), 7);
    }

    #[test]
    #[should_panic(expected = "to_u8")]
    #[cfg(debug_assertions)]
    fn out_of_range_panics_in_debug() {
        let _ = to_u8(256);
    }
}
