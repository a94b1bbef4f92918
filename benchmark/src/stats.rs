//! Sample aggregation: percentiles, per-op deciles, quartile spread, and
//! the FNV-1a digest used for op lists and answers.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it. `p99` of 1 200
/// samples is the 1 188th, leaving 12 beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of a sample.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// For each op, the lower decile of its latency across passes. Every
/// pass runs the identical op list, so index `i` is the same (query,
/// method) in each.
///
/// With the core's clock divided out (`clock.rs`), what is left of the
/// reference box's interference only ever adds time — other tenants'
/// traffic in the shared cache and memory, an interrupt — so an op's
/// fast passes are the ones least touched by it. Over 400 s of `topk_et`
/// cut into 15 s runs the lower decile spread 1.0 % from run to run and
/// the lower quartile 1.6 %; in a noisier ten minutes 5 % and 15 %, the
/// median 19 %. With up to ten passes it *is* the minimum; a run has 30
/// to 60.
pub fn per_op_low_decile(passes: &[&[f64]]) -> Vec<f64> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    let mut column = Vec::with_capacity(passes.len());
    (0..first.len())
        .map(|i| {
            column.clear();
            for pass in passes {
                assert_eq!(pass.len(), first.len(), "passes must run the same op list");
                column.push(pass[i]);
            }
            column.sort_by(f64::total_cmp);
            percentile(&column, 0.10)
        })
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the driver computes a metric's spread as
/// `(q3 - q1) / median` from exactly these. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// `(q3 - q1) / |median|`; `None` below two values or at a zero median.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// FNV-1a, 64-bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 1 200 samples: p99 leaves 12 beyond it.
        let s: Vec<f64> = (0..1200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), 1187.0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn per_op_aggregation_takes_the_low_decile_per_index() {
        // Three passes: the decile is the minimum.
        let passes: [&[f64]; 3] = [&[5.0, 1.0, 9.0], &[4.0, 2.0, 9.5], &[6.0, 3.0, 8.0]];
        assert_eq!(per_op_low_decile(&passes), vec![4.0, 1.0, 8.0]);
        assert_eq!(per_op_low_decile(&passes[..1]), passes[0]);
        assert!(per_op_low_decile(&[]).is_empty());
        // Twenty passes: the second-fastest, so one lucky pass does not set it.
        let passes: Vec<[f64; 1]> = (1..=20).rev().map(|x| [f64::from(x)]).collect();
        let passes: Vec<&[f64]> = passes.iter().map(|p| p.as_slice()).collect();
        assert_eq!(per_op_low_decile(&passes), vec![2.0]);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&xs), Some(1.0));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
