//! The clock probe: how fast the core is running right now, and the
//! factor that takes a measured time to the reference clock.
//!
//! The reference box is a virtual machine whose host steps each core's
//! clock on its own: a fixed chain of dependent integer operations takes
//! 38.1, 40.0, 43.3, 44.5, 45.7, 47.1 or 48.5 us — turbo steps, held for
//! seconds to minutes, and not the same on the two cores (50-54 us when
//! the host is crowded). Everything the program does on that core
//! stretches by the same factor: over 400 s of `topk_et` passes cut into
//! 15 s runs, the median op time spread 13-21 % from run to run as
//! measured and 1 % once each op's time was divided by the probe
//! readings around it. A time is cycles over clock rate; the closed-loop
//! workloads therefore report times at one clock rate, the reference
//! one, by reading the probe every few operations.
//!
//! The probe touches no memory, so what the host's other tenants do to
//! the shared cache and memory stays in the measurement; that noise only
//! ever adds time, and the per-op lower decile deals with it.

use std::hint::black_box;
use std::time::Instant;

/// What the probe reads on the reference box at the slowest of its
/// clock steps, the one a core settles at while both are busy. Times
/// are reported as if the core ran at this step throughout.
pub const REFERENCE_PROBE_US: f64 = 48.5;

const SPIN_STEPS: u64 = 16_000;
const SPINS_PER_PROBE: usize = 3;

/// A chain of dependent shifts, xors and one division per step: no
/// memory, no parallelism for the core to find, so its time is a count
/// of cycles.
#[inline(never)]
fn spin(steps: u64) -> u64 {
    let mut s = 0x1234_5678_9abc_def0_u64;
    let mut acc = 0_u64;
    for i in 0..steps {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        acc = acc.wrapping_add(s % (i | 1));
    }
    acc
}

/// One reading of the core's clock, us: the fastest of three spins, so
/// that an interrupt in one of them does not read as a slow clock.
pub fn probe_us() -> f64 {
    (0..SPINS_PER_PROBE)
        .map(|_| {
            let t = Instant::now();
            black_box(spin(black_box(SPIN_STEPS)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// The factor that takes a time measured between two probe readings to
/// the reference clock: above 1 while the core ran faster than that.
pub fn to_reference(before_us: f64, after_us: f64) -> f64 {
    REFERENCE_PROBE_US / ((before_us + after_us) / 2.0)
}

/// A wall time, as measured and at the reference clock.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw_s: f64,
    pub at_ref_s: f64,
}

/// Run `f` between two probe readings.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let before = probe_us();
    let t = Instant::now();
    let value = f();
    let raw_s = t.elapsed().as_secs_f64();
    let after = probe_us();
    (value, Timed { raw_s, at_ref_s: raw_s * to_reference(before, after) })
}

/// Probe readings taken along a sequence of operations: one before
/// every `every`-th operation and one after the last.
#[derive(Debug, Default, Clone)]
pub struct Readings {
    pub every: usize,
    pub probes_us: Vec<f64>,
}

impl Readings {
    /// The factor for operation `i`: from the two readings around its
    /// group.
    pub fn factor(&self, i: usize) -> f64 {
        let group = i / self.every;
        to_reference(self.probes_us[group], self.probes_us[group + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_clock_leaves_a_time_alone() {
        assert_eq!(to_reference(REFERENCE_PROBE_US, REFERENCE_PROBE_US), 1.0);
    }

    #[test]
    fn a_faster_clock_stretches_the_time_and_a_slower_one_shrinks_it() {
        // The probe ran in four fifths of the reference time: the core is
        // a quarter faster, so the same cycles would take a quarter longer
        // at the reference clock.
        let fast = REFERENCE_PROBE_US * 0.8;
        assert!((to_reference(fast, fast) - 1.25).abs() < 1e-12);
        let slow = REFERENCE_PROBE_US * 2.0;
        assert!((to_reference(slow, slow) - 0.5).abs() < 1e-12);
        // A step between the two readings: the mean of both.
        assert!((to_reference(fast, REFERENCE_PROBE_US) - 1.0 / 0.9).abs() < 1e-12);
    }

    #[test]
    fn an_op_reads_the_probes_around_its_group() {
        let r = Readings { every: 4, probes_us: vec![48.5, 97.0, 48.5] };
        // Ops 0..4 sit between readings 0 and 1, ops 4..8 between 1 and 2.
        for i in 0..8 {
            assert!((r.factor(i) - 48.5 / 72.75).abs() < 1e-12, "op {i}");
        }
        let r = Readings { every: 4, probes_us: vec![48.5, 48.5, 97.0] };
        assert_eq!(r.factor(3), 1.0);
        assert!(r.factor(4) < 1.0);
    }

    #[test]
    fn the_spin_is_the_same_work_every_time() {
        assert_eq!(spin(1000), spin(1000));
        assert_ne!(spin(1000), spin(1001));
        let (value, t) = timed(|| spin(SPIN_STEPS));
        assert_eq!(value, spin(SPIN_STEPS));
        assert!(t.raw_s > 0.0 && t.at_ref_s > 0.0);
    }
}
