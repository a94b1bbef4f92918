//! Deterministic fault injection: named fail points with seeded
//! schedules.
//!
//! The serving layer's robustness claims ("a poisoned query never takes
//! down the server", "budget exhaustion degrades, it does not hang") are
//! only testable if faults can be *produced on demand*. This module is
//! the production half of that bargain: code under test calls
//! [`fire`] at named sites, and a test arms the registry with a
//! deterministic schedule of panics, delays, and budget starvation.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when compiled out.** Without the `failpoints` cargo
//!    feature, [`fire`] is an `#[inline(always)]` empty function — the
//!    optimizer erases the call and the site's match arm entirely.
//!    Workspace builds enable the feature through `ts-server`'s
//!    dependency (cargo feature unification), so the whole test suite
//!    exercises the instrumented code; an embedding that depends on the
//!    individual crates alone compiles the registry away.
//! 2. **Cheap when compiled in but disarmed.** The fast path is one
//!    relaxed atomic load — no lock, no map lookup — so per-tuple sites
//!    in the execution engine stay affordable.
//! 3. **Deterministic given a seed.** [`arm_seeded`] derives every
//!    site's schedule from a SplitMix64 stream, so a failing storm test
//!    reproduces from its seed alone. (Cross-thread *interleaving* is
//!    still scheduler-dependent; invariant-style assertions — "every
//!    query got a well-formed answer" — hold under any interleaving.)
//!
//! The registry is process-global. Tests that arm it must serialize
//! themselves (a `static Mutex` in the test binary) and disarm when
//! done.

/// What an armed fail point does when its schedule comes due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (exercises `catch_unwind` isolation).
    Panic,
    /// Sleep for the given number of milliseconds (exercises deadlines
    /// and queue backpressure).
    Delay(u64),
    /// Ask the *caller* to starve the current budget (exercises the
    /// degrade ladder without waiting out a real deadline).
    Starve,
}

/// What the caller of [`fire`] must do. Panics and delays are applied
/// inside [`fire`] itself; starvation needs the caller's budget handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a Starve action must be applied to the caller's budget"]
pub enum FireAction {
    /// Nothing due (or the fault was applied internally).
    Proceed,
    /// Mark the current work budget starved.
    Starve,
}

/// When an armed site fires: hit indexes `i` with `i % period == offset`,
/// for at most `budget` fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// The injected fault.
    pub kind: FaultKind,
    /// Fire every `period`-th hit (must be ≥ 1).
    pub period: u64,
    /// Phase within the period.
    pub offset: u64,
    /// Maximum number of fires (`None` = unlimited).
    pub budget: Option<u64>,
}

/// The registered fail-point sites, one constant per call site family.
pub mod sites {
    /// Per-source worker loop of the offline catalog build.
    pub const CORE_COMPUTE_WORKER: &str = "core.compute.worker";
    /// Entry of a method evaluation (after validation, before the plan).
    pub const CORE_METHOD_EVAL: &str = "core.method.eval";
    /// Table/values scan `next()`.
    pub const EXEC_SCAN: &str = "exec.scan";
    /// Hash-join build loop.
    pub const EXEC_JOIN_BUILD: &str = "exec.join.build";
    /// DGJ probe/expand step.
    pub const EXEC_DGJ_PROBE: &str = "exec.dgj.probe";
    /// Sort operator buffer fill.
    pub const EXEC_SORT_FILL: &str = "exec.sort.fill";
    /// Budgeted driver collection loop.
    pub const EXEC_DRIVER_LOOP: &str = "exec.driver.loop";
    /// Server worker, per admitted job.
    pub const SERVER_WORKER: &str = "server.worker";
    /// Server admission path (delay/starve only by convention: it runs
    /// on the caller's thread, outside any panic isolation).
    pub const SERVER_ADMIT: &str = "server.admit";

    /// Every registered site, in a fixed order.
    pub fn all() -> &'static [&'static str] {
        &[
            CORE_COMPUTE_WORKER,
            CORE_METHOD_EVAL,
            EXEC_SCAN,
            EXEC_JOIN_BUILD,
            EXEC_DGJ_PROBE,
            EXEC_SORT_FILL,
            EXEC_DRIVER_LOOP,
            SERVER_WORKER,
            SERVER_ADMIT,
        ]
    }
}

/// True when the registry is compiled into this build (the `failpoints`
/// feature). Tests gate on this rather than silently passing.
pub const fn compiled_in() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
mod imp {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};
    use std::time::Duration;

    use super::{FaultKind, FireAction, Schedule};
    use crate::FastMap;

    struct SiteState {
        schedule: Schedule,
        /// Calls to `fire` for this site since arming.
        hits: u64,
        /// Faults actually injected.
        fired: u64,
    }

    /// Fast-path gate: one relaxed load decides "nothing armed".
    static ARMED: AtomicBool = AtomicBool::new(false);

    fn registry() -> MutexGuard<'static, FastMap<&'static str, SiteState>> {
        static REG: OnceLock<Mutex<FastMap<&'static str, SiteState>>> = OnceLock::new();
        // An injected panic can poison the lock mid-`fire`; the map is
        // valid after any partial update, so recover the guard.
        REG.get_or_init(|| Mutex::new(FastMap::default()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Resolve `site` to its static name so the registry key never
    /// borrows from the caller.
    fn static_site(site: &str) -> Option<&'static str> {
        super::sites::all().iter().find(|s| **s == site).copied()
    }

    pub fn fire(site: &str) -> FireAction {
        if !ARMED.load(Ordering::Relaxed) {
            return FireAction::Proceed;
        }
        let due = {
            let mut reg = registry();
            let Some(state) = reg.get_mut(site) else {
                return FireAction::Proceed;
            };
            let hit = state.hits;
            state.hits += 1;
            let s = &state.schedule;
            let due = hit % s.period == s.offset && s.budget.is_none_or(|b| state.fired < b);
            if !due {
                return FireAction::Proceed;
            }
            state.fired += 1;
            s.kind
            // Lock released here: a panic below must not poison it, and
            // a delay must not serialize every other site.
        };
        match due {
            #[expect(
                clippy::panic,
                reason = "panicking is this fault kind's entire job; every production call site sits under documented isolation"
            )]
            FaultKind::Panic => panic!("injected fault at fail point `{site}`"),
            FaultKind::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                FireAction::Proceed
            }
            FaultKind::Starve => FireAction::Starve,
        }
    }

    pub fn arm(site: &str, schedule: Schedule) {
        assert!(schedule.period >= 1, "fail-point period must be >= 1");
        #[expect(
            clippy::panic,
            reason = "arming an unregistered site is a test harness bug; failing loudly beats silently injecting nothing"
        )]
        let Some(key) = static_site(site) else {
            panic!("unknown fail-point site `{site}`; register it in faults::sites");
        };
        registry().insert(key, SiteState { schedule, hits: 0, fired: 0 });
        ARMED.store(true, Ordering::SeqCst);
    }

    pub fn disarm_all() {
        ARMED.store(false, Ordering::SeqCst);
        registry().clear();
    }

    pub fn fire_counts() -> Vec<(&'static str, u64, u64)> {
        let reg = registry();
        let mut out: Vec<(&'static str, u64, u64)> = super::sites::all()
            .iter()
            .filter_map(|s| reg.get(s).map(|st| (*s, st.hits, st.fired)))
            .collect();
        out.sort_unstable();
        out
    }

    /// SplitMix64 step — the repo's standard seeded stream.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn arm_seeded(seed: u64) {
        let mut s = seed;
        for site in super::sites::all() {
            let r = splitmix(&mut s);
            let schedule = if site.starts_with("exec.") {
                // Per-tuple sites: long period, tight budget, or a
                // storm would fire thousands of faults per query.
                Schedule {
                    kind: kind_from(r, /* allow_panic */ true),
                    period: 257 + (r >> 12) % 512,
                    offset: (r >> 24) % 257,
                    budget: Some(2 + (r >> 40) % 3),
                }
            } else if *site == super::sites::SERVER_ADMIT {
                // Admission runs on the caller's thread, outside panic
                // isolation: inject only delays and starvation there.
                Schedule {
                    kind: if r & 1 == 0 { FaultKind::Delay(1) } else { FaultKind::Starve },
                    period: 5 + (r >> 12) % 7,
                    offset: (r >> 24) % 5,
                    budget: Some(8 + (r >> 40) % 8),
                }
            } else {
                // Per-job / per-source sites.
                Schedule {
                    kind: kind_from(r, true),
                    period: 3 + (r >> 12) % 5,
                    offset: (r >> 24) % 3,
                    budget: Some(4 + (r >> 40) % 8),
                }
            };
            arm(site, schedule);
        }
    }

    fn kind_from(r: u64, allow_panic: bool) -> FaultKind {
        match (r >> 4) % 3 {
            0 if allow_panic => FaultKind::Panic,
            0 | 1 => FaultKind::Delay(1 + (r >> 16) % 2),
            _ => FaultKind::Starve,
        }
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{arm, arm_seeded, disarm_all, fire, fire_counts};

#[cfg(not(feature = "failpoints"))]
mod imp_off {
    use super::{FireAction, Schedule};

    /// Compiled-out fast path: the optimizer erases the call.
    #[inline(always)]
    pub fn fire(_site: &str) -> FireAction {
        FireAction::Proceed
    }

    #[inline(always)]
    pub fn arm(_site: &str, _schedule: Schedule) {}

    #[inline(always)]
    pub fn arm_seeded(_seed: u64) {}

    #[inline(always)]
    pub fn disarm_all() {}

    #[inline(always)]
    pub fn fire_counts() -> Vec<(&'static str, u64, u64)> {
        Vec::new()
    }
}

#[cfg(not(feature = "failpoints"))]
pub use imp_off::{arm, arm_seeded, disarm_all, fire, fire_counts};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; tests in this module serialize.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_fire_is_a_no_op() {
        let _g = guard();
        disarm_all();
        assert_eq!(fire(sites::EXEC_SCAN), FireAction::Proceed);
        assert!(fire_counts().is_empty());
    }

    #[test]
    fn schedule_period_offset_and_budget() {
        let _g = guard();
        disarm_all();
        arm(
            sites::EXEC_DRIVER_LOOP,
            Schedule { kind: FaultKind::Starve, period: 3, offset: 1, budget: Some(2) },
        );
        let got: Vec<FireAction> = (0..9).map(|_| fire(sites::EXEC_DRIVER_LOOP)).collect();
        // Hits 1 and 4 fire; hit 7 is due but the budget is spent.
        let fired: Vec<usize> = got
            .iter()
            .enumerate()
            .filter(|(_, a)| **a == FireAction::Starve)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(fired, vec![1, 4]);
        assert_eq!(fire_counts(), vec![(sites::EXEC_DRIVER_LOOP, 9, 2)]);
        disarm_all();
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test asserts that an armed Panic site panics"
    )]
    fn panic_kind_panics_and_recovers() {
        let _g = guard();
        disarm_all();
        arm(
            sites::CORE_METHOD_EVAL,
            Schedule { kind: FaultKind::Panic, period: 1, offset: 0, budget: Some(1) },
        );
        let r = std::panic::catch_unwind(|| fire(sites::CORE_METHOD_EVAL));
        assert!(r.is_err(), "armed Panic site must panic");
        // The registry survives the panic (no poisoned-lock propagation).
        assert_eq!(fire(sites::CORE_METHOD_EVAL), FireAction::Proceed);
        disarm_all();
    }

    #[test]
    fn seeded_schedules_are_reproducible() {
        let _g = guard();
        disarm_all();
        arm_seeded(0xDEAD_BEEF);
        let c1 = fire_counts();
        assert_eq!(c1.len(), sites::all().len(), "every site gets a schedule");
        disarm_all();
        arm_seeded(0xDEAD_BEEF);
        assert_eq!(fire_counts().len(), c1.len());
        disarm_all();
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the test asserts that arming an unknown site panics"
    )]
    fn unknown_site_rejected() {
        let _g = guard();
        disarm_all();
        let r = std::panic::catch_unwind(|| {
            arm(
                "no.such.site",
                Schedule { kind: FaultKind::Starve, period: 1, offset: 0, budget: None },
            )
        });
        assert!(r.is_err());
        disarm_all();
    }
}
