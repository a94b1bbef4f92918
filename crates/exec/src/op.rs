//! The shared work meter and per-query budget every operator polls.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a budgeted plan stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhausted {
    /// The wall-clock deadline passed.
    Deadline,
    /// The step (work-unit) quota ran out.
    Steps,
    /// The result-row quota ran out (enforced by the budgeted drivers).
    Rows,
    /// The cancellation token was raised (server shutdown, client gone).
    Cancelled,
    /// Budget starvation was injected by a fault schedule.
    Starved,
}

impl std::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Exhausted::Deadline => "deadline",
            Exhausted::Steps => "steps",
            Exhausted::Rows => "rows",
            Exhausted::Cancelled => "cancelled",
            Exhausted::Starved => "starved",
        };
        write!(f, "{s}")
    }
}

/// Resource limits for one query, threaded through [`Work`].
///
/// All limits are optional; a default budget is equivalent to no budget.
/// The cancellation token is the only cross-thread member: the serving
/// layer raises it from outside while the query thread polls it.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Maximum work units ([`Work::tick`] total).
    pub step_quota: Option<u64>,
    /// Maximum result rows counted via [`Work::count_row`].
    pub row_quota: Option<u64>,
    /// Cooperative cancellation token.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// How many ticks may pass between deadline / cancellation polls. Quota
/// checks are exact (every tick); clock reads and atomic loads are
/// amortized over this window: one default batch.
pub(crate) const POLL_EVERY: u64 = crate::batch::DEFAULT_BATCH_ROWS as u64;

#[derive(Debug)]
struct WorkInner {
    /// Work units so far (one unit ≈ one tuple touched or index probe).
    ticks: Cell<u64>,
    /// Result rows counted by the budgeted drivers.
    rows: Cell<u64>,
    /// Tick count at which the next deadline/cancel poll is due.
    next_poll: Cell<u64>,
    /// First budget violation, latched.
    exhausted: Cell<Option<Exhausted>>,
    /// `None` = pure meter (the historical behavior, bit-for-bit).
    budget: Option<Budget>,
}

/// Machine-independent work meter shared by all operators of a plan,
/// doubling as the cooperative budget checkpoint.
///
/// One unit ≈ one tuple touched or one index probe. The paper reports
/// wall-clock seconds on its DB2 testbed; we report both wall-clock and
/// this counter so the *shape* of Table 2 is reproducible independently
/// of the host machine.
///
/// A budgeted `Work` ([`Work::with_budget`]) additionally latches the
/// first violated limit: operators poll [`Work::interrupted`] at their
/// batch boundaries and surface exhaustion as end-of-stream, so a whole
/// operator stack winds down from one flag. The caller distinguishes "a
/// real end" from "ran out of budget" via [`Work::exhausted`]. An
/// unbudgeted `Work` never interrupts and adds no per-tick checks beyond
/// one `Option` discriminant test.
#[derive(Debug, Clone)]
pub struct Work(Rc<WorkInner>);

impl Default for Work {
    fn default() -> Self {
        Self::new()
    }
}

impl Work {
    /// Fresh unbudgeted counter at zero.
    pub fn new() -> Self {
        Work(Rc::new(WorkInner {
            ticks: Cell::new(0),
            rows: Cell::new(0),
            next_poll: Cell::new(0),
            exhausted: Cell::new(None),
            budget: None,
        }))
    }

    /// Fresh counter enforcing `budget`.
    ///
    /// The first tick polls the deadline and cancellation token, so an
    /// already-expired deadline interrupts before any real work.
    pub fn with_budget(budget: Budget) -> Self {
        Work(Rc::new(WorkInner {
            ticks: Cell::new(0),
            rows: Cell::new(0),
            next_poll: Cell::new(0),
            exhausted: Cell::new(None),
            budget: Some(budget),
        }))
    }

    /// Add `n` units, checking the budget if there is one.
    pub fn tick(&self, n: u64) {
        let inner = &*self.0;
        let t = inner.ticks.get() + n;
        inner.ticks.set(t);
        let Some(budget) = &inner.budget else {
            return;
        };
        if inner.exhausted.get().is_some() {
            return;
        }
        if let Some(q) = budget.step_quota {
            if t > q {
                inner.exhausted.set(Some(Exhausted::Steps));
                return;
            }
        }
        if t >= inner.next_poll.get() {
            inner.next_poll.set(t + POLL_EVERY);
            if let Some(token) = &budget.cancel {
                if token.load(Ordering::Relaxed) {
                    inner.exhausted.set(Some(Exhausted::Cancelled));
                    return;
                }
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "the deadline poll: a wall-clock read that can only stop work (a Deadline exhaustion), never shape an answer"
            )]
            if let Some(deadline) = budget.deadline {
                if Instant::now() >= deadline {
                    inner.exhausted.set(Some(Exhausted::Deadline));
                }
            }
        }
    }

    /// Current work-unit total.
    pub fn get(&self) -> u64 {
        self.0.ticks.get()
    }

    /// Count one emitted result row against the row quota. Used by the
    /// budgeted drivers, not by operators.
    pub fn count_row(&self) {
        let inner = &*self.0;
        let r = inner.rows.get() + 1;
        inner.rows.set(r);
        if let Some(budget) = &inner.budget {
            if inner.exhausted.get().is_none() {
                if let Some(q) = budget.row_quota {
                    if r > q {
                        inner.exhausted.set(Some(Exhausted::Rows));
                    }
                }
            }
        }
    }

    /// True once any budget limit has been violated. A pure meter
    /// ([`Work::new`]) always answers `false`.
    pub fn interrupted(&self) -> bool {
        self.0.exhausted.get().is_some()
    }

    /// The first violated limit, if any.
    pub fn exhausted(&self) -> Option<Exhausted> {
        self.0.exhausted.get()
    }

    /// Latch [`Exhausted::Starved`] — the hook fault injection uses to
    /// simulate budget exhaustion without waiting out a real deadline.
    /// A no-op on an unbudgeted meter (plain catalog-equivalence runs
    /// cannot be starved into divergence).
    pub fn starve(&self) {
        let inner = &*self.0;
        if inner.budget.is_some() && inner.exhausted.get().is_none() {
            inner.exhausted.set(Some(Exhausted::Starved));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Batch, BatchOperator};

    struct Empty;
    impl<'a> BatchOperator<'a> for Empty {
        fn next_batch(&mut self) -> Option<Batch<'a>> {
            None
        }
        fn rewind(&mut self) {}
    }

    #[test]
    fn work_accumulates() {
        let w = Work::new();
        let w2 = w.clone();
        w.tick(3);
        w2.tick(4);
        assert_eq!(w.get(), 7);
    }

    #[test]
    #[should_panic(expected = "non-grouped operator")]
    fn default_advance_panics() {
        Empty.advance_to_next_group();
    }

    #[test]
    fn unbudgeted_work_never_interrupts() {
        let w = Work::new();
        w.tick(u64::MAX / 2);
        w.count_row();
        w.starve();
        assert!(!w.interrupted());
        assert_eq!(w.exhausted(), None);
    }

    #[test]
    fn step_quota_latches_steps() {
        let w = Work::with_budget(Budget { step_quota: Some(10), ..Budget::default() });
        w.tick(10);
        assert!(!w.interrupted(), "quota is inclusive");
        w.tick(1);
        assert_eq!(w.exhausted(), Some(Exhausted::Steps));
        // Latched: later ticks don't change the reason.
        w.tick(100);
        assert_eq!(w.exhausted(), Some(Exhausted::Steps));
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "builds a deadline that has already passed")]
    fn expired_deadline_interrupts_on_first_tick() {
        let w = Work::with_budget(Budget {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..Budget::default()
        });
        assert!(!w.interrupted(), "no poll before the first tick");
        w.tick(1);
        assert_eq!(w.exhausted(), Some(Exhausted::Deadline));
    }

    #[test]
    fn cancellation_token_is_polled() {
        let token = Arc::new(AtomicBool::new(false));
        let w = Work::with_budget(Budget { cancel: Some(token.clone()), ..Budget::default() });
        w.tick(1);
        assert!(!w.interrupted());
        token.store(true, Ordering::Relaxed);
        // The next poll window boundary notices the token.
        w.tick(POLL_EVERY + 1);
        assert_eq!(w.exhausted(), Some(Exhausted::Cancelled));
    }

    #[test]
    fn row_quota_counts_driver_rows() {
        let w = Work::with_budget(Budget { row_quota: Some(2), ..Budget::default() });
        w.count_row();
        w.count_row();
        assert!(!w.interrupted());
        w.count_row();
        assert_eq!(w.exhausted(), Some(Exhausted::Rows));
    }

    #[test]
    fn starve_latches_on_budgeted_work() {
        let w = Work::with_budget(Budget::default());
        w.starve();
        assert_eq!(w.exhausted(), Some(Exhausted::Starved));
    }
}
