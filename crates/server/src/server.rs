//! The server proper: bounded admission, budgeted evaluation on shared
//! snapshots, graceful degradation, and per-query panic isolation.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ts_core::{panic_detail, EvalOutcome, Exhausted, Method, QueryError, Snapshot, TopologyQuery};
use ts_exec::{Budget, Work};
use ts_storage::faults::{self, sites, FireAction};

/// Per-query resource limits, all optional. `None` everywhere means the
/// query runs exactly like the historical unbudgeted path.
#[derive(Debug, Clone, Default)]
pub struct BudgetSpec {
    /// Wall-clock deadline in milliseconds, measured from *admission*
    /// (time spent queued counts against it).
    pub deadline_ms: Option<u64>,
    /// Maximum work units (tuples touched + index probes).
    pub step_quota: Option<u64>,
    /// Maximum result rows.
    pub row_quota: Option<u64>,
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads evaluating queries.
    pub workers: usize,
    /// Bounded queue capacity; a submit beyond it is shed.
    pub queue_cap: usize,
    /// Budget applied by [`Server::submit`] (override per query with
    /// [`Server::submit_with`]).
    pub default_budget: BudgetSpec,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { workers: 4, queue_cap: 64, default_budget: BudgetSpec::default() }
    }
}

/// Why a submission was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The bounded queue is full; try again after the hint.
    Overloaded {
        /// Estimated milliseconds until capacity frees up, from the
        /// observed mean service time and current queue depth.
        retry_after_ms: u64,
        /// Queue depth observed at rejection.
        queue_depth: usize,
    },
    /// The server is shutting down and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Overloaded { retry_after_ms, queue_depth } => {
                write!(f, "overloaded: queue depth {queue_depth}, retry after ~{retry_after_ms} ms")
            }
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServerError {}

/// The terminal state of one admitted query. Every admitted query gets
/// exactly one of these — a panic, an injected fault, or an exhausted
/// budget never silently loses a response.
#[derive(Debug)]
pub enum QueryResponse {
    /// Ran to completion under budget.
    Ok(EvalOutcome),
    /// The budget tripped; `partial` holds what was computed in time.
    Degraded {
        /// Partial (or fallback) result.
        partial: EvalOutcome,
        /// The limit that tripped first.
        reason: Exhausted,
        /// `Some(m)` when the worker degraded to the cheap baseline
        /// method `m` after the requested method blew its step quota.
        fell_back: Option<Method>,
    },
    /// The query failed validation and never ran.
    Rejected(QueryError),
    /// The query panicked (worker survived) or was dropped unrun at
    /// shutdown; the string is the panic payload / drop reason.
    Failed(String),
}

impl QueryResponse {
    /// The outcome carried by an `Ok` or `Degraded` response.
    pub fn outcome(&self) -> Option<&EvalOutcome> {
        match self {
            QueryResponse::Ok(o) => Some(o),
            QueryResponse::Degraded { partial, .. } => Some(partial),
            _ => None,
        }
    }
}

/// Monotonic serving counters (a consistent-enough snapshot; individual
/// counters are exact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Admission attempts (including shed ones).
    pub submitted: u64,
    /// Refused with [`ServerError::Overloaded`].
    pub shed: u64,
    /// Completed with [`QueryResponse::Ok`].
    pub ok: u64,
    /// Completed with [`QueryResponse::Degraded`].
    pub degraded: u64,
    /// Completed with [`QueryResponse::Rejected`].
    pub rejected: u64,
    /// Completed with [`QueryResponse::Failed`] (isolated panics).
    pub failed: u64,
    /// Total worker-busy microseconds across completed queries.
    pub busy_us: u64,
}

impl Stats {
    /// Queries that received a response.
    pub fn completed(&self) -> u64 {
        self.ok + self.degraded + self.rejected + self.failed
    }
}

#[derive(Debug, Default)]
struct StatCells {
    submitted: AtomicU64,
    shed: AtomicU64,
    ok: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    busy_us: AtomicU64,
}

struct Job {
    method: Method,
    query: TopologyQuery,
    spec: BudgetSpec,
    admitted: Instant,
    reply: mpsc::Sender<QueryResponse>,
}

struct Shared {
    snapshot: RwLock<Arc<Snapshot>>,
    epoch: AtomicU64,
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    shutdown: AtomicBool,
    cancel: Arc<AtomicBool>,
    workers: usize,
    queue_cap: usize,
    stats: StatCells,
}

/// Recover a poisoned mutex: the payload is plain data and every
/// invariant is re-established by the next state transition, so a
/// poisoned lock only means some query panicked — which is exactly the
/// event the server is built to survive.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The cheap, predictable baseline to degrade to when an expensive
/// method blows its step quota: the single precomputed-join methods of
/// §3.2/§5.1. `None` when the requested method *is* the baseline.
fn fallback(m: Method) -> Option<Method> {
    match m {
        Method::FullTop | Method::FullTopK => None,
        m if m.is_topk() => Some(Method::FullTopK),
        _ => Some(Method::FullTop),
    }
}

/// An embedded multi-threaded query service over immutable snapshots.
///
/// Dropping the server performs a graceful shutdown (drain the queue,
/// join the workers); use [`Server::shutdown`] to also collect the
/// report.
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    default_budget: BudgetSpec,
}

/// What [`Server::shutdown`] observed while winding down.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Panic payloads of worker *threads* that died outside the
    /// per-query isolation boundary. Always empty unless the worker
    /// loop itself is buggy — per-query panics land in
    /// [`QueryResponse::Failed`] instead.
    pub worker_panics: Vec<String>,
    /// Final counters.
    pub stats: Stats,
}

/// A handle to one admitted query.
pub struct Ticket {
    rx: mpsc::Receiver<QueryResponse>,
    epoch: u64,
}

impl Ticket {
    /// Block until the response arrives. A query dropped unrun (server
    /// shut down with [`Server::shutdown_now`]) yields a `Failed`
    /// response rather than an error type of its own.
    pub fn wait(self) -> QueryResponse {
        self.rx.recv().unwrap_or_else(|_| {
            QueryResponse::Failed("dropped before a worker ran it (server shut down)".to_string())
        })
    }

    /// Like [`Ticket::wait`] with a timeout; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<QueryResponse> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// The publication epoch current when this query was admitted.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Server {
    /// Spawn `config.workers` workers over the initial snapshot.
    pub fn new(snapshot: Snapshot, config: ServerConfig) -> Server {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(snapshot.epoch),
            snapshot: RwLock::new(Arc::new(snapshot)),
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cancel: Arc::new(AtomicBool::new(false)),
            workers,
            queue_cap: config.queue_cap.max(1),
            stats: StatCells::default(),
        });
        #[expect(
            clippy::expect_used,
            reason = "spawn fails only on OS thread exhaustion at server construction, before any query is accepted; aborting startup is correct"
        )]
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ts-server-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a server worker thread")
            })
            .collect();
        Server { shared, handles, default_budget: config.default_budget }
    }

    /// Submit under the configured default budget.
    pub fn submit(&self, method: Method, query: TopologyQuery) -> Result<Ticket, ServerError> {
        self.submit_with(method, query, self.default_budget.clone())
    }

    /// Submit with an explicit per-query budget.
    pub fn submit_with(
        &self,
        method: Method,
        query: TopologyQuery,
        spec: BudgetSpec,
    ) -> Result<Ticket, ServerError> {
        let shared = &self.shared;
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServerError::ShuttingDown);
        }
        // Injected admission faults: Delay (applied inside `fire`)
        // models a stalled admission path; Starve models an upstream
        // shed decision.
        if let FireAction::Starve = faults::fire(sites::SERVER_ADMIT) {
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            let depth = lock(&shared.queue).len();
            return Err(ServerError::Overloaded {
                retry_after_ms: self.retry_after_ms(depth),
                queue_depth: depth,
            });
        }
        let (tx, rx) = mpsc::channel();
        #[expect(
            clippy::disallowed_methods,
            reason = "admission time: it starts the query's deadline and queue-wait clock, and never reaches an answer"
        )]
        let job = Job { method, query, spec, admitted: Instant::now(), reply: tx };
        {
            let mut q = lock(&shared.queue);
            if q.len() >= shared.queue_cap {
                shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                let depth = q.len();
                drop(q);
                return Err(ServerError::Overloaded {
                    retry_after_ms: self.retry_after_ms(depth),
                    queue_depth: depth,
                });
            }
            q.push_back(job);
        }
        shared.cv.notify_one();
        Ok(Ticket { rx, epoch: shared.epoch.load(Ordering::Acquire) })
    }

    /// Publish a rebuilt snapshot: epoch bumps, the `Arc` swaps, and
    /// in-flight queries finish on the snapshot they started with.
    /// Returns the new epoch.
    pub fn publish(&self, mut snapshot: Snapshot) -> u64 {
        let epoch = self.shared.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        snapshot.epoch = epoch;
        let arc = Arc::new(snapshot);
        *self.shared.snapshot.write().unwrap_or_else(|p| p.into_inner()) = arc;
        epoch
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.snapshot.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// The current publication epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Current counters.
    pub fn stats(&self) -> Stats {
        let s = &self.shared.stats;
        Stats {
            submitted: s.submitted.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            ok: s.ok.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            busy_us: s.busy_us.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: admit nothing new, drain the queue, join the
    /// workers.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.wind_down()
    }

    /// Immediate shutdown: additionally raises the server-wide
    /// cancellation token (in-flight budgeted queries trip `Cancelled`
    /// at their next poll) and drops everything still queued (their
    /// tickets resolve to `Failed`).
    pub fn shutdown_now(mut self) -> ShutdownReport {
        self.shared.cancel.store(true, Ordering::Release);
        lock(&self.shared.queue).clear();
        self.wind_down()
    }

    fn wind_down(&mut self) -> ShutdownReport {
        // Raise the flag under the queue lock. A worker holds that lock
        // from finding the queue empty and the flag down until it is
        // parked on the condvar, so it either sees the flag or is parked
        // in time for the notification; raised outside the lock, the
        // flag could slip into that gap and the worker park forever.
        {
            let _queue = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.cv.notify_all();
        let mut worker_panics = Vec::new();
        for h in self.handles.drain(..) {
            #[expect(
                clippy::disallowed_methods,
                reason = "a dead worker is reported in ShutdownReport::worker_panics, not re-raised"
            )]
            if let Err(payload) = h.join() {
                worker_panics.push(panic_detail(payload));
            }
        }
        ShutdownReport { worker_panics, stats: self.stats() }
    }

    fn retry_after_ms(&self, queue_depth: usize) -> u64 {
        let stats = self.stats();
        let avg_us = stats.busy_us.checked_div(stats.completed()).unwrap_or(2_000);
        ((queue_depth as u64).saturating_mul(avg_us) / (self.shared.workers as u64).max(1) / 1_000)
            .max(1)
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("epoch", &self.epoch())
            .field("queue_depth", &self.queue_depth())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            self.wind_down();
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = next_job(shared) {
        let snap = shared.snapshot.read().unwrap_or_else(|p| p.into_inner()).clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "service-time statistic (Stats::busy_us) only; it never reaches an answer"
        )]
        let started = Instant::now();
        #[expect(
            clippy::disallowed_methods,
            reason = "the per-query isolation boundary — anything the evaluation panics with (including every injected `faults` panic) becomes a Failed response for this one caller; AssertUnwindSafe is sound because `snap` is immutable shared state and `job`'s meter is freshly created inside the closure, so nothing mutated before the panic is observed afterwards"
        )]
        let resp = catch_unwind(AssertUnwindSafe(|| process(shared, &snap, &job)))
            .unwrap_or_else(|payload| QueryResponse::Failed(panic_detail(payload)));
        let cell = match &resp {
            QueryResponse::Ok(_) => &shared.stats.ok,
            QueryResponse::Degraded { .. } => &shared.stats.degraded,
            QueryResponse::Rejected(_) => &shared.stats.rejected,
            QueryResponse::Failed(_) => &shared.stats.failed,
        };
        cell.fetch_add(1, Ordering::Relaxed);
        shared.stats.busy_us.fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        // The caller may have stopped waiting; a closed channel is fine.
        let _ = job.reply.send(resp);
    }
}

/// How long a worker that finds the queue empty keeps looking (yielding
/// its core between looks) before it parks on the condvar. While jobs
/// arrive more often than this the worker never parks, so a submit pays
/// no thread wake-up and the scheduler has no wake-up at which to move
/// the worker onto the submitter's core; an idle server parks after one
/// such interval, as before.
const LINGER: Duration = Duration::from_micros(500);

fn next_job(shared: &Shared) -> Option<Job> {
    #[expect(
        clippy::disallowed_methods,
        reason = "starts the linger window; it only decides when an idle worker parks"
    )]
    let idle_since = Instant::now();
    let mut q = lock(&shared.queue);
    loop {
        if let Some(job) = q.pop_front() {
            return Some(job);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if idle_since.elapsed() < LINGER {
            drop(q);
            std::thread::yield_now();
            q = lock(&shared.queue);
        } else {
            q = shared.cv.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }
}

fn budget_for(shared: &Shared, job: &Job) -> Budget {
    Budget {
        deadline: job.spec.deadline_ms.map(|ms| job.admitted + Duration::from_millis(ms)),
        step_quota: job.spec.step_quota,
        row_quota: job.spec.row_quota,
        cancel: Some(Arc::clone(&shared.cancel)),
    }
}

fn process(shared: &Shared, snap: &Snapshot, job: &Job) -> QueryResponse {
    let work = Work::with_budget(budget_for(shared, job));
    if let FireAction::Starve = faults::fire(sites::SERVER_WORKER) {
        work.starve();
    }
    let ctx = snap.ctx();
    let outcome = match job.method.try_eval_with(&ctx, &job.query, work) {
        Err(e) => return QueryResponse::Rejected(e),
        Ok(o) => o,
    };
    let reason = match outcome.exhausted {
        None => return QueryResponse::Ok(outcome),
        Some(r) => r,
    };
    // Degrade ladder: a blown *step* quota (or injected starvation) on
    // an expensive method is the planner's bet failing, so retry once
    // on the cheap precomputed-join baseline with a fresh quota but the
    // ORIGINAL deadline — wall-clock promises survive degradation. A
    // blown deadline / row quota / cancellation keeps the partial.
    if matches!(reason, Exhausted::Steps | Exhausted::Starved) {
        if let Some(fb) = fallback(job.method) {
            let fresh = Work::with_budget(budget_for(shared, job));
            if let Ok(second) = fb.try_eval_with(&ctx, &job.query, fresh) {
                let reason = second.exhausted.unwrap_or(reason);
                return QueryResponse::Degraded { partial: second, reason, fell_back: Some(fb) };
            }
        }
    }
    QueryResponse::Degraded { partial: outcome, reason, fell_back: None }
}
