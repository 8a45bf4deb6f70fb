//! Resource governance for the Halpern–Moses engine.
//!
//! The paper's analyses quantify over *all* runs of a protocol, and the
//! run spaces explode combinatorially — agreement at `n = 4, f = 2` is
//! already tens of thousands of runs. Every expensive phase of the
//! pipeline (run enumeration, interpreted-system construction,
//! bisimulation minimization, fixed-point evaluation) therefore accepts a
//! cooperative [`Budget`] derived from a caller-facing [`Limits`]
//! description: run/world/step ceilings, a wall-clock deadline, and a
//! [`CancelToken`]. Exhaustion surfaces as the typed [`LimitExceeded`]
//! error — phases never panic and never abort the process.
//!
//! The budget is *cooperative and amortized*: hot loops call
//! [`Budget::tick`], which is a counter decrement on the happy path and
//! only consults the shared atomics/clock every [`CHECK_EVERY`]
//! iterations, so governed loops pay roughly nothing over ungoverned
//! ones. An unlimited budget ([`Budget::unlimited`]) skips even that.
//!
//! [`run_jobs`] runs the independent jobs of one phase on scoped worker
//! threads, each worker polling its own clone of the phase's budget, and
//! joins them all before it returns.
//!
//! The [`failpoints`] module provides deterministic fault injection at
//! phase boundaries (in the spirit of the `fail` crate): compiled to a
//! no-op unless the `failpoints` feature is enabled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod failpoints;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How many [`Budget::tick`] calls are batched locally before the shared
/// counters, cancellation flag and deadline are consulted.
pub const CHECK_EVERY: u32 = 1024;

/// A cooperative cancellation flag, cloneable across threads.
///
/// Cancelling is a one-way latch: once [`cancel`](CancelToken::cancel) is
/// called, every [`Budget`] built from a [`Limits`] carrying a clone of
/// the token reports [`Resource::Cancelled`] at its next check.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Latches the token: all holders observe cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`cancel`](Self::cancel) has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CancelToken")
            .field(&self.is_cancelled())
            .finish()
    }
}

/// The resource whose limit was exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The run budget ([`Limits::max_runs`]).
    Runs,
    /// The world/point budget ([`Limits::max_worlds`]).
    Worlds,
    /// The visited-state budget ([`Limits::max_states_visited`]).
    StatesVisited,
    /// The wall-clock deadline ([`Limits::timeout`] / [`Limits::deadline`]).
    Deadline,
    /// The [`CancelToken`] was latched.
    Cancelled,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::Runs => "run budget",
            Resource::Worlds => "world budget",
            Resource::StatesVisited => "state budget",
            Resource::Deadline => "deadline",
            Resource::Cancelled => "cancellation",
        })
    }
}

/// The pipeline phase in which a limit was hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Adversarial run enumeration (`hm-netsim`, scenario constructors).
    Enumerate,
    /// Interpreted-system construction (`hm-runs`).
    Build,
    /// Bisimulation refinement (`hm-kripke`).
    Minimize,
    /// Compiled or interval formula evaluation (`hm-logic`).
    Eval,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Enumerate => "enumeration",
            Phase::Build => "interpreted-system build",
            Phase::Minimize => "minimization",
            Phase::Eval => "evaluation",
        })
    }
}

/// A resource limit was exceeded (or the work was cancelled).
///
/// `spent`/`limit` are in the unit of the resource: runs, worlds, visited
/// states, or milliseconds for [`Resource::Deadline`]; both are zero for
/// [`Resource::Cancelled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LimitExceeded {
    /// Which limit was hit.
    pub resource: Resource,
    /// Which phase was running when it was hit.
    pub phase: Phase,
    /// Amount consumed when the check fired.
    pub spent: u64,
    /// The configured ceiling.
    pub limit: u64,
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Cancelled => write!(f, "cancelled during {}", self.phase),
            Resource::Deadline => write!(
                f,
                "deadline exceeded during {} ({} ms elapsed, limit {} ms)",
                self.phase, self.spent, self.limit
            ),
            r => write!(
                f,
                "{r} exceeded during {} ({} spent, limit {})",
                self.phase, self.spent, self.limit
            ),
        }
    }
}

impl std::error::Error for LimitExceeded {}

/// Caller-facing description of resource limits for one engine
/// invocation. Convert to a live [`Budget`] with [`Limits::budget`],
/// which anchors the relative [`timeout`](Limits::timeout) to "now".
///
/// All fields default to unlimited; [`Limits::none`] is the explicit
/// spelling of that.
#[derive(Debug, Clone, Default)]
pub struct Limits {
    max_runs: Option<u64>,
    max_worlds: Option<u64>,
    max_states_visited: Option<u64>,
    timeout: Option<Duration>,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    allow_partial: bool,
}

impl Limits {
    /// No limits at all (the default).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Cap the number of runs enumerated/executed.
    #[must_use]
    pub fn max_runs(mut self, n: u64) -> Self {
        self.max_runs = Some(n);
        self
    }

    /// Cap the number of worlds (points) an interpreted system may have.
    /// Always a hard error, even under [`allow_partial`](Self::allow_partial).
    #[must_use]
    pub fn max_worlds(mut self, n: u64) -> Self {
        self.max_worlds = Some(n);
        self
    }

    /// Cap the total number of states visited across governed loops
    /// (evaluation steps, refinement signatures, build iterations).
    #[must_use]
    pub fn max_states_visited(mut self, n: u64) -> Self {
        self.max_states_visited = Some(n);
        self
    }

    /// Relative wall-clock budget, anchored when [`budget`](Self::budget)
    /// is called (so one timeout covers every phase of an invocation).
    #[must_use]
    pub fn timeout(mut self, d: Duration) -> Self {
        self.timeout = Some(d);
        self
    }

    /// Absolute wall-clock deadline; combined with
    /// [`timeout`](Self::timeout), whichever is sooner wins.
    #[must_use]
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Attach a cancellation token.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Graceful degradation: instead of failing, enumeration that runs
    /// out of run budget (or time) *truncates* — the resulting system is
    /// flagged partial and downstream answers become three-valued.
    /// World/state ceilings stay hard errors.
    #[must_use]
    pub fn allow_partial(mut self, yes: bool) -> Self {
        self.allow_partial = yes;
        self
    }

    /// `true` when no ceiling, deadline or token is configured.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_runs.is_none()
            && self.max_worlds.is_none()
            && self.max_states_visited.is_none()
            && self.timeout.is_none()
            && self.deadline.is_none()
            && self.cancel.is_none()
    }

    /// Anchors the limits into a live [`Budget`]. The relative
    /// [`timeout`](Self::timeout) starts counting here.
    #[must_use]
    pub fn budget(&self) -> Budget {
        if self.is_unlimited() {
            return Budget::unlimited();
        }
        let now = Instant::now();
        let at = match (self.deadline, self.timeout.map(|d| now + d)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let deadline = at.map(|at| (at, at.saturating_duration_since(now)));
        Budget {
            shared: Some(Arc::new(Shared {
                deadline,
                cancel: self.cancel.clone(),
                max_runs: self.max_runs,
                max_worlds: self.max_worlds,
                max_states: self.max_states_visited,
                allow_partial: self.allow_partial,
                states: AtomicU64::new(0),
                runs: AtomicU64::new(0),
            })),
            local: AtomicU32::new(0),
        }
    }
}

/// A lightweight wall-clock deadline for I/O loops.
///
/// [`Budget`] governs *compute* phases; socket code (the `hm-serve`
/// read/write paths) needs something smaller: an anchored instant to
/// poll against between short-timeout I/O attempts. `Deadline` is that —
/// a copyable instant with the three questions such loops ask: has it
/// passed, how long is left, and how long may the next blocking attempt
/// take (the remaining time clamped to a poll quantum, never zero, so a
/// `set_read_timeout`/`set_write_timeout` call built from it is always
/// valid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    #[must_use]
    pub fn after(d: Duration) -> Self {
        Deadline {
            at: Instant::now() + d,
        }
    }

    /// A deadline at the absolute instant `at`.
    #[must_use]
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// The anchored instant.
    #[must_use]
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// `true` once the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left, saturating at zero.
    #[must_use]
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// The timeout for one blocking I/O attempt: the remaining time
    /// clamped to `quantum`, and never below one millisecond (socket
    /// timeouts of zero mean "block forever", which would defeat the
    /// deadline).
    #[must_use]
    pub fn io_timeout(&self, quantum: Duration) -> Duration {
        self.remaining().min(quantum).max(Duration::from_millis(1))
    }
}

/// Shared, thread-safe part of a [`Budget`]. One per `Limits::budget`
/// call; every clone of the budget (e.g. per enumeration worker) points
/// at the same counters, so ceilings are global across threads.
#[derive(Debug)]
struct Shared {
    /// Anchored deadline and the duration it represents (for messages).
    deadline: Option<(Instant, Duration)>,
    cancel: Option<CancelToken>,
    max_runs: Option<u64>,
    max_worlds: Option<u64>,
    max_states: Option<u64>,
    allow_partial: bool,
    states: AtomicU64,
    runs: AtomicU64,
}

impl Shared {
    fn check(&self, phase: Phase, charge: u64) -> Result<(), LimitExceeded> {
        if let Some(max) = self.max_states {
            let spent = self.states.fetch_add(charge, Ordering::Relaxed) + charge;
            if spent > max {
                return Err(LimitExceeded {
                    resource: Resource::StatesVisited,
                    phase,
                    spent,
                    limit: max,
                });
            }
        } else if charge > 0 {
            self.states.fetch_add(charge, Ordering::Relaxed);
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(LimitExceeded {
                    resource: Resource::Cancelled,
                    phase,
                    spent: 0,
                    limit: 0,
                });
            }
        }
        if let Some((at, total)) = self.deadline {
            let now = Instant::now();
            if now >= at {
                let over = now.saturating_duration_since(at);
                return Err(LimitExceeded {
                    resource: Resource::Deadline,
                    phase,
                    spent: (total + over).as_millis() as u64,
                    limit: total.as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

/// Whether a completed unit of truncatable work (a run) may be kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Within budget: keep the unit and continue.
    Admit,
    /// Out of budget under [`Limits::allow_partial`]: drop the unit,
    /// stop producing, and flag the result as partial.
    Truncate,
}

/// A live, cheap, cooperative resource meter handed to every governed
/// loop.
///
/// Cloning yields a handle to the *same* shared ceilings with a fresh
/// local tick counter — clone once per worker thread. The unlimited
/// budget ([`Budget::unlimited`], also `Default`) makes every check a
/// near-free early return.
#[derive(Debug)]
pub struct Budget {
    shared: Option<Arc<Shared>>,
    /// Ticks accumulated since the last shared check. Relaxed atomic so a
    /// `Budget` (and anything embedding one, e.g. an engine `Session`) is
    /// `Sync`; the counter is still *logically* per-clone — clone once per
    /// worker thread. Concurrent ticks on one handle stay safe, merely
    /// batching their shared check a little earlier or later, which the
    /// amortized accounting tolerates by design.
    local: AtomicU32,
}

impl Clone for Budget {
    fn clone(&self) -> Self {
        Budget {
            shared: self.shared.clone(),
            local: AtomicU32::new(0),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits: every check is a near-free `Ok`.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget {
            shared: None,
            local: AtomicU32::new(0),
        }
    }

    /// `true` when this budget can never fail a check.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.shared.is_none()
    }

    /// `true` when the budget was built from limits with
    /// [`Limits::allow_partial`] set.
    #[must_use]
    pub fn allows_partial(&self) -> bool {
        self.shared.as_ref().is_some_and(|s| s.allow_partial)
    }

    /// The configured run ceiling, if any.
    #[must_use]
    pub fn max_runs(&self) -> Option<u64> {
        self.shared.as_ref().and_then(|s| s.max_runs)
    }

    /// Amortized per-iteration check for hot loops: a counter decrement
    /// [`CHECK_EVERY`]`− 1` times out of [`CHECK_EVERY`]; on the boundary
    /// the batched ticks are charged to the state budget and the
    /// deadline/cancellation are consulted.
    ///
    /// # Errors
    ///
    /// [`LimitExceeded`] when the state budget, deadline, or cancellation
    /// fires.
    #[inline]
    pub fn tick(&self, phase: Phase) -> Result<(), LimitExceeded> {
        let Some(shared) = &self.shared else {
            return Ok(());
        };
        let n = self.local.load(Ordering::Relaxed) + 1;
        if n < CHECK_EVERY {
            self.local.store(n, Ordering::Relaxed);
            return Ok(());
        }
        self.local.store(0, Ordering::Relaxed);
        shared.check(phase, u64::from(CHECK_EVERY))
    }

    /// Immediate check (flushes locally batched ticks first). Use at
    /// coarse boundaries: per refinement round, per fixed-point
    /// iteration, per enumeration branch.
    ///
    /// # Errors
    ///
    /// [`LimitExceeded`] as for [`tick`](Self::tick).
    pub fn check_now(&self, phase: Phase) -> Result<(), LimitExceeded> {
        let Some(shared) = &self.shared else {
            return Ok(());
        };
        let pending = u64::from(self.local.swap(0, Ordering::Relaxed));
        shared.check(phase, pending)
    }

    /// Charges `amount` visited states immediately and checks all
    /// ceilings — for loops whose per-iteration work is itself O(n).
    ///
    /// # Errors
    ///
    /// [`LimitExceeded`] as for [`tick`](Self::tick).
    pub fn charge(&self, phase: Phase, amount: u64) -> Result<(), LimitExceeded> {
        let Some(shared) = &self.shared else {
            return Ok(());
        };
        shared.check(phase, amount)
    }

    /// Checks a world-count ceiling ([`Limits::max_worlds`]). Always a
    /// hard error — partial mode does not soften it, because a frame
    /// that was never materialised has nothing to answer on.
    ///
    /// # Errors
    ///
    /// [`LimitExceeded`] with [`Resource::Worlds`] when `worlds` exceeds
    /// the ceiling.
    pub fn check_worlds(&self, phase: Phase, worlds: u64) -> Result<(), LimitExceeded> {
        let Some(shared) = &self.shared else {
            return Ok(());
        };
        match shared.max_worlds {
            Some(max) if worlds > max => Err(LimitExceeded {
                resource: Resource::Worlds,
                phase,
                spent: worlds,
                limit: max,
            }),
            _ => Ok(()),
        }
    }

    /// Accounts for one produced run and decides its fate: admitted,
    /// truncated (partial mode), or — strict mode — an error. The run
    /// counter is shared across clones, so parallel workers share one
    /// ceiling. Deadline and cancellation are also consulted here (runs
    /// are coarse enough to pay an immediate check), and under partial
    /// mode they truncate instead of failing.
    ///
    /// # Errors
    ///
    /// [`LimitExceeded`] when over budget and partial mode is off.
    pub fn admit_run(&self, phase: Phase) -> Result<Admission, LimitExceeded> {
        let Some(shared) = &self.shared else {
            return Ok(Admission::Admit);
        };
        let produced = shared.runs.fetch_add(1, Ordering::Relaxed);
        if let Some(max) = shared.max_runs {
            if produced >= max {
                if shared.allow_partial {
                    return Ok(Admission::Truncate);
                }
                return Err(LimitExceeded {
                    resource: Resource::Runs,
                    phase,
                    spent: produced + 1,
                    limit: max,
                });
            }
        }
        match shared.check(phase, 0) {
            Ok(()) => Ok(Admission::Admit),
            Err(e)
                if shared.allow_partial
                    && matches!(e.resource, Resource::Deadline | Resource::Cancelled) =>
            {
                Ok(Admission::Truncate)
            }
            Err(e) => Err(e),
        }
    }
}

/// How many workers [`run_jobs`] should use for `jobs` independent jobs
/// on this host: [`std::thread::available_parallelism`], capped at
/// `jobs`, and at least 1.
#[must_use]
pub fn worker_count(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(jobs)
        .max(1)
}

/// Runs `job` once per element of `jobs` on `workers` scoped threads and
/// returns the results in the order of `jobs`, whatever the scheduling.
///
/// Workers claim the next job from one shared atomic counter, so cheap
/// jobs fill in around expensive ones; put the heaviest jobs first for
/// the best balance. The calling thread is one of the workers, and each
/// worker polls its own clone of `budget` (ticks stay amortized per
/// worker; ceilings, deadline and cancellation are shared). Every worker
/// has joined when this returns: no thread outlives the call. A job's
/// input is moved to the worker that runs it, so buffers the caller
/// allocates stay with the caller's allocator arena.
///
/// With `workers <= 1` the jobs run in order on the calling thread
/// against `budget` itself, spawning nothing.
///
/// # Errors
///
/// The first [`LimitExceeded`] a job returns; once one has, no worker
/// starts another job.
///
/// # Panics
///
/// A panic in a job stops the other workers from starting new jobs and
/// is resumed on the caller with its original payload.
pub fn run_jobs<I, T, F>(
    jobs: Vec<I>,
    workers: usize,
    budget: &Budget,
    job: F,
) -> Result<Vec<T>, LimitExceeded>
where
    I: Send,
    T: Send,
    F: Fn(I, &Budget) -> Result<T, LimitExceeded> + Sync,
{
    let count = jobs.len();
    if workers <= 1 || count <= 1 {
        return jobs.into_iter().map(|input| job(input, budget)).collect();
    }
    // Each input is taken once, by the worker that claims its index.
    let inputs: Vec<Mutex<Option<I>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<LimitExceeded>> = Mutex::new(None);
    let work = |budget: Budget| -> Vec<(usize, T)> {
        // Raised when this worker unwinds, so the others start no new
        // jobs while the panic travels to the caller.
        struct StopOnUnwind<'a>(&'a AtomicBool);
        impl Drop for StopOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
        }
        let _guard = StopOnUnwind(&stop);
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let j = next.fetch_add(1, Ordering::Relaxed);
            let Some(input) = inputs.get(j) else {
                break;
            };
            let input = input
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("each job is claimed once");
            match job(input, &budget) {
                Ok(out) => done.push((j, out)),
                Err(e) => {
                    stop.store(true, Ordering::Relaxed);
                    first_error
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(e);
                    break;
                }
            }
        }
        done
    };
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(count).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers.min(count))
            .map(|_| {
                let budget = budget.clone();
                s.spawn(|| work(budget))
            })
            .collect();
        let mut results = vec![work(budget.clone())];
        let mut panic = None;
        for h in handles {
            match h.join() {
                Ok(done) => results.push(done),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        for (j, out) in results.into_iter().flatten() {
            slots[j] = Some(out);
        }
    });
    if let Some(e) = first_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every job ran"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_helpers_answer_the_io_questions() {
        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(59));
        // The I/O timeout is the poll quantum while far from expiry…
        assert_eq!(
            d.io_timeout(Duration::from_millis(200)),
            Duration::from_millis(200)
        );
        let past = Deadline::at(Instant::now() - Duration::from_secs(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
        // …and never zero even when expired: a zero socket timeout
        // would mean "block forever".
        assert_eq!(
            past.io_timeout(Duration::from_millis(200)),
            Duration::from_millis(1)
        );
        assert_eq!(Deadline::at(past.instant()), past);
    }

    #[test]
    fn budget_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Budget>();
        assert_send_sync::<Limits>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<LimitExceeded>();
    }

    #[test]
    fn shared_budget_handle_ticks_safely_across_threads() {
        let b = std::sync::Arc::new(Limits::none().max_states_visited(u64::MAX).budget());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let b = std::sync::Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        b.tick(Phase::Eval).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        b.check_now(Phase::Eval).unwrap();
    }

    #[test]
    fn run_jobs_returns_results_in_job_order() {
        let want: Vec<usize> = (0..37).map(|j| j * j).collect();
        for workers in 1..=4 {
            let got = run_jobs(
                (0..37).collect(),
                workers,
                &Budget::unlimited(),
                |j: usize, _| {
                    // Uneven jobs, so workers finish out of order.
                    std::thread::sleep(Duration::from_micros((j % 5) as u64 * 50));
                    Ok(j * j)
                },
            )
            .unwrap();
            assert_eq!(got, want, "{workers} workers");
        }
        assert!(
            run_jobs(Vec::<()>::new(), 2, &Budget::unlimited(), |(), _| Ok(()))
                .unwrap()
                .is_empty()
        );
        assert!(worker_count(0) == 1 && worker_count(1) == 1);
    }

    #[test]
    fn run_jobs_returns_the_budget_error_of_every_worker() {
        let token = CancelToken::new();
        let budget = Limits::none().cancel(token.clone()).budget();
        token.cancel();
        let started = AtomicUsize::new(0);
        let e = run_jobs(vec![(); 64], 2, &budget, |(), b| {
            started.fetch_add(1, Ordering::Relaxed);
            b.check_now(Phase::Build)
        })
        .unwrap_err();
        assert_eq!((e.resource, e.phase), (Resource::Cancelled, Phase::Build));
        // Each worker stops at its first failed job.
        assert!(started.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn run_jobs_resumes_a_worker_panic_on_the_caller() {
        for workers in [1, 2] {
            let payload = std::panic::catch_unwind(|| {
                run_jobs(
                    (0..8).collect(),
                    workers,
                    &Budget::unlimited(),
                    |j: usize, _| {
                        assert!(j != 5, "job {j} failed");
                        Ok(j)
                    },
                )
            })
            .unwrap_err();
            let msg = payload
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert_eq!(msg, "job 5 failed", "{workers} workers");
        }
    }

    #[test]
    fn unlimited_budget_never_fails() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..10_000 {
            b.tick(Phase::Eval).unwrap();
        }
        b.check_now(Phase::Eval).unwrap();
        b.charge(Phase::Build, u64::MAX).unwrap();
        b.check_worlds(Phase::Build, u64::MAX).unwrap();
        assert_eq!(b.admit_run(Phase::Enumerate).unwrap(), Admission::Admit);
        assert!(Limits::none().is_unlimited());
    }

    #[test]
    fn state_budget_fires_on_tick_boundary() {
        let b = Limits::none().max_states_visited(100).budget();
        let mut failed = None;
        for i in 0..10_000u64 {
            if let Err(e) = b.tick(Phase::Eval) {
                failed = Some((i, e));
                break;
            }
        }
        let (i, e) = failed.expect("must exhaust");
        assert_eq!(i, u64::from(CHECK_EVERY) - 1, "fires at the first flush");
        assert_eq!(e.resource, Resource::StatesVisited);
        assert_eq!(e.phase, Phase::Eval);
        assert_eq!(e.limit, 100);
        assert!(e.spent > e.limit);
    }

    #[test]
    fn charge_is_immediate() {
        let b = Limits::none().max_states_visited(10).budget();
        b.charge(Phase::Minimize, 10).unwrap();
        let e = b.charge(Phase::Minimize, 1).unwrap_err();
        assert_eq!(e.resource, Resource::StatesVisited);
        assert_eq!(e.spent, 11);
    }

    #[test]
    fn run_admission_strict_and_partial() {
        let strict = Limits::none().max_runs(2).budget();
        assert_eq!(
            strict.admit_run(Phase::Enumerate).unwrap(),
            Admission::Admit
        );
        assert_eq!(
            strict.admit_run(Phase::Enumerate).unwrap(),
            Admission::Admit
        );
        let e = strict.admit_run(Phase::Enumerate).unwrap_err();
        assert_eq!(e.resource, Resource::Runs);
        assert_eq!((e.spent, e.limit), (3, 2));

        let partial = Limits::none().max_runs(1).allow_partial(true).budget();
        assert_eq!(
            partial.admit_run(Phase::Enumerate).unwrap(),
            Admission::Admit
        );
        assert_eq!(
            partial.admit_run(Phase::Enumerate).unwrap(),
            Admission::Truncate
        );
    }

    #[test]
    fn clones_share_ceilings() {
        let a = Limits::none().max_runs(2).budget();
        let b = a.clone();
        a.admit_run(Phase::Enumerate).unwrap();
        b.admit_run(Phase::Enumerate).unwrap();
        assert!(b.admit_run(Phase::Enumerate).is_err());
        assert!(a.admit_run(Phase::Enumerate).is_err());
    }

    #[test]
    fn cancellation_latches() {
        let token = CancelToken::new();
        let b = Limits::none().cancel(token.clone()).budget();
        b.check_now(Phase::Build).unwrap();
        token.cancel();
        assert!(token.is_cancelled());
        let e = b.check_now(Phase::Build).unwrap_err();
        assert_eq!(e.resource, Resource::Cancelled);
        // Partial mode turns cancellation into truncation for runs.
        let p = Limits::none().cancel(token).allow_partial(true).budget();
        assert_eq!(p.admit_run(Phase::Enumerate).unwrap(), Admission::Truncate);
    }

    #[test]
    fn deadline_in_the_past_fires() {
        let b = Limits::none().timeout(Duration::ZERO).budget();
        let e = b.check_now(Phase::Eval).unwrap_err();
        assert_eq!(e.resource, Resource::Deadline);
        // An absolute deadline behaves the same.
        let b = Limits::none().deadline(Instant::now()).budget();
        assert!(b.check_now(Phase::Eval).is_err());
    }

    #[test]
    fn world_ceiling_is_hard_even_when_partial() {
        let b = Limits::none().max_worlds(5).allow_partial(true).budget();
        b.check_worlds(Phase::Build, 5).unwrap();
        let e = b.check_worlds(Phase::Build, 6).unwrap_err();
        assert_eq!(e.resource, Resource::Worlds);
        assert_eq!((e.spent, e.limit), (6, 5));
    }

    #[test]
    fn display_is_actionable() {
        let e = LimitExceeded {
            resource: Resource::Runs,
            phase: Phase::Enumerate,
            spent: 101,
            limit: 100,
        };
        assert_eq!(
            e.to_string(),
            "run budget exceeded during enumeration (101 spent, limit 100)"
        );
        for r in [
            Resource::Worlds,
            Resource::StatesVisited,
            Resource::Deadline,
            Resource::Cancelled,
        ] {
            let msg = LimitExceeded {
                resource: r,
                phase: Phase::Eval,
                spent: 1,
                limit: 0,
            }
            .to_string();
            assert!(!msg.is_empty());
        }
    }
}
