//! Interpreted systems: knowledge over a set of runs.
//!
//! An [`InterpretedSystem`] packages a view-based knowledge interpretation
//! `I = (R, π, v)` (Halpern–Moses Section 6): a [`System`] `R`, a truth
//! assignment `π` given by named *fact* predicates over points, and a
//! [`ViewFunction`] `v`. As a [`Frame`] it is the finite Kripke model
//! whose worlds are the points of `R` and whose agent partitions are
//! induced by `v`, plus the run/time structure ([`TemporalStructure`])
//! that the `E^ε/E^◇/E^T` and run-temporal operators of Sections 11–12
//! need.

use crate::intern::ViewInterner;
use crate::run::Run;
use crate::system::{Point, RunId, System};
use crate::view::ViewFunction;
use hm_kripke::{
    minimize, AgentId, KripkeModel, Minimized, ModelBuilder, Partition, WorldId, WorldSet,
};
use hm_limits::{failpoints, run_jobs, Budget, LimitExceeded, Phase};
use hm_logic::{Frame, TemporalStructure};

/// A fact predicate: the truth of a ground atom at each point of a run.
///
/// `Send + Sync` because large frames evaluate each fact on a worker
/// thread of their own, next to the agents' view passes (see
/// [`InterpretedSystemBuilder::try_build`]).
pub type FactFn = Box<dyn Fn(Run<'_>, u64) -> bool + Send + Sync>;

/// Frames with at least this many points build their facts and agent
/// partitions on [`hm_limits::worker_count`] threads; smaller ones stay
/// on the calling thread, where spawning would cost more than the work.
const PARALLEL_MIN_POINTS: usize = 1 << 16;

/// One build job. Agent jobs carry the id buffer they fill, allocated by
/// the thread that started the build, so the frame's largest
/// allocations stay with that thread's allocator arena.
enum Job {
    /// Intern every run under the view for this agent.
    Agent(AgentId, Vec<u32>),
    /// Evaluate the fact with this declaration index at every point.
    Fact(usize),
}

/// What one build job produced.
enum JobOutput {
    /// One view id per point, and an exclusive bound on the ids.
    Agent(Vec<u32>, usize),
    /// The worlds where a fact holds.
    Fact(WorldSet),
}

/// Agent `agent`'s view id at every point, pushed onto `ids`: its view
/// interns every run into one interner.
fn agent_view_ids(
    system: &System,
    view: &dyn ViewFunction,
    agent: AgentId,
    mut ids: Vec<u32>,
    budget: &Budget,
) -> Result<(Vec<u32>, usize), LimitExceeded> {
    let mut interner = ViewInterner::new();
    for (_, r) in system.runs() {
        for _ in 0..=r.horizon() {
            budget.tick(Phase::Build)?;
        }
        view.intern_run(r, agent, &mut interner, &mut ids);
    }
    Ok((ids, interner.len()))
}

/// The worlds of the points where `fact` holds.
fn fact_worlds(system: &System, fact: &FactFn, budget: &Budget) -> Result<WorldSet, LimitExceeded> {
    let mut worlds = WorldSet::empty(system.num_points());
    let mut w = 0usize;
    for (_, r) in system.runs() {
        for t in 0..=r.horizon() {
            budget.tick(Phase::Build)?;
            if fact(r, t) {
                worlds.insert(WorldId::new(w));
            }
            w += 1;
        }
    }
    Ok(worlds)
}

/// Builder for [`InterpretedSystem`] (C-BUILDER).
pub struct InterpretedSystemBuilder {
    system: System,
    view: Box<dyn ViewFunction>,
    facts: Vec<(String, FactFn)>,
    minimize: bool,
    budget: Budget,
}

impl InterpretedSystemBuilder {
    /// Declares a ground atom `name` true at the points where `fact`
    /// returns `true`.
    pub fn fact(
        mut self,
        name: impl Into<String>,
        fact: impl Fn(Run<'_>, u64) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.facts.push((name.into(), Box::new(fact)));
        self
    }

    /// Adds bisimulation minimisation to construction: `build` will
    /// additionally compute the coarsest epistemic bisimulation quotient
    /// of the point model with [`hm_kripke::minimize`], under the
    /// attached budget, and attach it as [`InterpretedSystem::quotient`].
    ///
    /// The quotient answers every formula of the `D`-free static fragment
    /// identically to the full model (and is often much smaller); the
    /// temporal operators and `D_G` must still be evaluated on the full
    /// model, which remains available unchanged.
    ///
    /// A system truncated by its run budget is not minimised: its frame
    /// answers only three-valued queries, which never read a quotient.
    pub fn minimized(mut self, on: bool) -> Self {
        self.minimize = on;
        self
    }

    /// Attaches a resource [`Budget`]: construction charges one visited
    /// state per point-sized unit of work (amortized), enforces the
    /// world ceiling against the point count up front, and re-checks
    /// deadlines/cancellation at minimisation rounds. Use
    /// [`try_build`](Self::try_build) to observe the resulting errors.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Materialises the interpreted system.
    ///
    /// # Panics
    ///
    /// Panics if a [`budget`](Self::budget) was attached and exceeded —
    /// governed callers should use [`try_build`](Self::try_build).
    pub fn build(self) -> InterpretedSystem {
        self.try_build()
            .unwrap_or_else(|e| panic!("interpreted-system build exceeded its budget: {e}"))
    }

    /// Materialises the interpreted system under the attached budget.
    ///
    /// On frames of at least 65,536 points, each fact's pass and each
    /// agent's view pass run as separate jobs on scoped worker threads
    /// (as many as the host has cores, at most one per job), each polling
    /// its own clone of the budget. The model is the one the sequential
    /// build makes, and every worker has joined before this returns. A
    /// panic in a fact or a view is resumed here with its payload.
    ///
    /// # Errors
    ///
    /// [`LimitExceeded`] when the point count exceeds the world ceiling
    /// (checked before any allocation), the visited-state budget runs
    /// out, the deadline passes, or the budget's token is cancelled. The
    /// failpoint site `runs::build` can inject the same errors. On error
    /// all partially-built state is dropped.
    pub fn try_build(self) -> Result<InterpretedSystem, LimitExceeded> {
        let workers = if self.system.num_points() >= PARALLEL_MIN_POINTS {
            hm_limits::worker_count(self.facts.len() + self.system.num_procs())
        } else {
            1
        };
        self.build_with_workers(workers)
    }

    /// [`try_build`](Self::try_build) on `workers` threads (1 = on the
    /// calling thread only).
    ///
    /// Each fact's pass over the points and each agent's view pass is
    /// one job of [`hm_limits::run_jobs`], agents first (they are the
    /// heavy ones); the results are installed in a fixed order — atoms in
    /// declaration order, then partitions by agent — so the model is the
    /// same whatever the scheduling.
    fn build_with_workers(self, workers: usize) -> Result<InterpretedSystem, LimitExceeded> {
        failpoints::check("runs::build", Phase::Build)?;
        let budget = self.budget;
        let system = self.system;
        let num_points = system.num_points();
        let num_procs = system.num_procs();
        budget.check_worlds(Phase::Build, num_points as u64)?;

        // World layout: runs in order, times ascending.
        let mut offsets = Vec::with_capacity(system.num_runs());
        let mut acc = 0u32;
        for (_, r) in system.runs() {
            offsets.push(acc);
            acc += r.num_points() as u32;
        }

        let (view, facts) = (&*self.view, &self.facts);
        // Agents first: they are the heavy jobs.
        let jobs = (0..num_procs)
            .map(|i| Job::Agent(AgentId::new(i), Vec::with_capacity(num_points)))
            .chain((0..facts.len()).map(Job::Fact))
            .collect();
        let mut outputs = run_jobs(jobs, workers, &budget, |job, budget| match job {
            Job::Agent(agent, ids) => agent_view_ids(&system, view, agent, ids, budget)
                .map(|(ids, num_keys)| JobOutput::Agent(ids, num_keys)),
            Job::Fact(k) => fact_worlds(&system, &facts[k].1, budget).map(JobOutput::Fact),
        })?;

        let mut b = ModelBuilder::new(num_procs);
        // Worlds are unnamed: point names `run@t` are derived lazily from
        // `locate` when a diagnostic asks (see `point_name`), instead of
        // one `format!` per point here.
        b.add_worlds(num_points);
        let fact_outputs = outputs.split_off(num_procs);
        for ((name, _), out) in facts.iter().zip(fact_outputs) {
            let JobOutput::Fact(worlds) = out else {
                unreachable!("fact jobs follow the agent jobs")
            };
            let atom = b.atom(name.clone());
            for w in worlds.iter() {
                b.set_atom(atom, w, true);
            }
        }
        // Partitions from dense view ids: an O(n) build per agent, here
        // rather than in the jobs so they, too, stay with this thread.
        for (i, out) in outputs.into_iter().enumerate() {
            let JobOutput::Agent(ids, num_keys) = out else {
                unreachable!("agent jobs come first")
            };
            let partition = Partition::from_dense_keys(num_points, &ids, num_keys);
            b.set_partition(AgentId::new(i), partition);
        }
        let model = b.build();
        // A truncated frame answers only three-valued queries, which run
        // on the frame itself: its quotient would never be read.
        let quotient = if self.minimize && !system.is_truncated() {
            Some(minimize(&model, &budget)?)
        } else {
            None
        };

        Ok(InterpretedSystem {
            system,
            model,
            offsets,
            view_name: self.view.name(),
            quotient,
        })
    }
}

/// A view-based knowledge interpretation over a finite system of runs.
///
/// # Examples
///
/// ```
/// use hm_runs::{SystemBuilder, InterpretedSystem, CompleteHistory};
/// use hm_logic::{parse, evaluate};
/// use hm_kripke::AgentId;
///
/// let mut sb = SystemBuilder::new();
/// sb.run("sent", 2, 1)
///     .wake(AgentId::new(0), 0, 1)
///     .wake(AgentId::new(1), 0, 0)
///     .finish();
/// sb.run("quiet", 2, 1)
///     .wake(AgentId::new(0), 0, 0)
///     .wake(AgentId::new(1), 0, 0)
///     .finish();
/// let isys = InterpretedSystem::builder(sb.build(), CompleteHistory)
///     .fact("one", |run, _t| run.proc(AgentId::new(0)).initial_state() == 1)
///     .build();
/// let f = parse("K0 one")?;
/// // Agent 0 read its own initial state, so it knows `one` in run 0.
/// assert!(evaluate(&isys, &f)?.contains(isys.world(0.into(), 0)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct InterpretedSystem {
    system: System,
    model: KripkeModel,
    offsets: Vec<u32>,
    view_name: &'static str,
    /// The bisimulation quotient, when construction computed it (see
    /// [`InterpretedSystemBuilder::minimized`]).
    quotient: Option<Minimized>,
}

impl InterpretedSystem {
    /// Starts building an interpretation of `system` under `view`.
    pub fn builder(system: System, view: impl ViewFunction + 'static) -> InterpretedSystemBuilder {
        InterpretedSystemBuilder {
            system,
            view: Box::new(view),
            facts: Vec::new(),
            minimize: false,
            budget: Budget::unlimited(),
        }
    }

    /// `true` when the underlying run set was truncated by a resource
    /// budget: classical verdicts on this frame are unsound in general —
    /// use three-valued evaluation (the compiled machine in the interval
    /// domain, [`evaluate_interval`](hm_logic::evaluate_interval) or
    /// [`CompiledFormula::eval_bound_interval`](hm_logic::CompiledFormula::eval_bound_interval))
    /// instead.
    pub fn is_partial(&self) -> bool {
        self.system.is_truncated()
    }

    /// The bisimulation quotient computed at build time, if
    /// [`minimized`](InterpretedSystemBuilder::minimized) was requested:
    /// a (usually much smaller) model answering every `D`-free static
    /// formula identically at `quotient.image(w)`, plus the point→class
    /// map. Temporal operators and `D_G` are not quotient-invariant —
    /// evaluate those on `self` directly.
    pub fn quotient(&self) -> Option<&Minimized> {
        self.quotient.as_ref()
    }

    /// The underlying system of runs.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Name of the view function used.
    pub fn view_name(&self) -> &'static str {
        self.view_name
    }

    /// The world id of point `(run, t)`.
    ///
    /// # Panics
    ///
    /// Panics if the point is outside the system.
    pub fn world(&self, run: RunId, t: u64) -> WorldId {
        assert!(
            t <= self.system.run(run).horizon(),
            "time {t} beyond horizon of {run}"
        );
        WorldId::new(self.offsets[run.index()] as usize + t as usize)
    }

    /// Diagnostic name of a world: `run@t`, derived lazily from
    /// [`locate`](Self::locate). The underlying model's worlds are
    /// unnamed (construction never formats a name per point); use this
    /// instead of [`KripkeModel::world_label`] for interpreted systems.
    pub fn point_name(&self, w: WorldId) -> String {
        let p = self.locate(w);
        format!("{}@{}", self.system.run(p.run).name(), p.time)
    }

    /// The point of a world id.
    pub fn locate(&self, w: WorldId) -> Point {
        let idx = w.index() as u32;
        // offsets is ascending; find the last offset ≤ idx.
        let run = match self.offsets.binary_search(&idx) {
            Ok(r) => r,
            Err(ins) => ins - 1,
        };
        Point::new(RunId::from(run), (idx - self.offsets[run]) as u64)
    }

    /// The set of points of one run.
    pub fn run_points(&self, run: RunId) -> WorldSet {
        let mut out = self.model.empty_set();
        for t in 0..=self.system.run(run).horizon() {
            out.insert(self.world(run, t));
        }
        out
    }
}

impl std::fmt::Debug for InterpretedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InterpretedSystem")
            .field("runs", &self.system.num_runs())
            .field("points", &self.model.num_worlds())
            .field("view", &self.view_name)
            .finish()
    }
}

impl Frame for InterpretedSystem {
    /// The materialised Kripke model (worlds = points).
    fn model(&self) -> &KripkeModel {
        &self.model
    }

    fn temporal(&self) -> Option<&dyn TemporalStructure> {
        Some(self)
    }
}

impl TemporalStructure for InterpretedSystem {
    fn num_runs(&self) -> usize {
        self.system.num_runs()
    }

    fn run_of(&self, w: WorldId) -> usize {
        self.locate(w).run.index()
    }

    fn time_of(&self, w: WorldId) -> u64 {
        self.locate(w).time
    }

    fn point(&self, run: usize, t: u64) -> Option<WorldId> {
        let id = RunId::from(run);
        (t <= self.system.run(id).horizon()).then(|| self.world(id, t))
    }

    fn run_len(&self, run: usize) -> u64 {
        self.system.run(RunId::from(run)).num_points()
    }

    fn clock(&self, i: AgentId, run: usize, t: u64) -> Option<u64> {
        self.system.run(RunId::from(run)).proc(i).clock_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Message};
    use crate::system::SystemBuilder;
    use crate::view::{CompleteHistory, SharedLambda};
    use hm_logic::{evaluate, parse};

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    /// `true` iff `src` holds at point `(run, t)`.
    fn holds(isys: &InterpretedSystem, src: &str, run: RunId, t: u64) -> bool {
        let set = evaluate(isys, &parse(src).unwrap()).unwrap();
        set.contains(isys.world(run, t))
    }

    /// `true` iff `src` holds at every point.
    fn valid(isys: &InterpretedSystem, src: &str) -> bool {
        evaluate(isys, &parse(src).unwrap()).unwrap().is_full()
    }

    /// Two runs: in "sent", p0 sends to p1 at t=1, delivered at t=2.
    /// In "lost", the message is sent but never delivered.
    fn msg_system() -> System {
        let msg = Message::tagged(1);
        let mut sb = SystemBuilder::new();
        sb.run("sent", 2, 3)
            .wake(a(0), 0, 0)
            .wake(a(1), 0, 0)
            .event(a(0), 1, Event::Send { to: a(1), msg })
            .event(a(1), 2, Event::Recv { from: a(0), msg })
            .finish();
        sb.run("lost", 2, 3)
            .wake(a(0), 0, 0)
            .wake(a(1), 0, 0)
            .event(a(0), 1, Event::Send { to: a(1), msg })
            .finish();
        sb.build()
    }

    fn interp(sys: System) -> InterpretedSystem {
        InterpretedSystem::builder(sys, CompleteHistory)
            .fact("sent", |run, t| {
                run.proc(a(0))
                    .events_before(t + 1)
                    .any(|e| matches!(e.event, Event::Send { .. }))
            })
            .fact("delivered", |run, t| {
                run.proc(a(1))
                    .events_before(t + 1)
                    .any(|e| e.event.is_recv())
            })
            .build()
    }

    #[test]
    fn world_point_round_trip() {
        let isys = interp(msg_system());
        assert_eq!(isys.model().num_worlds(), 8);
        for p in isys.system().points().collect::<Vec<_>>() {
            let w = isys.world(p.run, p.time);
            assert_eq!(isys.locate(w), p);
        }
    }

    #[test]
    fn receiver_knows_sender_does_not_know_it_knows() {
        let isys = interp(msg_system());
        let sent_run = RunId(0);
        // The receive at t=2 enters p1's history at t=3 (histories exclude
        // events at the current tick, Section 5), so p1 knows `sent` at 3.
        assert!(!holds(&isys, "K1 sent", sent_run, 2));
        assert!(holds(&isys, "K1 sent", sent_run, 3));
        // p0 cannot tell delivery from loss: ¬K0 K1 sent at any time.
        for t in 0..=3 {
            assert!(!holds(&isys, "K0 K1 sent", sent_run, t), "t={t}");
        }
        // And common knowledge of `sent` fails everywhere.
        let c = parse("C{0,1} sent").unwrap();
        assert!(evaluate(&isys, &c).unwrap().is_empty());
    }

    #[test]
    fn temporal_operators_work_on_interpreted_systems() {
        let isys = interp(msg_system());
        // In the delivered run, at t=0: even(delivered) holds; in the lost
        // run it does not.
        assert!(holds(&isys, "even delivered", RunId(0), 0));
        assert!(!holds(&isys, "even delivered", RunId(1), 0));
        // E^◇: p1 eventually knows `sent` only in the delivered run; p0
        // knows it from the start in both.
        assert!(holds(&isys, "Eev{0,1} sent", RunId(0), 0));
        assert!(!holds(&isys, "Eev{0,1} sent", RunId(1), 0));
    }

    #[test]
    fn shared_lambda_collapses_hierarchy() {
        let isys = InterpretedSystem::builder(msg_system(), SharedLambda)
            .fact("sent", |_, _| true) // valid fact
            .build();
        // Everything valid is common knowledge under Λ.
        assert!(valid(&isys, "C{0,1} sent"));
    }

    #[test]
    fn valid_and_holds() {
        let isys = interp(msg_system());
        assert!(valid(&isys, "sent -> sent"));
        assert!(!valid(&isys, "delivered"));
        assert_eq!(isys.run_points(RunId(1)).count(), 4);
        let dbg = format!("{isys:?}");
        assert!(dbg.contains("complete-history"));
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn world_out_of_range_panics() {
        let isys = interp(msg_system());
        isys.world(RunId(0), 9);
    }

    fn interp_minimized(sys: System) -> InterpretedSystem {
        InterpretedSystem::builder(sys, CompleteHistory)
            .fact("sent", |run, t| {
                run.proc(a(0))
                    .events_before(t + 1)
                    .any(|e| matches!(e.event, Event::Send { .. }))
            })
            .minimized(true)
            .build()
    }

    #[test]
    fn minimized_build_matches_post_hoc_minimisation() {
        let isys = interp_minimized(msg_system());
        let q = isys.quotient().expect("minimisation requested");
        // Verdict invariance on the D-free static fragment.
        for src in ["sent", "K0 sent", "K1 sent", "C{0,1} sent", "S{0,1} !sent"] {
            let f = parse(src).unwrap();
            let full = evaluate(&isys, &f).unwrap();
            let quot = evaluate(&q.model, &f).unwrap();
            for w in 0..isys.model().num_worlds() {
                let w = WorldId::new(w);
                assert_eq!(full.contains(w), quot.contains(q.image(w)), "{src} at {w}");
            }
        }
        // Unminimised builds carry no quotient.
        assert!(interp(msg_system()).quotient().is_none());
    }

    /// `runs` pseudo-random runs of three processors: initial states and,
    /// at each tick, whether each processor sends to its successor and
    /// whether that message arrives, all drawn from a hash of the run
    /// index — a frame with many shared histories and uneven blocks.
    fn scrambled_system(runs: u64) -> System {
        let mut sb = SystemBuilder::new();
        for r in 0..runs {
            let mut bits = r
                .wrapping_add(0x9e37_79b9_7f4a_7c15)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            bits ^= bits >> 31;
            let mut run = sb.run(format!("r{r}"), 3, 4);
            for i in 0..3 {
                run = run.wake(a(i), 0, (bits >> i) & 1);
            }
            for t in 1..4 {
                for i in 0..3 {
                    let shift = 3 + 6 * (t - 1) + 2 * i as u64;
                    if (bits >> shift) & 1 == 1 {
                        let msg = Message::tagged(t as u32);
                        let to = (i + 1) % 3;
                        run = run.event(a(i), t, Event::Send { to: a(to), msg });
                        if (bits >> (shift + 1)) & 1 == 1 {
                            run = run.event(a(to), t, Event::Recv { from: a(i), msg });
                        }
                    }
                }
            }
            run.finish();
        }
        sb.build()
    }

    fn scrambled_builder(view: impl ViewFunction + 'static) -> InterpretedSystemBuilder {
        InterpretedSystem::builder(scrambled_system(1500), view)
            .fact("zero", |run, _| run.proc(a(0)).initial_state() == 0)
            .fact("heard", |run, t| run.proc(a(1)).recvs_before(t) > 0)
            .fact("late", |_, t| t >= 3)
    }

    #[test]
    fn parallel_build_matches_the_sequential_build() {
        for view in [0, 1] {
            let build = |workers| {
                let b = if view == 0 {
                    scrambled_builder(CompleteHistory)
                } else {
                    scrambled_builder(crate::view::last_event_view())
                };
                b.build_with_workers(workers).unwrap()
            };
            let (one, two) = (build(1), build(2));
            let (m1, m2) = (one.model(), two.model());
            assert_eq!(m1.num_worlds(), 1500 * 5);
            assert_eq!(m1.num_atoms(), m2.num_atoms());
            for name in ["zero", "heard", "late"] {
                let (x, y) = (m1.atom_id(name).unwrap(), m2.atom_id(name).unwrap());
                assert_eq!(x, y, "{name}: atom ids in declaration order");
                assert_eq!(m1.atom_set(x), m2.atom_set(y), "{name}");
                assert!(!m1.atom_set(x).is_empty() && !m1.atom_set(x).is_full());
            }
            for i in 0..3 {
                let p = m1.partition(a(i));
                assert_eq!(p, m2.partition(a(i)), "agent {i}, view {view}");
                assert!(p.num_blocks() > 1 && p.num_blocks() < p.num_worlds());
            }
        }
    }

    #[test]
    fn parallel_build_stops_on_a_cancelled_or_expired_budget() {
        let token = hm_limits::CancelToken::new();
        token.cancel();
        for limits in [
            hm_limits::Limits::none().cancel(token),
            hm_limits::Limits::none().timeout(std::time::Duration::ZERO),
        ] {
            let e = scrambled_builder(CompleteHistory)
                .budget(limits.budget())
                .build_with_workers(2)
                .unwrap_err();
            assert_eq!(e.phase, Phase::Build, "{e}");
        }
    }

    /// [`CompleteHistory`] that panics whenever it runs off the thread
    /// that started the build, and holds that thread's first job until a
    /// worker has panicked — so the panic surely happens on a worker.
    struct PanicsOnWorkers {
        caller: std::thread::ThreadId,
        panicked: std::sync::atomic::AtomicBool,
    }

    impl ViewFunction for PanicsOnWorkers {
        fn encode_view(&self, run: Run<'_>, i: AgentId, t: u64, out: &mut Vec<u64>) {
            use std::sync::atomic::Ordering;
            if std::thread::current().id() != self.caller {
                self.panicked.store(true, Ordering::Relaxed);
                panic!("view failed on a worker");
            }
            let start = std::time::Instant::now();
            while !self.panicked.load(Ordering::Relaxed)
                && start.elapsed() < std::time::Duration::from_secs(10)
            {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            CompleteHistory.encode_view(run, i, t, out);
        }

        fn name(&self) -> &'static str {
            "panics-on-workers"
        }
    }

    #[test]
    fn a_view_panicking_on_a_worker_panics_the_build() {
        let view = PanicsOnWorkers {
            caller: std::thread::current().id(),
            panicked: std::sync::atomic::AtomicBool::new(false),
        };
        let builder = InterpretedSystem::builder(msg_system(), view);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            builder.build_with_workers(2)
        }))
        .expect_err("the worker's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"view failed on a worker")
        );
    }

    #[test]
    fn truncated_systems_are_not_minimised() {
        let mut sys = msg_system();
        sys.mark_truncated();
        let isys = interp_minimized(sys);
        assert!(isys.is_partial());
        assert!(isys.quotient().is_none());
    }
}
