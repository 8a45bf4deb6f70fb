//! Interpreted systems: knowledge over a set of runs.
//!
//! An [`InterpretedSystem`] packages a view-based knowledge interpretation
//! `I = (R, π, v)` (Halpern–Moses Section 6): a [`System`] `R`, a truth
//! assignment `π` given by named *fact* predicates over points, and a
//! [`ViewFunction`] `v`. Internally it materialises the finite Kripke
//! model whose worlds are the points of `R` and whose agent partitions are
//! induced by `v`, and it implements both [`Frame`] (static operators) and
//! [`TemporalStructure`] (the `E^ε/E^◇/E^T` and run-temporal operators of
//! Sections 11–12) for the `hm-logic` model checker.

use crate::intern::ViewInterner;
use crate::run::Run;
use crate::system::{Point, RunId, System};
use crate::view::ViewFunction;
use hm_kripke::{
    minimize, AgentGroup, AgentId, KripkeModel, Minimized, ModelBuilder, Partition, WorldId,
    WorldSet,
};
use hm_limits::{failpoints, Budget, LimitExceeded, Phase};
use hm_logic::{evaluate, AtomTable, EvalError, Formula, Frame, TemporalStructure};

/// A fact predicate: the truth of a ground atom at each point of a run.
pub type FactFn = Box<dyn Fn(Run<'_>, u64) -> bool>;

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
        fact: impl Fn(Run<'_>, u64) -> bool + 'static,
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
    /// # Errors
    ///
    /// [`LimitExceeded`] when the point count exceeds the world ceiling
    /// (checked before any allocation), the visited-state budget runs
    /// out, the deadline passes, or the budget's token is cancelled. The
    /// failpoint site `runs::build` can inject the same errors. On error
    /// all partially-built state is dropped.
    pub fn try_build(self) -> Result<InterpretedSystem, LimitExceeded> {
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

        let mut b = ModelBuilder::new(num_procs);
        // Worlds are unnamed: point names `run@t` are derived lazily from
        // `locate` when a diagnostic asks (see `point_name`), instead of
        // one `format!` per point here.
        b.add_worlds(num_points);
        for (name, fact) in &self.facts {
            let atom = b.atom(name.clone());
            let mut w = 0usize;
            for (_, r) in system.runs() {
                for t in 0..=r.horizon() {
                    budget.tick(Phase::Build)?;
                    if fact(r, t) {
                        b.set_atom(atom, WorldId::new(w), true);
                    }
                    w += 1;
                }
            }
        }
        // Agent partitions from dense view ids: each agent's view interns
        // a whole run at a time into one interner per agent, then a dense
        // O(n) partition build from the ids.
        let mut ids: Vec<u32> = Vec::with_capacity(num_points);
        let mut partitions: Vec<Partition> = Vec::with_capacity(num_procs);
        for i in 0..num_procs {
            let agent = AgentId::new(i);
            let mut interner = ViewInterner::new();
            ids.clear();
            for (_, r) in system.runs() {
                for _ in 0..=r.horizon() {
                    budget.tick(Phase::Build)?;
                }
                self.view.intern_run(r, agent, &mut interner, &mut ids);
            }
            partitions.push(Partition::from_dense_keys(num_points, &ids, interner.len()));
        }
        for (i, p) in partitions.into_iter().enumerate() {
            b.set_partition(AgentId::new(i), p);
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

    /// The materialised Kripke model (worlds = points).
    pub fn model(&self) -> &KripkeModel {
        &self.model
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

    /// Evaluates a closed formula over this interpretation.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the model checker.
    pub fn eval(&self, f: &Formula) -> Result<WorldSet, EvalError> {
        evaluate(self, f)
    }

    /// `true` iff `f` holds at point `(run, t)`.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the model checker.
    pub fn holds(&self, f: &Formula, run: RunId, t: u64) -> Result<bool, EvalError> {
        Ok(self.eval(f)?.contains(self.world(run, t)))
    }

    /// `true` iff `f` holds at every point (validity in the system).
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the model checker.
    pub fn valid(&self, f: &Formula) -> Result<bool, EvalError> {
        Ok(self.eval(f)?.is_full())
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
    fn num_worlds(&self) -> usize {
        self.model.num_worlds()
    }

    fn num_agents(&self) -> usize {
        self.model.num_agents()
    }

    fn atom_set(&self, name: &str) -> Option<WorldSet> {
        self.model.atom_id(name).map(|a| self.model.atom_set(a))
    }

    fn knowledge_set(&self, i: AgentId, a: &WorldSet) -> WorldSet {
        self.model.knowledge(i, a)
    }

    fn distributed_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        self.model.distributed_knowledge(g, a)
    }

    fn common_set(&self, g: &AgentGroup, a: &WorldSet) -> WorldSet {
        self.model.common_knowledge(g, a)
    }

    fn temporal(&self) -> Option<&dyn TemporalStructure> {
        Some(self)
    }

    fn atom_table(&self) -> Option<&dyn AtomTable> {
        Some(self)
    }
}

impl AtomTable for InterpretedSystem {
    fn atom_index(&self, name: &str) -> Option<usize> {
        self.model.atom_id(name).map(|a| a.index())
    }

    fn atom_set_by_id(&self, id: usize) -> WorldSet {
        self.model.atom_set(id.into())
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
    use hm_logic::parse;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
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
        assert!(!isys.holds(&parse("K1 sent").unwrap(), sent_run, 2).unwrap());
        assert!(isys.holds(&parse("K1 sent").unwrap(), sent_run, 3).unwrap());
        // p0 cannot tell delivery from loss: ¬K0 K1 sent at any time.
        let k0k1 = parse("K0 K1 sent").unwrap();
        for t in 0..=3 {
            assert!(!isys.holds(&k0k1, sent_run, t).unwrap(), "t={t}");
        }
        // And common knowledge of `sent` fails everywhere.
        let c = parse("C{0,1} sent").unwrap();
        assert!(isys.eval(&c).unwrap().is_empty());
    }

    #[test]
    fn temporal_operators_work_on_interpreted_systems() {
        let isys = interp(msg_system());
        // In the delivered run, at t=0: even(delivered) holds; in the lost
        // run it does not.
        let f = parse("even delivered").unwrap();
        assert!(isys.holds(&f, RunId(0), 0).unwrap());
        assert!(!isys.holds(&f, RunId(1), 0).unwrap());
        // E^◇: p1 eventually knows `sent` only in the delivered run; p0
        // knows it from the start in both.
        let eev = parse("Eev{0,1} sent").unwrap();
        assert!(isys.holds(&eev, RunId(0), 0).unwrap());
        assert!(!isys.holds(&eev, RunId(1), 0).unwrap());
    }

    #[test]
    fn shared_lambda_collapses_hierarchy() {
        let isys = InterpretedSystem::builder(msg_system(), SharedLambda)
            .fact("sent", |_, _| true) // valid fact
            .build();
        // Everything valid is common knowledge under Λ.
        assert!(isys.valid(&parse("C{0,1} sent").unwrap()).unwrap());
    }

    #[test]
    fn valid_and_holds() {
        let isys = interp(msg_system());
        assert!(isys.valid(&parse("sent -> sent").unwrap()).unwrap());
        assert!(!isys.valid(&parse("delivered").unwrap()).unwrap());
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
            let full = isys.eval(&f).unwrap();
            let quot = hm_logic::evaluate(&q.model, &f).unwrap();
            for w in 0..isys.model().num_worlds() {
                let w = WorldId::new(w);
                assert_eq!(full.contains(w), quot.contains(q.image(w)), "{src} at {w}");
            }
        }
        // Unminimised builds carry no quotient.
        assert!(interp(msg_system()).quotient().is_none());
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
