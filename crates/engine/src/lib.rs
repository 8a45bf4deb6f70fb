//! The compiled epistemic query engine: one builder-style pipeline from
//! scenario to verdict.
//!
//! Every experiment of Halpern & Moses, *Knowledge and Common Knowledge
//! in a Distributed Environment* (PODC '84; journal version JACM 1990),
//! walks the same pipeline: enumerate runs (Sections 4–8), build the
//! interpreted system (Section 6), evaluate knowledge and
//! common-knowledge formulas (Appendix A). This crate makes that
//! pipeline a first-class API instead of hand-wired calls:
//!
//! ```text
//! Engine::for_scenario("generals")   // or a parameterized spec string
//!     //            ("agreement:n=4,f=2", "muddy:n=6,dirty=3", …)
//!     //             or from_system / from_model …
//!     .horizon(8)                    // options
//!     .minimize(true)
//!     .build()?                      // -> Session
//!     .ask(&Query::parse("C{0,1} dispatched")?)?  // -> Verdict
//! ```
//!
//! A [`Session`] analyzes and compiles each formula **once** (the
//! [`Analyzer`] simplifies it and lowers the result with `hm-logic`'s
//! [`compile`](hm_logic::compile): interned atoms and groups,
//! preallocated fixed-point slots), binds that program against the
//! frame once, and caches it, so asking the same question repeatedly —
//! or against sweeps of scenario variants — stops paying per-node `&str`
//! atom resolution.
//! With [`Engine::minimize`], construction also builds the frame's
//! bisimulation quotient ([`hm_kripke::minimize`]), and every
//! quotient-safe query (no temporal operators, no `D_G`) is answered on
//! the quotient with verdicts mapped back to the original worlds — the
//! answers are identical by bisimulation invariance, which the test
//! suite checks across the E1–E18 formula suite.
//!
//! # Example
//!
//! ```
//! use hm_engine::{Engine, Query};
//! let session = Engine::for_scenario("generals").horizon(8).build()?;
//! // B knows the messenger was dispatched somewhere; it is never
//! // common knowledge (Corollary 6).
//! let kb = session.ask(&Query::parse("K1 dispatched")?)?;
//! assert!(!kb.is_empty());
//! let ck = session.ask(&Query::parse("C{0,1} dispatched")?)?;
//! assert!(ck.is_empty());
//! # Ok::<(), hm_engine::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub use cache::CAPACITY as FORMULA_CACHE_CAPACITY;
mod scenario;
mod spec;

pub use scenario::{Scenario, ScenarioFrame, ScenarioParams, ScenarioRegistry, Surface};
pub use spec::{
    nearest_name, ParamDescriptor, ParamKind, ParamValue, ParamValues, ScenarioSpec, SpecError,
};

// The analysis types `Session::check` and `check_spec` return, and the
// JSON codec they (and `hm serve`) speak.
pub use hm_logic::{json, Diagnostic, Diagnostics, Severity};

// The resource-governance vocabulary, so engine users need no direct
// `hm-limits` dependency.
pub use hm_limits as limits;
pub use hm_limits::{Budget, CancelToken, LimitExceeded, Limits, Phase, Resource};

use hm_kripke::{minimize, KripkeModel, Minimized, WorldId, WorldSet};
use hm_logic::{
    Analyzer, Bound, CompiledFormula, EvalError, Formula, Frame, IntervalSet, ParseError, F,
};
use hm_netsim::EnumerateError;
use hm_runs::{InterpretedSystem, InterpretedSystemBuilder, RunId, System};
use std::convert::Infallible;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors of the engine pipeline.
#[derive(Debug)]
pub enum EngineError {
    /// The scenario spec failed to parse, named an unregistered
    /// scenario, or carried invalid parameters.
    Spec(SpecError),
    /// Run enumeration failed (scenario construction).
    Enumerate(EnumerateError),
    /// Formula compilation or evaluation failed.
    Eval(EvalError),
    /// Query text failed to parse.
    Parse(ParseError),
    /// A run/time-addressed question was asked of a frame without run
    /// structure (a plain Kripke model).
    NoRunStructure,
    /// A resource ceiling, deadline, or cancellation stopped the
    /// pipeline outside enumeration or evaluation (interpreted-system
    /// build, minimisation). Use [`EngineError::limit`] to match
    /// exhaustion uniformly across phases.
    LimitExceeded(LimitExceeded),
    /// A two-valued query ([`Session::ask`]) was asked of a frame built
    /// under [`Limits::allow_partial`] whose enumeration was truncated:
    /// classical verdicts over a partial run set are unsound. Use
    /// [`Session::ask_partial`] for the three-valued answer.
    PartialFrame,
}

impl EngineError {
    /// The underlying [`LimitExceeded`], whichever phase it surfaced
    /// from — enumeration, build/minimisation, or evaluation. The `hm`
    /// CLI keys its dedicated exit code off this.
    pub fn limit(&self) -> Option<&LimitExceeded> {
        match self {
            EngineError::LimitExceeded(e) => Some(e),
            EngineError::Enumerate(EnumerateError::Limit(e)) => Some(e),
            EngineError::Eval(EvalError::Limit(e)) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Spec(e) => write!(f, "{e}"),
            EngineError::Enumerate(e) => write!(f, "enumeration: {e}"),
            EngineError::Eval(e) => write!(f, "evaluation: {e}"),
            EngineError::Parse(e) => write!(f, "parse: {e}"),
            EngineError::NoRunStructure => {
                write!(
                    f,
                    "frame has no run/time structure for a point-addressed query"
                )
            }
            EngineError::LimitExceeded(e) => write!(f, "{e}"),
            EngineError::PartialFrame => {
                write!(
                    f,
                    "frame was truncated by a resource budget; two-valued answers \
                     are unsound — use ask_partial for a three-valued verdict"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<LimitExceeded> for EngineError {
    fn from(e: LimitExceeded) -> Self {
        EngineError::LimitExceeded(e)
    }
}

impl From<EnumerateError> for EngineError {
    fn from(e: EnumerateError) -> Self {
        EngineError::Enumerate(e)
    }
}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> Self {
        EngineError::Spec(e)
    }
}

impl From<EvalError> for EngineError {
    fn from(e: EvalError) -> Self {
        EngineError::Eval(e)
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

/// A question to ask a [`Session`]: a closed formula of the epistemic
/// µ-calculus (see `hm-logic` for the syntax).
#[derive(Debug, Clone)]
pub struct Query {
    formula: F,
}

impl Query {
    /// Parses the textual syntax (e.g. `"K0 K1 dispatched"`).
    ///
    /// # Errors
    ///
    /// [`EngineError::Parse`].
    pub fn parse(src: &str) -> Result<Self, EngineError> {
        Ok(Query {
            formula: hm_logic::parse(src)?,
        })
    }

    /// Wraps an already-built formula.
    pub fn new(formula: F) -> Self {
        Query { formula }
    }

    /// The underlying formula.
    pub fn formula(&self) -> &F {
        &self.formula
    }
}

impl From<F> for Query {
    fn from(formula: F) -> Self {
        Query { formula }
    }
}

impl std::str::FromStr for Query {
    type Err = EngineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Query::parse(s)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.formula)
    }
}

/// The answer to a [`Query`]: the set of worlds (points) where the
/// formula holds, over the session frame's universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    satisfying: WorldSet,
}

impl Verdict {
    /// The satisfying set.
    pub fn satisfying(&self) -> &WorldSet {
        &self.satisfying
    }

    /// Number of satisfying worlds.
    pub fn count(&self) -> usize {
        self.satisfying.count()
    }

    /// `true` iff the formula holds nowhere.
    pub fn is_empty(&self) -> bool {
        self.satisfying.is_empty()
    }

    /// `true` iff the formula is valid in the system (holds everywhere) —
    /// the Section 6 validity notion.
    pub fn is_valid(&self) -> bool {
        self.satisfying.is_full()
    }

    /// `true` iff the formula holds at `w`.
    pub fn holds_at(&self, w: WorldId) -> bool {
        self.satisfying.contains(w)
    }
}

/// A three-valued truth value, for verdicts over budget-truncated
/// frames: `Unknown` means the surviving runs cannot settle the answer
/// either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trilean {
    /// Definitely holds (at every completion of the partial frame).
    True,
    /// Definitely fails.
    False,
    /// The partial frame cannot settle it.
    Unknown,
}

impl fmt::Display for Trilean {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trilean::True => write!(f, "true"),
            Trilean::False => write!(f, "false"),
            Trilean::Unknown => write!(f, "unknown"),
        }
    }
}

/// The answer to a [`Query`] over a possibly-truncated frame: a sound
/// interval `[definitely, possibly]` bracketing the formula's true
/// satisfying set (see [`Session::ask_partial`]). Points inside
/// `definitely` hold under *every* completion of the partial run set;
/// points outside `possibly` fail under every completion; the rest are
/// [`Trilean::Unknown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialVerdict {
    interval: IntervalSet,
    partial: bool,
}

impl PartialVerdict {
    /// The underlying `[lo, hi]` interval.
    pub fn interval(&self) -> &IntervalSet {
        &self.interval
    }

    /// Points where the formula definitely holds.
    pub fn definitely(&self) -> &WorldSet {
        self.interval.lo()
    }

    /// Points where the formula possibly holds (its complement
    /// definitely fails).
    pub fn possibly(&self) -> &WorldSet {
        self.interval.hi()
    }

    /// The three-valued verdict at one point.
    pub fn status_at(&self, w: WorldId) -> Trilean {
        match self.interval.status_at(w) {
            Some(true) => Trilean::True,
            Some(false) => Trilean::False,
            None => Trilean::Unknown,
        }
    }

    /// Number of points that the interval cannot settle.
    pub fn unknown_count(&self) -> usize {
        self.interval.hi().count() - self.interval.lo().count()
    }

    /// `true` when both bounds agree everywhere — always the case on a
    /// full frame, possible on a truncated one when the query is
    /// knowledge-free.
    pub fn is_exact(&self) -> bool {
        self.interval.is_exact()
    }

    /// Whether the session frame this verdict came from was truncated.
    pub fn from_partial_frame(&self) -> bool {
        self.partial
    }

    /// Validity as a three-valued verdict: `True` when the formula
    /// definitely holds everywhere, `False` when it definitely fails
    /// somewhere, `Unknown` otherwise.
    pub fn valid(&self) -> Trilean {
        if self.interval.lo().is_full() {
            Trilean::True
        } else if !self.interval.hi().is_full() {
            Trilean::False
        } else {
            Trilean::Unknown
        }
    }

    /// Emptiness as a three-valued verdict: `True` when the formula
    /// definitely holds nowhere, `False` when it definitely holds
    /// somewhere, `Unknown` otherwise.
    pub fn empty(&self) -> Trilean {
        if self.interval.hi().is_empty() {
            Trilean::True
        } else if !self.interval.lo().is_empty() {
            Trilean::False
        } else {
            Trilean::Unknown
        }
    }
}

enum Source {
    Named(String),
    Scenario(Box<dyn Scenario>),
    Builder(InterpretedSystemBuilder),
    Interpreted(Box<InterpretedSystem>),
    Model(KripkeModel),
}

/// The pipeline builder: pick a source, set options, [`build`] a
/// [`Session`].
///
/// [`build`]: Engine::build
pub struct Engine {
    source: Source,
    params: ScenarioParams,
    minimize: bool,
    limits: Limits,
}

impl Engine {
    fn new(source: Source) -> Self {
        Engine {
            source,
            params: ScenarioParams::default(),
            minimize: false,
            limits: Limits::none(),
        }
    }

    /// Starts from a scenario spec string resolved against the built-in
    /// registry ([`ScenarioRegistry::builtin`]): a plain name
    /// (`"generals"`, `"muddy"`, `"ok"`) uses each parameter's default,
    /// and `name:key=value,...` configures the frame —
    /// `"agreement:n=4,f=2"`, `"muddy:n=6,dirty=3"`, `"r2d2:eps=3"`,
    /// `"skewed:skew=2"`. See `SCENARIOS.md` for the catalog. The spec
    /// is validated at [`build`](Engine::build) time.
    ///
    /// # Examples
    ///
    /// ```
    /// use hm_engine::{Engine, Query};
    /// // Simultaneous agreement under crash failures, 3 processors,
    /// // at most 1 crash. The decision value is common knowledge:
    /// let session = Engine::for_scenario("agreement:n=3,f=1").build()?;
    /// let ck = session.ask(&Query::parse("C{0,1,2} min0")?)?;
    /// assert!(!ck.is_empty());
    /// // `agreement:n=4,f=2` is the same family two sizes up (~57k
    /// // runs — validate cheaply, build when you mean it):
    /// let engine = Engine::for_scenario("agreement:n=4,f=2");
    /// # let _ = engine;
    /// # Ok::<(), hm_engine::EngineError>(())
    /// ```
    pub fn for_scenario(spec: impl Into<String>) -> Engine {
        Engine::new(Source::Named(spec.into()))
    }

    /// Starts from a custom [`Scenario`] value.
    pub fn with_scenario(scenario: impl Scenario + 'static) -> Engine {
        Engine::new(Source::Scenario(Box::new(scenario)))
    }

    /// Starts from an interpretation builder — a [`System`] of runs with
    /// view and facts attached (`InterpretedSystem::builder(..).fact(..)`)
    /// — leaving materialisation (and minimisation) to the engine.
    pub fn from_system(builder: InterpretedSystemBuilder) -> Engine {
        Engine::new(Source::Builder(builder))
    }

    /// Starts from an already-materialised interpreted system.
    pub fn from_interpreted(isys: InterpretedSystem) -> Engine {
        Engine::new(Source::Interpreted(Box::new(isys)))
    }

    /// Starts from a finite Kripke model.
    pub fn from_model(model: KripkeModel) -> Engine {
        Engine::new(Source::Model(model))
    }

    /// Overrides the scenario's horizon — both its default and any
    /// `horizon=` spec parameter (scenario sources only; ignored for
    /// pre-built sources, whose horizon is already fixed, and for
    /// scenarios without a time horizon).
    pub fn horizon(mut self, h: u64) -> Self {
        self.params.horizon = Some(h);
        self
    }

    /// Adds bisimulation minimisation to construction: quotient-safe
    /// queries (no temporal operators, no `D_G`) are answered on the
    /// coarsest-bisimulation quotient, with verdicts mapped back to the
    /// original universe — identical answers, usually far fewer worlds.
    pub fn minimize(mut self, on: bool) -> Self {
        self.minimize = on;
        self
    }

    /// Sets the resource governance for the whole pipeline: run and
    /// world ceilings, a visited-state ceiling, a deadline/timeout, a
    /// [`CancelToken`], and the [`Limits::allow_partial`] degradation
    /// mode. One [`Budget`] derived from these limits spans enumeration,
    /// interpreted-system build, minimisation, *and* every later
    /// [`Session`] evaluation — a timeout is a deadline on the pipeline,
    /// not per phase. Exhaustion surfaces as a typed error from
    /// whichever phase hits it ([`EngineError::limit`] matches them
    /// uniformly); no phase panics or leaves a corrupt session.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Runs the pipeline: construct the frame, apply options, return a
    /// query [`Session`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Spec`] for malformed specs, unregistered names
    /// (with a nearest-name suggestion), and invalid parameters;
    /// [`EngineError::Enumerate`] from scenario construction; or
    /// [`EngineError::LimitExceeded`] when the [`limits`](Engine::limits)
    /// budget is exhausted during interpreted-system build or
    /// minimisation.
    pub fn build(self) -> Result<Session, EngineError> {
        // The deadline clock starts here and spans every phase.
        let budget = self.limits.budget();
        let materialise = |frame: ScenarioFrame| -> Result<SessionFrame, EngineError> {
            Ok(match frame {
                ScenarioFrame::Model(m) => SessionFrame::Model(m),
                ScenarioFrame::Interpreted(b) => SessionFrame::Interpreted(Box::new(
                    b.minimized(self.minimize)
                        .budget(budget.clone())
                        .try_build()?,
                )),
            })
        };
        let frame = match self.source {
            Source::Named(spec) => {
                let (scenario, values) = ScenarioRegistry::shared().resolve(&spec)?;
                let params = ScenarioParams {
                    values,
                    budget: budget.clone(),
                    ..self.params
                };
                materialise(scenario.build(&params)?)?
            }
            Source::Scenario(s) => {
                // A directly-passed scenario skips registry resolution,
                // so fill its declared defaults here — its `build` reads
                // the typed accessors just like a registry-served one.
                let params = ScenarioParams {
                    values: ParamValues::defaults(&s.params()),
                    budget: budget.clone(),
                    ..self.params
                };
                materialise(s.build(&params)?)?
            }
            Source::Builder(b) => materialise(ScenarioFrame::Interpreted(b))?,
            Source::Interpreted(isys) => SessionFrame::Interpreted(isys),
            Source::Model(m) => SessionFrame::Model(m),
        };
        // Sources that arrive without a quotient (models, pre-built
        // interpreted systems) are minimised here, under the same budget.
        // A partial frame is not: `ask` refuses it and `ask_partial`
        // evaluates on the frame itself.
        let late_quotient = match &frame {
            _ if !self.minimize => None,
            SessionFrame::Interpreted(isys) if isys.is_partial() => None,
            SessionFrame::Model(m) => Some(minimize(m, &budget)?),
            SessionFrame::Interpreted(isys) if isys.quotient().is_none() => {
                Some(minimize(isys.model(), &budget)?)
            }
            SessionFrame::Interpreted(_) => None,
        };
        Ok(Session {
            frame,
            late_quotient,
            minimize: self.minimize,
            budget,
            formulas: cache::ShardedMap::new(),
            compiled: AtomicU64::new(0),
        })
    }
}

enum SessionFrame {
    Model(KripkeModel),
    Interpreted(Box<InterpretedSystem>),
}

/// What a session keeps for one formula: the analyzer's report and, when
/// the report has no error, the program the analyzer compiled from the
/// simplified formula, bound to the frame. Otherwise the error every ask
/// of the formula reports.
struct Entry {
    report: Arc<Diagnostics>,
    program: Result<Program, EvalError>,
}

struct Program {
    compiled: CompiledFormula,
    full: Bound,
    /// Present when the query is quotient-safe and a quotient exists.
    quotient: Option<Bound>,
}

/// An open query session against one frame: compiles each distinct
/// formula once, binds its atom table once per frame, and answers
/// [`Query`] values. Obtain one from [`Engine::build`].
///
/// A `Session` is `Send + Sync`: all query methods take `&self`, and the
/// per-formula compile/bind caches are striped over independent locks
/// (see the crate's `cache` module), so one session — typically behind
/// an [`Arc`] — can serve many threads concurrently with verdicts
/// identical to serial evaluation. Evaluations on all threads charge the
/// one shared pipeline [`Budget`].
pub struct Session {
    frame: SessionFrame,
    /// Quotient for sources that arrive without one (a model, or an
    /// interpreted system built unminimised).
    late_quotient: Option<Minimized>,
    minimize: bool,
    /// The pipeline budget, shared with the construction phases:
    /// evaluations charge the same visited-state ceiling and observe the
    /// same deadline and cancel token.
    budget: Budget,
    /// One entry per formula, keyed by the *original* formula (the
    /// program is compiled from the simplified one).
    formulas: cache::ShardedMap<Arc<Entry>>,
    /// Programs compiled and bound into `formulas`, evicted ones included.
    compiled: AtomicU64,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("worlds", &self.num_worlds())
            .field("minimize", &self.minimize)
            .field("cached_queries", &self.formulas.len())
            .finish()
    }
}

impl Session {
    /// `true` when the frame was truncated by a partial-mode budget: the
    /// run set is an under-approximation of the scenario's. Two-valued
    /// queries are rejected ([`EngineError::PartialFrame`]); use
    /// [`ask_partial`](Self::ask_partial).
    pub fn is_partial(&self) -> bool {
        match &self.frame {
            SessionFrame::Interpreted(isys) => isys.is_partial(),
            SessionFrame::Model(_) => false,
        }
    }

    /// The frame queries are evaluated against.
    pub fn frame(&self) -> &dyn Frame {
        match &self.frame {
            SessionFrame::Model(m) => m,
            SessionFrame::Interpreted(isys) => &**isys,
        }
    }

    /// The interpreted system, when the session has run structure.
    pub fn interpreted(&self) -> Option<&InterpretedSystem> {
        match &self.frame {
            SessionFrame::Interpreted(isys) => Some(&**isys),
            SessionFrame::Model(_) => None,
        }
    }

    /// The underlying system of runs, when the session has run structure.
    pub fn system(&self) -> Option<&System> {
        self.interpreted().map(InterpretedSystem::system)
    }

    /// The Kripke model, for model-sourced sessions.
    pub fn kripke(&self) -> Option<&KripkeModel> {
        match &self.frame {
            SessionFrame::Model(m) => Some(m),
            SessionFrame::Interpreted(_) => None,
        }
    }

    /// The active bisimulation quotient, if minimisation is on and the
    /// frame is not [partial](Self::is_partial).
    pub fn quotient(&self) -> Option<&Minimized> {
        self.late_quotient.as_ref().or_else(|| match &self.frame {
            SessionFrame::Interpreted(isys) => isys.quotient(),
            SessionFrame::Model(_) => None,
        })
    }

    /// Number of worlds (points) in the frame.
    pub fn num_worlds(&self) -> usize {
        self.frame().num_worlds()
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.frame().num_agents()
    }

    /// Diagnostic name of a world: the point name `run@t` for
    /// interpreted sessions, the build-time label for model sessions.
    pub fn world_name(&self, w: WorldId) -> String {
        match &self.frame {
            SessionFrame::Model(m) => m.world_label(w).to_string(),
            SessionFrame::Interpreted(isys) => isys.point_name(w),
        }
    }

    /// Answers a query: the full satisfying set as a [`Verdict`].
    ///
    /// The formula is compiled and bound on first ask and cached;
    /// subsequent asks of an equal formula run the compiled program
    /// directly. Quotient-safe queries under `minimize` are evaluated on
    /// the quotient and mapped back.
    ///
    /// # Errors
    ///
    /// [`EngineError::Eval`] for ill-formed formulas (unknown atom,
    /// unbound variable, non-monotone binder, agent out of range,
    /// temporal operator on a static frame).
    pub fn ask(&self, query: &Query) -> Result<Verdict, EngineError> {
        Ok(Verdict {
            satisfying: self.satisfying(query)?,
        })
    }

    /// The static-analysis report for a query: typed diagnostics and
    /// inferred facts (see [`Diagnostics`]), produced *without
    /// evaluating* and cached per formula. [`ask`](Self::ask) consults
    /// the same report, so checking first costs nothing extra.
    pub fn check(&self, query: &Query) -> Arc<Diagnostics> {
        Arc::clone(&self.entry(query).report)
    }

    /// The cached entry of a query, analysed and bound on first sight.
    fn entry(&self, query: &Query) -> Arc<Entry> {
        let f: &Formula = query.formula();
        let mut made = None;
        let entry = self
            .formulas
            .get_or_insert_with(f, || {
                let entry = Arc::new(self.analyze(f));
                made = Some(Arc::clone(&entry));
                Ok::<_, Infallible>(entry)
            })
            .unwrap_or_else(|e| match e {});
        // Count a compilation only when this ask's entry won the insert
        // race and holds a program.
        if made.is_some_and(|m| Arc::ptr_eq(&m, &entry)) && entry.program.is_ok() {
            self.compiled.fetch_add(1, Ordering::Relaxed);
        }
        entry
    }

    /// Analyses `f` and binds the program the analyzer compiled.
    fn analyze(&self, f: &Formula) -> Entry {
        let (report, program) = Analyzer::new()
            .frame(self.frame())
            .minimize(self.minimize)
            .analyze_with_program(f);
        // One diagnostic source of truth: the analyzer replays
        // compile-then-bind errors exactly (pinned by hm-logic's
        // differential tests), so gate on its report of the *original*
        // formula, then bind the program it compiled from the simplified
        // one — smaller, with the identical verdict.
        let program = match report.first_error_as_eval() {
            Some(err) => Err(err),
            None => program.and_then(|compiled| {
                let full = compiled.bind(self.frame())?;
                let quotient = match self.quotient() {
                    Some(q) if self.minimize && compiled.quotient_safe() => {
                        Some(compiled.bind(&q.model)?)
                    }
                    _ => None,
                };
                Ok(Program {
                    compiled,
                    full,
                    quotient,
                })
            }),
        };
        Entry {
            report: Arc::new(report),
            program,
        }
    }

    /// The satisfying set of a query (see [`ask`](Self::ask)).
    ///
    /// # Errors
    ///
    /// See [`ask`](Self::ask).
    pub fn satisfying(&self, query: &Query) -> Result<WorldSet, EngineError> {
        if self.is_partial() {
            return Err(EngineError::PartialFrame);
        }
        let entry = self.entry(query);
        let program = entry.program.as_ref().map_err(Clone::clone)?;
        if let Some(qbound) = &program.quotient {
            let q = self.quotient().expect("bound against existing quotient");
            let on_quotient =
                program
                    .compiled
                    .eval_bound_budgeted(&q.model, qbound, &self.budget)?;
            let n = self.frame().num_worlds();
            let mut out = WorldSet::empty(n);
            for w in 0..n {
                if on_quotient.contains(q.image(WorldId::new(w))) {
                    out.insert(WorldId::new(w));
                }
            }
            Ok(out)
        } else {
            Ok(program
                .compiled
                .eval_bound_budgeted(self.frame(), &program.full, &self.budget)?)
        }
    }

    /// Answers a query with a *three-valued* verdict, sound on frames
    /// whose run set was truncated by a partial-mode budget: at every
    /// surviving point the answer is definitely-true, definitely-false,
    /// or [`Trilean::Unknown`] — never a wrong definite. On a full
    /// (untruncated) frame this delegates to [`ask`](Self::ask), so the
    /// interval is exact. On a partial frame it runs the same cached
    /// program `ask` would (same analyzer gate, same errors) in the
    /// interval domain, on the frame itself — never on the quotient.
    /// Both paths charge the same session budget as `ask`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Eval`] as for [`ask`](Self::ask), including budget
    /// exhaustion during evaluation.
    pub fn ask_partial(&self, query: &Query) -> Result<PartialVerdict, EngineError> {
        if !self.is_partial() {
            let exact = self.satisfying(query)?;
            return Ok(PartialVerdict {
                interval: IntervalSet::exact(exact),
                partial: false,
            });
        }
        let entry = self.entry(query);
        let program = entry.program.as_ref().map_err(Clone::clone)?;
        let interval =
            program
                .compiled
                .eval_bound_interval(self.frame(), &program.full, &self.budget)?;
        Ok(PartialVerdict {
            interval,
            partial: true,
        })
    }

    /// `true` iff the query is valid in the system (holds at every
    /// world).
    ///
    /// # Errors
    ///
    /// See [`ask`](Self::ask).
    pub fn valid(&self, query: &Query) -> Result<bool, EngineError> {
        Ok(self.satisfying(query)?.is_full())
    }

    /// `true` iff the query holds at point `(run, t)` (interpreted
    /// sessions only).
    ///
    /// # Errors
    ///
    /// [`EngineError::NoRunStructure`] on model sessions; otherwise see
    /// [`ask`](Self::ask).
    ///
    /// # Panics
    ///
    /// Panics if `(run, t)` is outside the system.
    pub fn holds_at(&self, query: &Query, run: RunId, t: u64) -> Result<bool, EngineError> {
        let w = match &self.frame {
            SessionFrame::Interpreted(isys) => isys.world(run, t),
            SessionFrame::Model(_) => return Err(EngineError::NoRunStructure),
        };
        Ok(self.satisfying(query)?.contains(w))
    }

    /// Number of distinct formulas compiled so far (diagnostics): a
    /// monotone count, one per first ask of a well-formed formula. A
    /// formula asked again after the cache evicted it is compiled, and
    /// counted, again.
    pub fn compiled_queries(&self) -> usize {
        self.compiled.load(Ordering::Relaxed) as usize
    }

    /// Number of formulas the session holds now, ill-formed ones (kept
    /// with their report) included: at most [`FORMULA_CACHE_CAPACITY`].
    pub fn cached_queries(&self) -> usize {
        self.formulas.len()
    }

    /// Formulas the session's cache has evicted to stay within
    /// [`FORMULA_CACHE_CAPACITY`], each counted once.
    pub fn formula_evictions(&self) -> u64 {
        self.formulas.evicted()
    }
}

/// Lints `query` against the *surface* of `spec` — the vocabulary, agent
/// count, temporal capability and horizon the scenario declares (see
/// [`Surface`]) — without building the frame: `agreement:n=4,f=2` is
/// ~57k runs to build but microseconds to check. `horizon` overrides the
/// spec's horizon parameter (mirroring [`Engine::horizon`]); `minimize`
/// adds quotient-safety warnings (mirroring [`Engine::minimize`]).
///
/// # Errors
///
/// [`EngineError::Spec`] for malformed specs or parameters and
/// [`EngineError::Parse`] for unparseable queries. Findings about a
/// well-formed query are the `Ok` payload.
///
/// # Examples
///
/// ```
/// use hm_engine::check_spec;
/// let report = check_spec("generals", "C{0,1} dispatchd", None, false)?;
/// assert!(report.has_errors()); // typo: unknown atom
/// assert!(check_spec("generals", "C{0,1} dispatched", None, false)?.is_clean());
/// # Ok::<(), hm_engine::EngineError>(())
/// ```
pub fn check_spec(
    spec: &str,
    query: &str,
    horizon: Option<u64>,
    minimize_on: bool,
) -> Result<Diagnostics, EngineError> {
    let (scenario, values) = ScenarioRegistry::shared().resolve(spec)?;
    let params = ScenarioParams {
        horizon,
        values,
        budget: Budget::unlimited(),
    };
    let surface = scenario.surface(&params);
    let f = hm_logic::parse(query)?;
    let mut analyzer = Analyzer::new().minimize(minimize_on);
    if let Some(atoms) = surface.atoms.as_deref() {
        analyzer = analyzer.vocabulary(atoms);
    }
    if let Some(n) = surface.num_agents {
        analyzer = analyzer.num_agents(n);
    }
    if let Some(t) = surface.temporal {
        analyzer = analyzer.temporal(t);
    }
    if let Some(h) = surface.horizon {
        analyzer = analyzer.horizon(h);
    }
    Ok(analyzer.analyze(&f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_kripke::AgentId;
    use hm_runs::{CompleteHistory, Event, Message, SystemBuilder};

    #[test]
    fn session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        assert_send_sync::<Verdict>();
        assert_send_sync::<EngineError>();
    }

    /// The `idx`-th of an endless family of distinct formulas over the
    /// `muddy:n=2` vocabulary: an atom under a bijective base-5 chain
    /// of operators.
    fn nth_formula(idx: usize) -> hm_logic::F {
        let mut f = Formula::atom(["m", "muddy0", "muddy1"][idx % 3]);
        let mut rest = idx / 3;
        while rest > 0 {
            rest -= 1;
            // Constructors that never rewrite, so distinct chains stay
            // distinct formulas (`Formula::not` would cancel `!!`).
            f = match rest % 5 {
                0 => Formula::Not(f).arc(),
                1 => Formula::knows(AgentId::new(0), f),
                2 => Formula::knows(AgentId::new(1), f),
                3 => Formula::implies(f, Formula::atom("m")),
                _ => Formula::iff(f, Formula::atom("muddy1")),
            };
            rest /= 5;
        }
        f
    }

    #[test]
    fn formula_caches_stay_at_capacity() {
        let session = Engine::for_scenario("muddy:n=2").build().unwrap();
        let asks = 10 * FORMULA_CACHE_CAPACITY;
        for idx in 0..asks {
            let query = Query::new(nth_formula(idx));
            let verdict = session.ask(&query).unwrap();
            assert_eq!(session.compiled_queries(), idx + 1, "one compile per miss");
            assert_eq!(session.ask(&query).unwrap(), verdict, "the hit agrees");
            assert_eq!(session.compiled_queries(), idx + 1, "no compile on a hit");
            assert!(session.cached_queries() <= FORMULA_CACHE_CAPACITY);
            let fresh = Engine::for_scenario("muddy:n=2").build().unwrap();
            assert_eq!(fresh.ask(&query).unwrap(), verdict, "{query}");
        }
        assert_eq!(session.cached_queries(), FORMULA_CACHE_CAPACITY);
        let evicted = (asks - FORMULA_CACHE_CAPACITY) as u64;
        assert_eq!(
            session.formula_evictions(),
            evicted,
            "one entry per formula, each eviction counted once"
        );
        // Evicted formulas are recompiled and still answer correctly.
        let query = Query::new(nth_formula(0));
        let fresh = Engine::for_scenario("muddy:n=2").build().unwrap();
        assert_eq!(session.ask(&query).unwrap(), fresh.ask(&query).unwrap());
        assert_eq!(session.compiled_queries(), asks + 1);
    }

    #[test]
    fn scenario_pipeline_answers_queries() {
        let session = Engine::for_scenario("generals").horizon(8).build().unwrap();
        let kb = session
            .ask(&Query::parse("K1 dispatched").unwrap())
            .unwrap();
        assert!(!kb.is_empty());
        let ck = session
            .ask(&Query::parse("C{0,1} dispatched").unwrap())
            .unwrap();
        assert!(ck.is_empty(), "Corollary 6");
        assert_eq!(session.compiled_queries(), 2);
        // Asking again reuses the cache.
        session
            .ask(&Query::parse("K1 dispatched").unwrap())
            .unwrap();
        assert_eq!(session.compiled_queries(), 2);
    }

    #[test]
    fn asks_run_the_program_the_analyzer_built() {
        let session = Engine::for_scenario("generals:horizon=3")
            .minimize(true)
            .build()
            .unwrap();
        for (src, on_quotient) in [
            ("D{0,1} dispatched | true", true),
            ("dispatched & D{0,1} dispatched", false),
            ("C{0,1} dispatched", true),
        ] {
            let q = Query::parse(src).unwrap();
            // One entry holds the report and the program it was built
            // with, so the quotient decision and the report agree.
            let entry = session.entry(&q);
            let program = entry.program.as_ref().unwrap();
            assert_eq!(program.quotient.is_some(), on_quotient, "{src}");
            assert_eq!(entry.report.facts().quotient_safe, on_quotient, "{src}");
            let warned = entry
                .report
                .warnings()
                .iter()
                .any(|w| w.code() == "not-quotient-safe");
            assert_eq!(warned, !on_quotient, "{src}");
        }
    }

    #[test]
    fn unknown_scenario_errors() {
        let err = Engine::for_scenario("zap").build().unwrap_err();
        assert!(matches!(
            err,
            EngineError::Spec(SpecError::UnknownScenario { .. })
        ));
        assert!(err.to_string().contains("zap"));
    }

    #[test]
    fn with_scenario_fills_declared_defaults() {
        // A custom scenario that declares parameters and reads them
        // through the typed accessors must see its defaults when passed
        // directly (no registry resolution on this path).
        struct Sized;
        impl Scenario for Sized {
            fn name(&self) -> String {
                "sized".into()
            }
            fn params(&self) -> Vec<ParamDescriptor> {
                vec![ParamDescriptor::int("n", 3, 2, 8, "children")]
            }
            fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
                use hm_core::puzzles::muddy::MuddyChildren;
                Ok(ScenarioFrame::Model(
                    MuddyChildren::new(params.values.size("n")).model().clone(),
                ))
            }
        }
        let session = Engine::with_scenario(Sized).build().unwrap();
        assert_eq!(session.num_worlds(), 8, "default n = 3");
    }

    #[test]
    fn spec_strings_configure_scenarios() {
        let small = Engine::for_scenario("generals:horizon=4").build().unwrap();
        let large = Engine::for_scenario("generals:horizon=8").build().unwrap();
        assert!(small.num_worlds() < large.num_worlds());
        // An explicit Engine::horizon overrides the spec parameter.
        let overridden = Engine::for_scenario("generals:horizon=4")
            .horizon(8)
            .build()
            .unwrap();
        assert_eq!(overridden.num_worlds(), large.num_worlds());
        let q = Query::parse("C{0,1} dispatched").unwrap();
        for s in [&small, &large, &overridden] {
            assert!(s.ask(&q).unwrap().is_empty(), "Corollary 6 at any horizon");
        }
        // Bad parameters surface as spec errors with the offending key.
        let err = Engine::for_scenario("generals:horizon=99")
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::Spec(SpecError::OutOfRange { .. })
        ));
        assert!(err.to_string().contains("horizon"), "{err}");
    }

    #[test]
    fn from_system_pipeline() {
        let msg = Message::tagged(1);
        let mut runs = SystemBuilder::new();
        runs.run("sent", 2, 3)
            .wake(AgentId::new(0), 0, 0)
            .wake(AgentId::new(1), 0, 0)
            .event(
                AgentId::new(0),
                1,
                Event::Send {
                    to: AgentId::new(1),
                    msg,
                },
            )
            .event(
                AgentId::new(1),
                2,
                Event::Recv {
                    from: AgentId::new(0),
                    msg,
                },
            )
            .finish();
        runs.run("lost", 2, 3)
            .wake(AgentId::new(0), 0, 0)
            .wake(AgentId::new(1), 0, 0)
            .event(
                AgentId::new(0),
                1,
                Event::Send {
                    to: AgentId::new(1),
                    msg,
                },
            )
            .finish();
        let builder =
            InterpretedSystem::builder(runs.build(), CompleteHistory).fact("sent", |run, t| {
                run.proc(AgentId::new(0))
                    .events_before(t + 1)
                    .any(|e| matches!(e.event, Event::Send { .. }))
            });
        let session = Engine::from_system(builder).build().unwrap();
        let q = Query::parse("K1 sent").unwrap();
        assert!(session.holds_at(&q, RunId(0), 3).unwrap());
        assert!(!session.holds_at(&q, RunId(1), 3).unwrap());
        assert!(session
            .valid(&Query::parse("sent -> sent").unwrap())
            .unwrap());
    }

    #[test]
    fn minimized_sessions_agree_with_raw() {
        let raw = Engine::for_scenario("generals").horizon(8).build().unwrap();
        let min = Engine::for_scenario("generals")
            .horizon(8)
            .minimize(true)
            .build()
            .unwrap();
        assert!(min.quotient().is_some());
        assert!(
            min.quotient().unwrap().model.num_worlds() < min.num_worlds(),
            "generals quotient actually shrinks"
        );
        for src in [
            "dispatched",
            "K0 dispatched",
            "K1 K0 K1 dispatched",
            "E{0,1} dispatched",
            "C{0,1} dispatched",
            "S{0,1} !dispatched",
            // Temporal and D fall back to the full frame.
            "even dispatched",
            "D{0,1} dispatched",
        ] {
            let q = Query::parse(src).unwrap();
            assert_eq!(
                raw.satisfying(&q).unwrap(),
                min.satisfying(&q).unwrap(),
                "{src}"
            );
        }
    }

    #[test]
    fn model_sessions_reject_point_queries() {
        let session = Engine::for_scenario("muddy:n=4").build().unwrap();
        let q = Query::parse("m").unwrap();
        assert!(!session.ask(&q).unwrap().is_empty());
        assert!(matches!(
            session.holds_at(&q, RunId(0), 0),
            Err(EngineError::NoRunStructure)
        ));
        assert!(session.world_name(WorldId::new(0)).starts_with(""));
    }
}
