//! The scenario registry: every worked frame of the paper,
//! constructible from a spec string.
//!
//! Every experiment in Halpern–Moses walks the same pipeline — enumerate
//! runs, interpret them, evaluate formulas — against one of a small set
//! of worked examples. A [`Scenario`] packages the first two steps: it
//! knows how to produce either a finite Kripke model or an
//! interpretation *builder* (facts attached, not yet materialised), so
//! the [`Engine`](crate::Engine) can apply its options — horizon,
//! minimisation, resource limits — uniformly before building.
//!
//! [`ScenarioRegistry::builtin`] registers one entry per frame family of
//! the E1–E18 experiments, each parameterized through the spec grammar
//! of [`ScenarioSpec`](crate::ScenarioSpec) (see `SCENARIOS.md` at the
//! repository root for the full catalog):
//!
//! | name | frame | paper |
//! |---|---|---|
//! | `muddy` | the muddy-children cube, optionally announced | Section 2 |
//! | `generals` | the coordinated-attack handshake | Sections 4, 7 |
//! | `generals-unbounded` | one-shot send under unbounded delay | Section 7 |
//! | `r2d2`, `r2d2-exact`, `r2d2-timestamped` | the ε-delay channel | Section 8 |
//! | `uncertain-start` | uncertain wake times (Proposition 15) | Section 8, App. B |
//! | `ok` | the OK protocol over instant-or-lost delivery | Section 11 |
//! | `skewed` | broadcast with skewed clocks (Theorem 12) | Section 12 |
//! | `agreement` | simultaneous agreement under crash failures | Section 11 fn. 5 |
//! | `deadlock` | probe-based deadlock discovery/publication | Section 3 |
//! | `consistency` | the eager-interpretation IKC frame | Section 13 |
//! | `views` | two runs under a selectable view function | Section 6 |
//! | `random` | a seeded pseudo-random S5 model | Appendix A |
//!
//! Custom scenarios implement [`Scenario`] and go through
//! [`Engine::with_scenario`](crate::Engine::with_scenario) or
//! [`ScenarioRegistry::register`].

use crate::spec::{nearest_name, ParamDescriptor, ParamValues, ScenarioSpec, SpecError};
use crate::EngineError;
use hm_core::agreement::{agreement_builder, AgreementSpec, Reduction};
use hm_core::attain::uncertain_start_builder;
use hm_core::discovery::deadlock_builder;
use hm_core::frames::{consistency_builder, two_send_views_builder, ViewKind};
use hm_core::puzzles::attack::{generals_builder, generals_unbounded_builder};
use hm_core::puzzles::muddy::MuddyChildren;
use hm_core::puzzles::r2d2::r2d2_parts;
use hm_core::variants::{ok_builder, skewed_broadcast_builder};
use hm_kripke::{random_model, KripkeModel, RandomModelSpec};
use hm_limits::Budget;
use hm_netsim::scenarios::R2d2Mode;
use hm_runs::InterpretedSystemBuilder;
use std::sync::OnceLock;

/// Options the engine forwards into scenario construction.
#[derive(Debug, Clone, Default)]
pub struct ScenarioParams {
    /// Horizon override; `None` uses the spec's `horizon` parameter (or
    /// the scenario's default).
    pub horizon: Option<u64>,
    /// The resolved spec parameters (defaults filled in). Empty for
    /// scenarios built outside the registry.
    pub values: ParamValues,
    /// The pipeline resource budget ([`Engine::limits`](crate::Engine::limits)).
    /// Scenarios that enumerate runs should thread it into their
    /// enumeration so ceilings, deadlines, and cancellation govern the
    /// expensive phase; the default is unlimited.
    pub budget: Budget,
}

impl ScenarioParams {
    /// The horizon to use, given the scenario's default.
    pub fn horizon_or(&self, default: u64) -> u64 {
        self.horizon.unwrap_or(default)
    }
}

/// What is knowable about a scenario's frame *without building it*: the
/// atom vocabulary, the agent count, whether runs (and hence temporal
/// operators) exist, and the time horizon. `hm check` feeds a `Surface`
/// to the [`Analyzer`](hm_logic::Analyzer) so a query can be linted
/// against `agreement:n=4,f=2` (~57k runs) in microseconds.
///
/// Every field is optional: `None` means "unknown — don't check". A
/// scenario that cannot predict its frame returns
/// [`Surface::unknown`]; the analyzer then reports only structural
/// diagnostics.
#[derive(Debug, Clone, Default)]
pub struct Surface {
    /// The atoms the built frame will interpret, when known.
    pub atoms: Option<Vec<String>>,
    /// Number of agents, when known.
    pub num_agents: Option<usize>,
    /// Whether the frame will have run/time structure, when known.
    pub temporal: Option<bool>,
    /// The last tick of every run, when known (model frames: `None`).
    pub horizon: Option<u64>,
}

impl Surface {
    /// A surface that declares nothing: every check is skipped.
    pub fn unknown() -> Self {
        Surface::default()
    }
}

/// What a scenario hands to the engine: either a static Kripke model or
/// an interpretation builder still open to build options.
pub enum ScenarioFrame {
    /// A finite S5 model (e.g. the muddy-children cube).
    Model(KripkeModel),
    /// An interpreted-system builder with view and facts attached.
    Interpreted(InterpretedSystemBuilder),
}

/// A worked example constructible by name: the paper's scenarios (and
/// user extensions) register behind this trait so the engine — and the
/// experiment driver, and the `hm` CLI — can build any of them through
/// one pipeline.
///
/// A scenario declares its parameters as [`ParamDescriptor`]s; the
/// registry validates spec strings against them before `build` runs, so
/// `build` can read [`ScenarioParams::values`] through the typed
/// accessors without error handling.
///
/// Scenarios are `Send + Sync` so one registry can be shared by every
/// thread of a process (see [`ScenarioRegistry::shared`]).
pub trait Scenario: Send + Sync {
    /// Registry name (e.g. `"generals"`).
    fn name(&self) -> String;

    /// One-line description with the paper reference, for catalogs
    /// (`hm list`, `hm describe`).
    fn summary(&self) -> String {
        String::new()
    }

    /// The declared parameters. Spec strings may set exactly these keys.
    fn params(&self) -> Vec<ParamDescriptor> {
        Vec::new()
    }

    /// The E1–E18 experiments that exercise this frame (catalog
    /// cross-reference, e.g. `"E3, E4, E8-E10"`).
    fn experiments(&self) -> String {
        String::new()
    }

    /// A formula that is meaningful on this frame under its default
    /// parameters — shown by `hm describe` and used as the registry's
    /// smoke query. The default is atom-free so it binds on any frame.
    fn example_query(&self) -> String {
        "nu X. $X".into()
    }

    /// What the frame built from `params` will look like, without
    /// building it — the vocabulary `hm check` lints against. The
    /// default declares nothing (every frame check skipped); built-in
    /// scenarios override it, and a test pins each declared surface to
    /// the built frame.
    fn surface(&self, params: &ScenarioParams) -> Surface {
        let _ = params;
        Surface::unknown()
    }

    /// Constructs the frame under the engine's options.
    ///
    /// `params.values` carries an assignment for every key declared by
    /// [`params`](Scenario::params): [`ScenarioRegistry::resolve`] and
    /// the [`Engine`](crate::Engine) sources guarantee this. Callers
    /// invoking `build` directly on a scenario that declares parameters
    /// must fill `values` first (e.g. via
    /// [`ParamValues::defaults`](crate::ParamValues::defaults));
    /// `ScenarioParams::default()` is only adequate for parameterless
    /// scenarios.
    ///
    /// # Errors
    ///
    /// Typically [`EngineError::Enumerate`] from run enumeration, or
    /// [`EngineError::Spec`] for jointly inconsistent parameter values.
    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError>;
}

/// A name-indexed collection of scenarios.
pub struct ScenarioRegistry {
    entries: Vec<Box<dyn Scenario>>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ScenarioRegistry {
            entries: Vec::new(),
        }
    }

    /// The registry of built-in worked examples (see the module docs).
    pub fn builtin() -> Self {
        let mut reg = ScenarioRegistry::new();
        reg.register(Box::new(Muddy));
        reg.register(Box::new(Generals));
        reg.register(Box::new(GeneralsUnbounded));
        for mode in [R2d2Mode::Uncertain, R2d2Mode::Exact, R2d2Mode::Timestamped] {
            reg.register(Box::new(R2d2Family { mode }));
        }
        reg.register(Box::new(UncertainStart));
        reg.register(Box::new(OkProtocol));
        reg.register(Box::new(Skewed));
        reg.register(Box::new(Agreement));
        reg.register(Box::new(Deadlock));
        reg.register(Box::new(Consistency));
        reg.register(Box::new(Views));
        reg.register(Box::new(Random));
        reg
    }

    /// The [`builtin`](Self::builtin) registry, built once per process
    /// and shared: the engine's spec sources, [`check_spec`](crate::check_spec)
    /// and `hm serve` resolve specs against it.
    pub fn shared() -> &'static ScenarioRegistry {
        static SHARED: OnceLock<ScenarioRegistry> = OnceLock::new();
        SHARED.get_or_init(ScenarioRegistry::builtin)
    }

    /// Adds a scenario; later registrations shadow earlier ones of the
    /// same name.
    pub fn register(&mut self, scenario: Box<dyn Scenario>) {
        self.entries.push(scenario);
    }

    /// Looks up a scenario by plain name (latest registration wins).
    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        self.entries
            .iter()
            .rev()
            .find(|s| s.name() == name)
            .map(Box::as_ref)
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|s| s.name()).collect()
    }

    /// The visible scenarios in registration order, shadowed entries
    /// skipped (for catalogs).
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                !self.entries[i + 1..]
                    .iter()
                    .any(|later| later.name() == s.name())
            })
            .map(|(_, s)| s.as_ref())
    }

    /// Parses a spec string, looks the scenario up, and validates the
    /// parameters against its descriptors — everything short of
    /// building.
    ///
    /// # Errors
    ///
    /// [`SpecError::Syntax`] for malformed specs,
    /// [`SpecError::UnknownScenario`] (with a nearest-name suggestion)
    /// for unregistered names, and the parameter variants for unknown
    /// keys, duplicates, type errors, and out-of-range values.
    ///
    /// # Examples
    ///
    /// ```
    /// use hm_engine::{ScenarioRegistry, SpecError};
    /// let reg = ScenarioRegistry::builtin();
    /// let (scenario, values) = reg.resolve("agreement:n=4,f=2")?;
    /// assert_eq!(scenario.name(), "agreement");
    /// assert_eq!(values.int("n"), 4);
    /// assert_eq!(values.int("f"), 2);
    /// // Misspellings come back with a suggestion:
    /// let err = reg.resolve("agrement").err().unwrap();
    /// assert!(err.to_string().contains("did you mean `agreement`?"));
    /// # Ok::<(), SpecError>(())
    /// ```
    pub fn resolve(&self, spec: &str) -> Result<(&dyn Scenario, ParamValues), SpecError> {
        let parsed = ScenarioSpec::parse(spec)?;
        let scenario = self
            .get(&parsed.name)
            .ok_or_else(|| SpecError::UnknownScenario {
                suggestion: nearest_name(&parsed.name, &self.names()),
                known: self.names(),
                name: parsed.name.clone(),
            })?;
        let values = ParamValues::resolve(&parsed.name, &scenario.params(), &parsed.params)?;
        Ok((scenario, values))
    }

    /// The fully resolved canonical spec string: every declared
    /// parameter present (explicit value or default), sorted by key.
    /// Unlike the purely syntactic [`ScenarioSpec::canonical`], this
    /// equates specs that *resolve* identically — `generals` and
    /// `generals:horizon=8` (the default horizon) share one canonical
    /// string, as do `r2d2:eps=2,pre=1` and `r2d2:pre=1,eps=2`. The
    /// serving layer keys its engine cache on this, so one built engine
    /// answers every spelling of the same frame.
    ///
    /// # Errors
    ///
    /// As for [`resolve`](Self::resolve).
    pub fn canonical_spec(&self, spec: &str) -> Result<String, SpecError> {
        let parsed = ScenarioSpec::parse(spec)?;
        let (_, values) = self.resolve(spec)?;
        let mut pairs: Vec<(&'static str, String)> =
            values.entries().map(|(k, v)| (k, v.to_string())).collect();
        pairs.sort_by_key(|&(k, _)| k);
        let mut out = parsed.name;
        for (i, (k, v)) in pairs.iter().enumerate() {
            out.push(if i == 0 { ':' } else { ',' });
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        Ok(out)
    }
}

impl Default for ScenarioRegistry {
    fn default() -> Self {
        ScenarioRegistry::builtin()
    }
}

/// Surface helper: a fixed vocabulary over `agents` agents.
fn fixed_surface(atoms: &[&str], agents: usize, temporal: bool, horizon: Option<u64>) -> Surface {
    Surface {
        atoms: Some(atoms.iter().map(ToString::to_string).collect()),
        num_agents: Some(agents),
        temporal: Some(temporal),
        horizon,
    }
}

/// Section 2: the muddy-children cube with `n` children; `dirty = k`
/// applies the father's announcement plus `k - 1` unanimous-"no" rounds
/// (the frame right before question `k`).
struct Muddy;

impl Scenario for Muddy {
    fn name(&self) -> String {
        "muddy".into()
    }

    fn summary(&self) -> String {
        "muddy-children cube, optionally announced (Section 2)".into()
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![
            ParamDescriptor::int("n", 4, 2, 12, "number of children (2^n worlds)"),
            ParamDescriptor::int(
                "dirty",
                0,
                0,
                12,
                "0 = pristine cube; k >= 1 = announcement + k-1 unanimous-no rounds",
            ),
        ]
    }

    fn experiments(&self) -> String {
        "E1, E2, E17".into()
    }

    fn example_query(&self) -> String {
        "K0 m".into()
    }

    fn surface(&self, params: &ScenarioParams) -> Surface {
        let n = params.values.size("n");
        let mut atoms = vec!["m".to_string()];
        atoms.extend((0..n).map(|i| format!("muddy{i}")));
        Surface {
            atoms: Some(atoms),
            num_agents: Some(n),
            temporal: Some(false),
            horizon: None,
        }
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        let n = params.values.size("n");
        let dirty = params.values.size("dirty");
        if dirty > n {
            return Err(EngineError::Spec(SpecError::Constraint {
                scenario: self.name(),
                what: format!("dirty = {dirty} exceeds n = {n} children"),
            }));
        }
        let puzzle = MuddyChildren::new(n);
        Ok(ScenarioFrame::Model(if dirty == 0 {
            puzzle.model().clone()
        } else {
            puzzle.announced_model(dirty - 1)
        }))
    }
}

/// Sections 4 and 7: the coordinated-attack handshake over the lossy
/// messenger.
struct Generals;

impl Scenario for Generals {
    fn name(&self) -> String {
        "generals".into()
    }

    fn summary(&self) -> String {
        "coordinated-attack handshake over a lossy messenger (Sections 4, 7)".into()
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![ParamDescriptor::int(
            "horizon",
            8,
            1,
            12,
            "last tick of every run",
        )]
    }

    fn experiments(&self) -> String {
        "E3, E4, E8, E9, E10".into()
    }

    fn example_query(&self) -> String {
        "K1 dispatched".into()
    }

    fn surface(&self, params: &ScenarioParams) -> Surface {
        let h = params.horizon_or(params.values.int("horizon"));
        fixed_surface(&["dispatched", "attacking"], 2, true, Some(h))
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        Ok(ScenarioFrame::Interpreted(generals_builder(
            params.horizon_or(params.values.int("horizon")),
            &params.budget,
        )?))
    }
}

/// Section 7: the one-shot send under unbounded delivery delay
/// (Theorem 7's NG1′ frame).
struct GeneralsUnbounded;

impl Scenario for GeneralsUnbounded {
    fn name(&self) -> String {
        "generals-unbounded".into()
    }

    fn summary(&self) -> String {
        "one-shot send under unbounded delivery delay (Section 7, Theorem 7)".into()
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![ParamDescriptor::int(
            "horizon",
            7,
            1,
            9,
            "last tick of every run",
        )]
    }

    fn experiments(&self) -> String {
        "E5".into()
    }

    fn example_query(&self) -> String {
        "K1 sent".into()
    }

    fn surface(&self, params: &ScenarioParams) -> Surface {
        let h = params.horizon_or(params.values.int("horizon"));
        fixed_surface(&["sent"], 2, true, Some(h))
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        Ok(ScenarioFrame::Interpreted(generals_unbounded_builder(
            params.horizon_or(params.values.int("horizon")),
            &params.budget,
        )?))
    }
}

/// Section 8: the R2–D2 channel, one registry entry per variant
/// (`r2d2` = uncertain delay, `r2d2-exact`, `r2d2-timestamped`).
struct R2d2Family {
    mode: R2d2Mode,
}

impl Scenario for R2d2Family {
    fn name(&self) -> String {
        match self.mode {
            R2d2Mode::Uncertain => "r2d2".into(),
            R2d2Mode::Exact => "r2d2-exact".into(),
            R2d2Mode::Timestamped => "r2d2-timestamped".into(),
        }
    }

    fn summary(&self) -> String {
        match self.mode {
            R2d2Mode::Uncertain => "R2–D2 channel, delivery in 0 or eps ticks (Section 8)".into(),
            R2d2Mode::Exact => "R2–D2 channel, delivery in exactly eps ticks (Section 8)".into(),
            R2d2Mode::Timestamped => {
                "R2–D2 channel with global clock and timestamped message (Section 8)".into()
            }
        }
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![
            ParamDescriptor::int("eps", 2, 1, 6, "delay bound eps (ticks)"),
            ParamDescriptor::int("pre", 3, 0, 8, "eps-slots before the focus send"),
            ParamDescriptor::int("post", 3, 0, 8, "eps-slots after the focus send"),
        ]
    }

    fn experiments(&self) -> String {
        "E6".into()
    }

    fn example_query(&self) -> String {
        "K0 K1 sent".into()
    }

    fn surface(&self, _params: &ScenarioParams) -> Surface {
        // Run length is a function of eps/pre/post buried in the netsim
        // scenario; leave the horizon unchecked.
        fixed_surface(&["sent", "sent_focus"], 2, true, None)
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        let (builder, _meta) = r2d2_parts(
            params.values.int("eps"),
            params.values.size("pre"),
            params.values.size("post"),
            self.mode,
        );
        Ok(ScenarioFrame::Interpreted(builder))
    }
}

/// Section 8 / Appendix B: uncertain start times (Proposition 15's
/// temporal-imprecision frame), with a global-clock escape hatch.
struct UncertainStart;

impl Scenario for UncertainStart {
    fn name(&self) -> String {
        "uncertain-start".into()
    }

    fn summary(&self) -> String {
        "uncertain wake times + uncertain delay (Section 8, App. B, Prop. 15)".into()
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![
            ParamDescriptor::int("horizon", 6, 1, 10, "last tick of every run"),
            ParamDescriptor::boolean(
                "global_clock",
                false,
                "shared perfect clock and fixed wake times instead",
            ),
        ]
    }

    fn experiments(&self) -> String {
        "E7".into()
    }

    fn example_query(&self) -> String {
        // Theorem 8: with temporal imprecision, CK of the dispatch is
        // never attained — the negation is valid.
        "!C{0,1} sent".into()
    }

    fn surface(&self, params: &ScenarioParams) -> Surface {
        let h = params.horizon_or(params.values.int("horizon"));
        fixed_surface(&["sent", "five_oclock"], 2, true, Some(h))
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        Ok(ScenarioFrame::Interpreted(uncertain_start_builder(
            params.horizon_or(params.values.int("horizon")),
            params.values.flag("global_clock"),
        )?))
    }
}

/// Section 11: the OK protocol over the instant-or-lost channel.
struct OkProtocol;

impl Scenario for OkProtocol {
    fn name(&self) -> String {
        "ok".into()
    }

    fn summary(&self) -> String {
        "OK protocol over an instant-or-lost channel (Section 11)".into()
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![ParamDescriptor::int(
            "horizon",
            6,
            1,
            10,
            "last tick of every run",
        )]
    }

    fn experiments(&self) -> String {
        "E9".into()
    }

    fn example_query(&self) -> String {
        "Ceps[1]{0,1} psi".into()
    }

    fn surface(&self, params: &ScenarioParams) -> Surface {
        let h = params.horizon_or(params.values.int("horizon"));
        fixed_surface(&["psi", "ok_sent"], 2, true, Some(h))
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        Ok(ScenarioFrame::Interpreted(ok_builder(
            params.horizon_or(params.values.int("horizon")),
        )?))
    }
}

/// Section 12: the two-processor broadcast with skewed clocks
/// (Theorem 12's `C^T` frame).
struct Skewed;

impl Scenario for Skewed {
    fn name(&self) -> String {
        "skewed".into()
    }

    fn summary(&self) -> String {
        "two-processor broadcast with skewed clocks (Section 12, Theorem 12)".into()
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![
            ParamDescriptor::int("horizon", 8, 1, 16, "last tick of every run"),
            ParamDescriptor::int(
                "skew",
                1,
                0,
                4,
                "p1's clock runs d ticks ahead, one run per d in 0..=skew",
            ),
        ]
    }

    fn experiments(&self) -> String {
        "E12".into()
    }

    fn example_query(&self) -> String {
        "CT[6]{0,1} sent_v".into()
    }

    fn surface(&self, params: &ScenarioParams) -> Surface {
        let h = params.horizon_or(params.values.int("horizon"));
        fixed_surface(&["sent_v"], 2, true, Some(h))
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        Ok(ScenarioFrame::Interpreted(skewed_broadcast_builder(
            params.horizon_or(params.values.int("horizon")),
            params.values.int("skew"),
        )?))
    }
}

/// Section 11 footnote 5 (after [DM90]): simultaneous agreement under
/// at most `f` crash failures — either the full crash-pattern
/// enumeration or the symmetry-reduced one (canonical patterns +
/// symmetric views), selected by `mode`.
struct Agreement;

impl Scenario for Agreement {
    fn name(&self) -> String {
        "agreement".into()
    }

    fn summary(&self) -> String {
        "simultaneous agreement under crash failures (Section 11 fn. 5, [DM90])".into()
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![
            ParamDescriptor::int(
                "n",
                3,
                3,
                5,
                "number of processors (n=5 with f>=2 needs the reduced mode)",
            ),
            ParamDescriptor::int("f", 1, 1, 3, "maximum crashes (f=3 needs the reduced mode)"),
            ParamDescriptor::choice(
                "mode",
                "auto",
                &["auto", "naive", "reduced"],
                "naive = all crash patterns; reduced = canonical patterns + symmetric \
                 views; auto = naive where it fits (f<=2, n<=4)",
            ),
        ]
    }

    fn experiments(&self) -> String {
        "E18".into()
    }

    fn example_query(&self) -> String {
        "C{0,1,2} min0".into()
    }

    fn surface(&self, params: &ScenarioParams) -> Surface {
        // Run length follows from f (f+2 rounds), not from a declared
        // horizon; leave it unchecked.
        fixed_surface(&["min0", "decided0"], params.values.size("n"), true, None)
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        let spec = AgreementSpec {
            n: params.values.size("n"),
            f: params.values.size("f"),
        };
        if spec.f >= spec.n {
            return Err(EngineError::Spec(SpecError::Constraint {
                scenario: self.name(),
                what: format!(
                    "f = {} must stay below n = {} (some processor survives)",
                    spec.f, spec.n
                ),
            }));
        }
        if spec.n == 5 && spec.f == 3 {
            return Err(EngineError::Spec(SpecError::Constraint {
                scenario: self.name(),
                what: "n=5,f=3 exceeds the implemented envelope (even the reduced orbit \
                       set runs to millions of worlds)"
                    .into(),
            }));
        }
        let reduction = match params.values.choice("mode") {
            "naive" => Reduction::Naive,
            "reduced" => Reduction::Symmetric,
            "auto" if spec.f >= 3 || spec.n >= 5 => Reduction::Symmetric,
            "auto" => Reduction::Naive,
            other => unreachable!("descriptor admits only declared modes, got {other}"),
        };
        // Refused before enumeration: every crash pattern at f=3 is ~2.2M
        // runs (n=4), and n=5,f=2 ran past 3 GB without finishing.
        if matches!(reduction, Reduction::Naive) && (spec.f >= 3 || (spec.n == 5 && spec.f >= 2)) {
            return Err(EngineError::Spec(SpecError::Constraint {
                scenario: self.name(),
                what: format!(
                    "mode=naive at n = {}, f = {} does not fit in memory; use mode=reduced",
                    spec.n, spec.f
                ),
            }));
        }
        Ok(ScenarioFrame::Interpreted(agreement_builder(
            spec,
            reduction,
            &params.budget,
        )?))
    }
}

/// Section 3: probe-based deadlock discovery and publication over all
/// wait-for graphs.
struct Deadlock;

impl Scenario for Deadlock {
    fn name(&self) -> String {
        "deadlock".into()
    }

    fn summary(&self) -> String {
        "probe-based deadlock discovery over all wait-for graphs (Section 3)".into()
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![
            ParamDescriptor::int("n", 3, 2, 4, "number of processes"),
            ParamDescriptor::int("horizon", 12, 1, 20, "last tick of every run"),
        ]
    }

    fn experiments(&self) -> String {
        "E15".into()
    }

    fn example_query(&self) -> String {
        "K0 deadlock".into()
    }

    fn surface(&self, params: &ScenarioParams) -> Surface {
        let h = params.horizon_or(params.values.int("horizon"));
        fixed_surface(
            &["deadlock", "detected"],
            params.values.size("n"),
            true,
            Some(h),
        )
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        Ok(ScenarioFrame::Interpreted(deadlock_builder(
            params.values.size("n"),
            params.horizon_or(params.values.int("horizon")),
        )?))
    }
}

/// Section 13: the tightly-synchronised send/receive frame of the
/// internal-knowledge-consistency example.
struct Consistency;

impl Scenario for Consistency {
    fn name(&self) -> String {
        "consistency".into()
    }

    fn summary(&self) -> String {
        "fast/slow delivery pairs of the IKC example (Section 13)".into()
    }

    fn experiments(&self) -> String {
        "E14".into()
    }

    fn example_query(&self) -> String {
        "K0 both_aware".into()
    }

    fn surface(&self, _params: &ScenarioParams) -> Surface {
        fixed_surface(&["both_aware"], 2, true, None)
    }

    fn build(&self, _params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        Ok(ScenarioFrame::Interpreted(consistency_builder()))
    }
}

/// Section 6: the two-run send frame under a selectable view function
/// (complete history ⊇ last event ⊇ shared λ).
struct Views;

impl Scenario for Views {
    fn name(&self) -> String {
        "views".into()
    }

    fn summary(&self) -> String {
        "two-run send frame under a selectable view function (Section 6)".into()
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![ParamDescriptor::choice(
            "view",
            "complete",
            &["complete", "last-event", "lambda"],
            "the view function interpreting the runs",
        )]
    }

    fn experiments(&self) -> String {
        "E16".into()
    }

    fn example_query(&self) -> String {
        "K0 sent_twice".into()
    }

    fn surface(&self, _params: &ScenarioParams) -> Surface {
        fixed_surface(&["sent_twice"], 2, true, None)
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        let kind = match params.values.choice("view") {
            "complete" => ViewKind::CompleteHistory,
            "last-event" => ViewKind::LastEvent,
            "lambda" => ViewKind::SharedLambda,
            other => unreachable!("descriptor admits only declared views, got {other}"),
        };
        Ok(ScenarioFrame::Interpreted(two_send_views_builder(kind)))
    }
}

/// Appendix A: a seeded pseudo-random S5 model (the frame family behind
/// the E11/E13 axiom sweeps).
struct Random;

impl Scenario for Random {
    fn name(&self) -> String {
        "random".into()
    }

    fn summary(&self) -> String {
        "seeded pseudo-random S5 model (Appendix A axiom sweeps)".into()
    }

    fn params(&self) -> Vec<ParamDescriptor> {
        vec![
            ParamDescriptor::int("seed", 0, 0, u64::MAX, "SplitMix64 seed"),
            ParamDescriptor::int("worlds", 12, 1, 4096, "number of worlds"),
            ParamDescriptor::int("agents", 3, 1, 8, "number of agents"),
            ParamDescriptor::int("atoms", 2, 0, 8, "ground atoms q0, q1, ..."),
            ParamDescriptor::int("blocks", 4, 1, 64, "max partition blocks per agent"),
        ]
    }

    fn experiments(&self) -> String {
        "E11, E13".into()
    }

    fn example_query(&self) -> String {
        "D{0,1,2} q0".into()
    }

    fn surface(&self, params: &ScenarioParams) -> Surface {
        let v = &params.values;
        Surface {
            atoms: Some((0..v.size("atoms")).map(|i| format!("q{i}")).collect()),
            num_agents: Some(v.size("agents")),
            temporal: Some(false),
            horizon: None,
        }
    }

    fn build(&self, params: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
        let v = &params.values;
        Ok(ScenarioFrame::Model(random_model(
            v.int("seed"),
            RandomModelSpec {
                num_agents: v.size("agents"),
                num_worlds: v.size("worlds"),
                num_atoms: v.size("atoms"),
                max_blocks: v.size("blocks"),
            },
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names() {
        let reg = ScenarioRegistry::builtin();
        for name in [
            "muddy",
            "generals",
            "generals-unbounded",
            "r2d2",
            "r2d2-exact",
            "r2d2-timestamped",
            "uncertain-start",
            "ok",
            "skewed",
            "agreement",
            "deadlock",
            "consistency",
            "views",
            "random",
        ] {
            assert!(reg.get(name).is_some(), "{name} registered");
        }
        assert!(reg.get("nope").is_none());
        assert_eq!(reg.iter().count(), reg.names().len());
    }

    #[test]
    fn resolve_validates_against_descriptors() {
        let reg = ScenarioRegistry::builtin();
        let (s, v) = reg.resolve("muddy:n=6,dirty=3").unwrap();
        assert_eq!(s.name(), "muddy");
        assert_eq!(v.int("n"), 6);
        assert_eq!(v.int("dirty"), 3);
        // Defaults fill in.
        let (_, v) = reg.resolve("muddy").unwrap();
        assert_eq!(v.int("n"), 4);
        assert_eq!(v.int("dirty"), 0);
        // Unknown scenario with suggestion.
        match reg.resolve("agrement").err().unwrap() {
            SpecError::UnknownScenario { suggestion, .. } => {
                assert_eq!(suggestion.as_deref(), Some("agreement"));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // Unknown key lists the declared ones.
        match reg.resolve("generals:depth=3").err().unwrap() {
            SpecError::UnknownParam { known, .. } => assert_eq!(known, vec!["horizon"]),
            other => panic!("wrong variant: {other:?}"),
        }
        // Range check.
        assert!(matches!(
            reg.resolve("agreement:f=4").err().unwrap(),
            SpecError::OutOfRange { .. }
        ));
        // f=3 is in range since the reduced enumeration landed.
        let (_, v) = reg.resolve("agreement:n=4,f=3").unwrap();
        assert_eq!(v.size("f"), 3);
        assert_eq!(v.choice("mode"), "auto");
    }

    #[test]
    fn agreement_mode_and_envelope_constraints() {
        let reg = ScenarioRegistry::builtin();
        let build = |spec: &str| {
            let (s, values) = reg.resolve(spec).unwrap();
            let params = ScenarioParams {
                values,
                ..ScenarioParams::default()
            };
            s.build(&params)
        };
        // f must stay below n even though both pass their ranges alone.
        assert!(matches!(
            build("agreement:n=3,f=3").err().unwrap(),
            EngineError::Spec(SpecError::Constraint { .. })
        ));
        // n=5,f=3 is outside the implemented envelope in every mode.
        assert!(matches!(
            build("agreement:n=5,f=3,mode=reduced").err().unwrap(),
            EngineError::Spec(SpecError::Constraint { .. })
        ));
        // Naive enumeration is refused before it starts where it cannot
        // fit in memory; n=5,f=1 still builds naive.
        for spec in [
            "agreement:n=5,f=2,mode=naive",
            "agreement:n=4,f=3,mode=naive",
        ] {
            let err = build(spec).err().unwrap();
            assert!(err.to_string().contains("mode=reduced"), "{spec}: {err}");
            assert!(
                matches!(err, EngineError::Spec(SpecError::Constraint { .. })),
                "{spec}"
            );
        }
        assert!(build("agreement:n=5,f=1,mode=naive").is_ok());
        // Explicit modes build the same surface for a small instance.
        assert!(build("agreement:n=3,f=1,mode=naive").is_ok());
        assert!(build("agreement:n=3,f=1,mode=reduced").is_ok());
    }

    #[test]
    fn canonical_spec_fills_defaults_and_sorts() {
        let reg = ScenarioRegistry::builtin();
        // Orderings of the same assignment share one canonical string.
        assert_eq!(
            reg.canonical_spec("r2d2:eps=2,pre=1").unwrap(),
            reg.canonical_spec("r2d2:pre=1,eps=2").unwrap()
        );
        // A bare name and its spelled-out defaults are the same frame.
        assert_eq!(
            reg.canonical_spec("generals").unwrap(),
            reg.canonical_spec("generals:horizon=8").unwrap()
        );
        assert_eq!(
            reg.canonical_spec("generals").unwrap(),
            "generals:horizon=8"
        );
        // Canonicalization is idempotent (round-trip through parse).
        let c = reg.canonical_spec("r2d2:pre=1,eps=2").unwrap();
        assert_eq!(reg.canonical_spec(&c).unwrap(), c);
        // Different assignments stay distinct.
        assert_ne!(
            reg.canonical_spec("generals:horizon=4").unwrap(),
            reg.canonical_spec("generals").unwrap()
        );
        // Errors pass through resolve.
        assert!(reg.canonical_spec("zap").is_err());
        assert!(reg.canonical_spec("generals:horizon=99").is_err());
    }

    #[test]
    fn muddy_dirty_constraint() {
        let reg = ScenarioRegistry::builtin();
        let (s, values) = reg.resolve("muddy:n=3,dirty=5").unwrap();
        let params = ScenarioParams {
            values,
            ..ScenarioParams::default()
        };
        assert!(matches!(
            s.build(&params).err().unwrap(),
            EngineError::Spec(SpecError::Constraint { .. })
        ));
    }

    #[test]
    fn muddy_dirty_shrinks_the_cube() {
        let reg = ScenarioRegistry::builtin();
        let build = |spec: &str| {
            let (s, values) = reg.resolve(spec).unwrap();
            let params = ScenarioParams {
                values,
                ..ScenarioParams::default()
            };
            match s.build(&params).unwrap() {
                ScenarioFrame::Model(m) => m,
                ScenarioFrame::Interpreted(_) => panic!("muddy is a model frame"),
            }
        };
        assert_eq!(build("muddy:n=4").num_worlds(), 16);
        // Announcement drops the all-clean world.
        assert_eq!(build("muddy:n=4,dirty=1").num_worlds(), 15);
        // One unanimous "no" also drops the four 1-muddy worlds.
        assert_eq!(build("muddy:n=4,dirty=2").num_worlds(), 11);
        // Before question n, only the all-muddy world is left.
        assert_eq!(build("muddy:n=4,dirty=4").num_worlds(), 1);
    }

    #[test]
    fn declared_surfaces_match_built_frames() {
        use hm_kripke::AtomId;
        use hm_logic::Frame as _;
        use std::collections::BTreeSet;
        let reg = ScenarioRegistry::builtin();
        for s in reg.iter() {
            let name = s.name();
            let params = ScenarioParams {
                values: ParamValues::defaults(&s.params()),
                ..ScenarioParams::default()
            };
            let surface = s.surface(&params);
            assert!(
                surface.atoms.is_some() && surface.num_agents.is_some(),
                "{name}: every builtin declares its surface"
            );
            let (model, ts_horizon) = match s.build(&params).unwrap() {
                ScenarioFrame::Model(m) => {
                    assert_eq!(surface.temporal, Some(false), "{name}");
                    (m, None)
                }
                ScenarioFrame::Interpreted(b) => {
                    let isys = b.build();
                    assert_eq!(surface.temporal, Some(true), "{name}");
                    let ts = isys.temporal().expect("interpreted systems have runs");
                    let h = (0..ts.num_runs())
                        .map(|r| ts.run_len(r).saturating_sub(1))
                        .max();
                    (isys.model().clone(), h)
                }
            };
            let actual: BTreeSet<String> = (0..model.num_atoms())
                .map(|i| model.atom_name(AtomId::new(i)).to_string())
                .collect();
            let declared: BTreeSet<String> = surface.atoms.unwrap().into_iter().collect();
            assert_eq!(declared, actual, "{name}: atom vocabulary");
            assert_eq!(
                surface.num_agents,
                Some(model.num_agents()),
                "{name}: agent count"
            );
            if let Some(h) = surface.horizon {
                assert_eq!(Some(h), ts_horizon, "{name}: horizon = last tick");
            }
        }
    }

    #[test]
    fn later_registration_shadows() {
        let mut reg = ScenarioRegistry::builtin();
        struct Shadow;
        impl Scenario for Shadow {
            fn name(&self) -> String {
                "generals".into()
            }
            fn build(&self, _p: &ScenarioParams) -> Result<ScenarioFrame, EngineError> {
                Ok(ScenarioFrame::Model(MuddyChildren::new(2).model().clone()))
            }
        }
        reg.register(Box::new(Shadow));
        let frame = reg
            .get("generals")
            .unwrap()
            .build(&ScenarioParams::default())
            .unwrap();
        assert!(matches!(frame, ScenarioFrame::Model(_)));
        // The shadow declares no params, so horizon is now rejected.
        assert!(matches!(
            reg.resolve("generals:horizon=8").err().unwrap(),
            SpecError::UnknownParam { .. }
        ));
        // iter() skips the shadowed entry.
        assert_eq!(reg.iter().count(), reg.names().len() - 1);
    }
}
