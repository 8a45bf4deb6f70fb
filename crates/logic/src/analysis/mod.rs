//! Static formula analysis: pre-bind diagnostics, safety inference, and
//! the simplification pass feeding the compiler.
//!
//! [`Analyzer`] walks a [`Formula`] *before* any frame is built or any
//! evaluation runs and produces a [`Diagnostics`] report:
//!
//! - **errors** — problems that make the formula unevaluable (unknown
//!   atoms or agents resolved against the frame's vocabulary without
//!   evaluating, unbound fixed-point variables, non-monotone binders,
//!   temporal operators over a static frame) plus one strict-lint error
//!   the evaluators tolerate (shadowed binders);
//! - **warnings** — legal but suspicious shapes: temporal depth
//!   exceeding the session horizon, dead subformulas under constant
//!   folding, vacuous fixpoints, constant formulas, and non-quotient-safe
//!   operators under `--minimize`, each with a *path* naming the subterm
//!   responsible;
//! - **facts** — inferred structure: node count, modal and temporal
//!   depth, agent footprint, atom vocabulary, quotient safety (with the
//!   first unsafe subterm), and compiled instruction counts before/after
//!   [`simplify`].
//!
//! [`Analyzer::analyze_with_program`] also returns the program compiled
//! from the simplified formula, so a session executes the very program
//! the facts describe and compiles each formula once.
//!
//! The analyzer shares its frame-requirement traversal
//! (`visit_frame_reqs`) with [`compile`](crate::compile), which records
//! the very same requirements as bind-time checks: there is one
//! definition of "what this formula asks of a frame", and
//! [`Diagnostics::first_error_as_eval`] reproduces exactly the error a
//! compile-then-bind pipeline reports first.
//!
//! Reports serialize to JSON ([`Diagnostics::to_json`]) and back
//! ([`Diagnostics::from_json`]) for machine consumers (`hm check
//! --json`).

mod json;
mod simplify;

pub use simplify::simplify;

use crate::eval::{check_positive, EvalError};
use crate::formula::Formula;
use crate::frame::Frame;
use hm_kripke::AgentId;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

// ---------------------------------------------------------------------------
// Frame requirements: the traversal shared with the compiler
// ---------------------------------------------------------------------------

/// One thing a formula requires of a frame, discovered in the
/// tree-walking evaluator's pre-order. [`visit_frame_reqs`] is the single
/// definition of that order: the compiler records the stream as bind-time
/// checks, the analyzer resolves it against the frame (or a declared
/// vocabulary) without evaluating.
pub(crate) enum FrameReq<'f> {
    /// Agent index must be `< frame.num_agents()`.
    Agent(AgentId),
    /// Atom must be in the frame's vocabulary.
    Atom(&'f str),
    /// Frame must have run/time structure (operator name for the error).
    Temporal(&'static str),
}

/// Visits every frame requirement of `f` in the tree-walker's discovery
/// order: at each node, agent/group requirements first, then the temporal
/// requirement, then the children left to right.
pub(crate) fn visit_frame_reqs<'f>(f: &'f Formula, visit: &mut impl FnMut(FrameReq<'f>)) {
    use FrameReq::{Agent, Atom, Temporal};
    match f {
        Formula::Atom(name) => visit(Atom(name)),
        Formula::Knows(i, _) => visit(Agent(*i)),
        Formula::EveryoneK(g, _, _)
        | Formula::Someone(g, _)
        | Formula::Distributed(g, _)
        | Formula::Common(g, _) => g.iter().for_each(|i| visit(Agent(i))),
        Formula::Next(_) => visit(Temporal("next")),
        Formula::Eventually(_) => visit(Temporal("even")),
        Formula::Always(_) => visit(Temporal("alw")),
        Formula::Once(_) => visit(Temporal("once")),
        Formula::EveryoneEps(g, _, _) => {
            g.iter().for_each(|i| visit(Agent(i)));
            visit(Temporal("Eeps"));
        }
        Formula::CommonEps(g, _, _) => {
            g.iter().for_each(|i| visit(Agent(i)));
            visit(Temporal("Ceps"));
        }
        Formula::EveryoneEv(g, _) => {
            g.iter().for_each(|i| visit(Agent(i)));
            visit(Temporal("Eev"));
        }
        Formula::CommonEv(g, _) => {
            g.iter().for_each(|i| visit(Agent(i)));
            visit(Temporal("Cev"));
        }
        Formula::KnowsAt(i, _, _) => {
            visit(Agent(*i));
            visit(Temporal("K@"));
        }
        Formula::EveryoneTs(g, _, _) => {
            g.iter().for_each(|i| visit(Agent(i)));
            visit(Temporal("ET"));
        }
        Formula::CommonTs(g, _, _) => {
            g.iter().for_each(|i| visit(Agent(i)));
            visit(Temporal("CT"));
        }
        _ => {}
    }
    // Explicit recursion (rather than `for_each_child`) keeps the `'f`
    // borrow of atom names alive across the traversal.
    match f {
        Formula::True | Formula::False | Formula::Atom(_) | Formula::Var(_) => {}
        Formula::Not(a)
        | Formula::Knows(_, a)
        | Formula::EveryoneK(_, _, a)
        | Formula::Someone(_, a)
        | Formula::Distributed(_, a)
        | Formula::Common(_, a)
        | Formula::Gfp(_, a)
        | Formula::Lfp(_, a)
        | Formula::Next(a)
        | Formula::Eventually(a)
        | Formula::Always(a)
        | Formula::Once(a)
        | Formula::EveryoneEps(_, _, a)
        | Formula::CommonEps(_, _, a)
        | Formula::EveryoneEv(_, a)
        | Formula::CommonEv(_, a)
        | Formula::KnowsAt(_, _, a)
        | Formula::EveryoneTs(_, _, a)
        | Formula::CommonTs(_, _, a) => visit_frame_reqs(a, visit),
        Formula::And(xs) | Formula::Or(xs) => {
            for x in xs {
                visit_frame_reqs(x, visit);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            visit_frame_reqs(a, visit);
            visit_frame_reqs(b, visit);
        }
    }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The formula cannot (or should not) be evaluated as written.
    Error,
    /// The formula evaluates, but something about it looks wrong.
    Warning,
}

/// What a [`Diagnostic`] reports. Severity is a function of the kind
/// (see [`Diagnostic::severity`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagKind {
    /// An atom the frame (or declared vocabulary) does not interpret.
    UnknownAtom(String),
    /// An agent index `>= num_agents`.
    AgentOutOfRange(usize),
    /// A fixed-point variable not bound by any `ν`/`µ`.
    UnboundVar(String),
    /// A binder whose variable occurs negatively (or under `↔`) in its
    /// body.
    NonMonotone(String),
    /// A temporal operator over a frame without run/time structure.
    NoTemporalStructure(String),
    /// A binder reusing the name of an enclosing binder. Slots resolve
    /// shadowing soundly, but the formula rarely means what it says.
    ShadowedVar(String),
    /// A subformula made irrelevant by a constant sibling (the payload
    /// explains which one).
    DeadSubformula(String),
    /// A `ν`/`µ` binder whose variable does not occur in its body.
    VacuousFixpoint(String),
    /// The whole formula simplifies to a constant.
    ConstantFormula(bool),
    /// Nested temporal operators deeper than the session horizon:
    /// the innermost layers run off the end of every truncated run.
    TemporalDepthExceedsHorizon {
        /// Maximum temporal-operator nesting in the formula.
        depth: u32,
        /// The session horizon the formula was analyzed against.
        horizon: u64,
    },
    /// Under `--minimize`, an operator that bars answering on the
    /// bisimulation quotient (payload: the operator head).
    NotQuotientSafe(String),
}

/// One finding of the analyzer: a kind plus the path of operator heads
/// from the root to the offending subterm (empty path = the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    kind: DiagKind,
    path: String,
}

impl Diagnostic {
    fn new(kind: DiagKind, path: impl Into<String>) -> Self {
        Diagnostic {
            kind,
            path: path.into(),
        }
    }

    /// What is being reported.
    pub fn kind(&self) -> &DiagKind {
        &self.kind
    }

    /// `/`-separated operator heads from the root to the offending
    /// subterm; empty for the root itself.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Errors make the formula unevaluable (or flatly wrong); warnings
    /// are advisory.
    pub fn severity(&self) -> Severity {
        match self.kind {
            DiagKind::UnknownAtom(_)
            | DiagKind::AgentOutOfRange(_)
            | DiagKind::UnboundVar(_)
            | DiagKind::NonMonotone(_)
            | DiagKind::NoTemporalStructure(_)
            | DiagKind::ShadowedVar(_) => Severity::Error,
            _ => Severity::Warning,
        }
    }

    /// Stable machine-readable code for this kind (the `--json` key).
    pub fn code(&self) -> &'static str {
        match self.kind {
            DiagKind::UnknownAtom(_) => "unknown-atom",
            DiagKind::AgentOutOfRange(_) => "agent-out-of-range",
            DiagKind::UnboundVar(_) => "unbound-var",
            DiagKind::NonMonotone(_) => "non-monotone",
            DiagKind::NoTemporalStructure(_) => "no-temporal-structure",
            DiagKind::ShadowedVar(_) => "shadowed-var",
            DiagKind::DeadSubformula(_) => "dead-subformula",
            DiagKind::VacuousFixpoint(_) => "vacuous-fixpoint",
            DiagKind::ConstantFormula(_) => "constant-formula",
            DiagKind::TemporalDepthExceedsHorizon { .. } => "temporal-depth-exceeds-horizon",
            DiagKind::NotQuotientSafe(_) => "not-quotient-safe",
        }
    }

    /// The human-readable message (without severity or path).
    pub fn message(&self) -> String {
        match &self.kind {
            DiagKind::UnknownAtom(a) => format!("unknown atom `{a}`"),
            DiagKind::AgentOutOfRange(i) => format!("agent {i} out of range"),
            DiagKind::UnboundVar(x) => format!("unbound fixed-point variable `${x}`"),
            DiagKind::NonMonotone(x) => {
                format!("`${x}` occurs non-monotonically in its binder's body")
            }
            DiagKind::NoTemporalStructure(op) => {
                format!("temporal operator `{op}` over a frame without run/time structure")
            }
            DiagKind::ShadowedVar(x) => {
                format!("binder shadows enclosing fixed-point variable `${x}`")
            }
            DiagKind::DeadSubformula(why) => format!("dead subformula: {why}"),
            DiagKind::VacuousFixpoint(x) => {
                format!("vacuous fixpoint: `${x}` does not occur in the binder's body")
            }
            DiagKind::ConstantFormula(v) => format!("formula is constantly `{v}`"),
            DiagKind::TemporalDepthExceedsHorizon { depth, horizon } => format!(
                "temporal depth {depth} exceeds the session horizon {horizon}: \
                 the innermost operators run off the end of every run"
            ),
            DiagKind::NotQuotientSafe(op) => format!(
                "`{op}` is not bisimulation-invariant: the query cannot be \
                 answered on the minimized quotient"
            ),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}]: {}", self.code(), self.message())?;
        if !self.path.is_empty() {
            write!(f, " (at {})", self.path)?;
        }
        Ok(())
    }
}

/// Structure inferred by the analyzer, independent of any diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// Number of AST nodes.
    pub nodes: usize,
    /// Maximum nesting of knowledge/temporal operators (`E^k` counts `k`).
    pub modal_depth: u32,
    /// Maximum nesting of temporal operators only.
    pub temporal_depth: u32,
    /// Agent indices mentioned anywhere, sorted.
    pub agents: Vec<usize>,
    /// Atom names mentioned anywhere, sorted.
    pub atoms: Vec<String>,
    /// `true` if the formula may be answered on a bisimulation quotient.
    pub quotient_safe: bool,
    /// When not quotient-safe: `(path, operator head)` of the first
    /// subterm that breaks safety, in pre-order.
    pub quotient_unsafe: Option<(String, String)>,
    /// Compiled instruction count (`None` when the formula does not
    /// compile).
    pub instructions: Option<usize>,
    /// Instruction count after [`simplify`].
    pub instructions_simplified: Option<usize>,
    /// The simplified formula, rendered.
    pub simplified: String,
}

/// The analyzer's report for one formula: errors, warnings, and inferred
/// facts. Produce one with [`Analyzer::analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostics {
    errors: Vec<Diagnostic>,
    warnings: Vec<Diagnostic>,
    facts: Facts,
}

impl Diagnostics {
    /// Errors, in the order a compile-then-bind pipeline would discover
    /// them: structural errors (unbound variables, non-monotone binders)
    /// in pre-order first, then frame errors in bind order.
    pub fn errors(&self) -> &[Diagnostic] {
        &self.errors
    }

    /// Warnings, in discovery order.
    pub fn warnings(&self) -> &[Diagnostic] {
        &self.warnings
    }

    /// The inferred facts.
    pub fn facts(&self) -> &Facts {
        &self.facts
    }

    /// `true` when there are no errors and no warnings.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.warnings.is_empty()
    }

    /// `true` when any error was reported.
    pub fn has_errors(&self) -> bool {
        !self.errors.is_empty()
    }

    /// The error a compile-then-bind pipeline ([`compile`](crate::compile)
    /// followed by [`bind`](crate::CompiledFormula::bind)) would report,
    /// or `None` if that pipeline succeeds. Strict-lint errors (shadowed
    /// binders) have no [`EvalError`] counterpart and are skipped: they
    /// do not stop evaluation.
    pub fn first_error_as_eval(&self) -> Option<EvalError> {
        self.errors.iter().find_map(|d| match &d.kind {
            DiagKind::UnknownAtom(a) => Some(EvalError::UnknownAtom(a.clone())),
            DiagKind::AgentOutOfRange(i) => Some(EvalError::AgentOutOfRange(*i)),
            DiagKind::UnboundVar(x) => Some(EvalError::UnboundVar(x.clone())),
            DiagKind::NonMonotone(x) => Some(EvalError::NonMonotone(x.clone())),
            DiagKind::NoTemporalStructure(op) => Some(EvalError::NoTemporalStructure(op.clone())),
            _ => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

/// Builder for a static analysis over one formula.
///
/// The analyzer resolves frame requirements against whatever is known:
/// a full [`Frame`] (everything known), or any subset of a declared atom
/// vocabulary, agent count, temporal capability, and horizon (the
/// scenario-surface path of `hm check`, where no frame is ever built).
/// Unknown aspects are simply not checked.
///
/// # Examples
///
/// ```
/// use hm_logic::{analysis::Analyzer, parse};
/// let vocab = vec!["sent".to_string()];
/// let f = parse("K0 snet")?; // typo
/// let report = Analyzer::new()
///     .vocabulary(&vocab)
///     .num_agents(2)
///     .analyze(&f);
/// assert!(report.has_errors());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Default)]
pub struct Analyzer<'a> {
    frame: Option<&'a dyn Frame>,
    vocabulary: Option<&'a [String]>,
    num_agents: Option<usize>,
    temporal: Option<bool>,
    horizon: Option<u64>,
    minimize: bool,
}

impl<'a> Analyzer<'a> {
    /// An analyzer that knows nothing about the frame: only structural
    /// diagnostics and facts are produced.
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Resolve requirements against `frame`: its vocabulary, agent
    /// count, temporal capability, and (unless overridden) the horizon
    /// implied by its longest run.
    pub fn frame(mut self, frame: &'a dyn Frame) -> Self {
        self.frame = Some(frame);
        self
    }

    /// Declare the atom vocabulary (used when no frame is set).
    pub fn vocabulary(mut self, atoms: &'a [String]) -> Self {
        self.vocabulary = Some(atoms);
        self
    }

    /// Declare the number of agents (used when no frame is set).
    pub fn num_agents(mut self, n: usize) -> Self {
        self.num_agents = Some(n);
        self
    }

    /// Declare whether the frame has run/time structure (used when no
    /// frame is set).
    pub fn temporal(mut self, has: bool) -> Self {
        self.temporal = Some(has);
        self
    }

    /// Declare the session horizon (time indices run `0..=horizon`).
    pub fn horizon(mut self, h: u64) -> Self {
        self.horizon = Some(h);
        self
    }

    /// Analyze as if the session ran with `--minimize`: non-quotient-safe
    /// operators are reported (as warnings, with a path).
    pub fn minimize(mut self, on: bool) -> Self {
        self.minimize = on;
        self
    }

    /// Runs the analysis. Never evaluates the formula and never fails:
    /// problems become diagnostics.
    pub fn analyze(&self, f: &Formula) -> Diagnostics {
        self.analyze_with_program(f).0
    }

    /// Runs the analysis and also hands back the program it compiled
    /// from the [`simplify`]d formula — the program a session executes,
    /// so one ask simplifies and compiles once. `Facts::quotient_safe`
    /// and `Facts::instructions_simplified` describe exactly this
    /// program. The `Err` is the compile error of the simplified
    /// formula; gate on [`Diagnostics::first_error_as_eval`] first to
    /// report the original formula's first error instead.
    pub fn analyze_with_program(
        &self,
        f: &Formula,
    ) -> (Diagnostics, Result<crate::CompiledFormula, EvalError>) {
        let mut walk = Walk {
            path: Vec::new(),
            scope: Vec::new(),
            structural: Vec::new(),
            warnings: Vec::new(),
            agents: BTreeSet::new(),
            atom_first: HashMap::new(),
            agent_first: HashMap::new(),
            temporal_first: None,
            unsafe_first: None,
            temporal_depth: 0,
            max_temporal_depth: 0,
            nodes: 0,
        };
        walk.visit(f);

        let mut errors = walk.structural;
        errors.extend(self.frame_errors(
            f,
            &walk.atom_first,
            &walk.agent_first,
            walk.temporal_first.as_deref().unwrap_or(""),
        ));
        let mut warnings = walk.warnings;

        let simplified = simplify(&f.clone().arc());
        let program = crate::compile(&simplified);
        let instructions_simplified = program.as_ref().ok().map(crate::CompiledFormula::num_ops);
        // Quotient safety is the executed program's bit; the walk of the
        // original only names where the first unsafe subterm sits.
        let quotient_safe = match &program {
            Ok(c) => c.quotient_safe(),
            Err(_) => walk.unsafe_first.is_none(),
        };
        let quotient_unsafe = walk.unsafe_first.filter(|_| !quotient_safe);

        warnings.extend(self.horizon_warning(walk.max_temporal_depth));
        if self.minimize {
            if let Some((path, op)) = &quotient_unsafe {
                warnings.push(Diagnostic::new(
                    DiagKind::NotQuotientSafe(op.clone()),
                    path.clone(),
                ));
            }
        }
        if let Formula::True | Formula::False = &*simplified {
            if !matches!(f, Formula::True | Formula::False) {
                warnings.push(Diagnostic::new(
                    DiagKind::ConstantFormula(matches!(&*simplified, Formula::True)),
                    "",
                ));
            }
        }

        let facts = Facts {
            nodes: walk.nodes,
            modal_depth: f.modal_depth(),
            temporal_depth: walk.max_temporal_depth,
            agents: walk.agents.into_iter().collect(),
            atoms: {
                let mut atoms: Vec<String> = walk.atom_first.keys().cloned().collect();
                atoms.sort();
                atoms
            },
            quotient_safe,
            quotient_unsafe,
            // The original is compiled only to count its instructions,
            // and only when simplification rewrote it.
            instructions: if *simplified == *f {
                instructions_simplified
            } else {
                crate::compile(f).ok().map(|c| c.num_ops())
            },
            instructions_simplified,
            simplified: simplified.to_string(),
        };

        (
            Diagnostics {
                errors,
                warnings,
                facts,
            },
            program,
        )
    }

    /// The horizon warning for temporal nesting `depth`, if it fires.
    /// A frame's horizon is its longest run, but runs are scanned only
    /// as far as the first one long enough for `depth`; the full maximum
    /// is taken only when the warning fires, for its message.
    fn horizon_warning(&self, depth: u32) -> Option<Diagnostic> {
        if depth == 0 {
            return None;
        }
        let horizon = match self.horizon {
            Some(h) => h,
            None => {
                let ts = self.frame?.temporal()?;
                let last = |r| ts.run_len(r).saturating_sub(1);
                if (0..ts.num_runs()).any(|r| last(r) >= u64::from(depth)) {
                    return None;
                }
                (0..ts.num_runs()).map(last).max()?
            }
        };
        (u64::from(depth) > horizon)
            .then(|| Diagnostic::new(DiagKind::TemporalDepthExceedsHorizon { depth, horizon }, ""))
    }

    /// Replays the formula's frame requirements (in bind order, via
    /// [`visit_frame_reqs`]) against whatever is known, reporting each
    /// distinct failure once, at its first occurrence.
    fn frame_errors(
        &self,
        f: &Formula,
        atom_first: &HashMap<String, String>,
        agent_first: &HashMap<usize, String>,
        temporal_path: &str,
    ) -> Vec<Diagnostic> {
        let num_agents = self.known_num_agents();
        let temporal = self.known_temporal();
        let mut atom_known: HashMap<&str, Option<bool>> = HashMap::new();
        let mut reported_atoms: HashSet<String> = HashSet::new();
        let mut reported_agents: HashSet<usize> = HashSet::new();
        let mut reported_temporal = false;
        let mut out = Vec::new();
        visit_frame_reqs(f, &mut |req| match req {
            FrameReq::Agent(i) => {
                let i = i.index();
                if num_agents.is_some_and(|n| i >= n) && reported_agents.insert(i) {
                    let path = agent_first.get(&i).cloned().unwrap_or_default();
                    out.push(Diagnostic::new(DiagKind::AgentOutOfRange(i), path));
                }
            }
            FrameReq::Atom(name) => {
                let known = *atom_known
                    .entry(name)
                    .or_insert_with(|| self.atom_known(name));
                if known == Some(false) && reported_atoms.insert(name.to_string()) {
                    let path = atom_first.get(name).cloned().unwrap_or_default();
                    out.push(Diagnostic::new(
                        DiagKind::UnknownAtom(name.to_string()),
                        path,
                    ));
                }
            }
            FrameReq::Temporal(op) => {
                if temporal == Some(false) && !reported_temporal {
                    reported_temporal = true;
                    out.push(Diagnostic::new(
                        DiagKind::NoTemporalStructure(op.to_string()),
                        temporal_path.to_string(),
                    ));
                }
            }
        });
        out
    }

    fn known_num_agents(&self) -> Option<usize> {
        self.num_agents
            .or_else(|| self.frame.map(Frame::num_agents))
    }

    fn known_temporal(&self) -> Option<bool> {
        self.temporal
            .or_else(|| self.frame.map(|fr| fr.temporal().is_some()))
    }

    /// `Some(true)`/`Some(false)` when the vocabulary is known, `None`
    /// otherwise.
    fn atom_known(&self, name: &str) -> Option<bool> {
        if let Some(fr) = self.frame {
            return Some(fr.model().atom_id(name).is_some());
        }
        self.vocabulary.map(|v| v.iter().any(|a| a == name))
    }
}

// ---------------------------------------------------------------------------
// The structural walk
// ---------------------------------------------------------------------------

/// State of the single structural pre-order pass: paths, binder scope,
/// structural errors, warnings, and the raw material for facts.
struct Walk {
    path: Vec<String>,
    scope: Vec<String>,
    structural: Vec<Diagnostic>,
    warnings: Vec<Diagnostic>,
    agents: BTreeSet<usize>,
    /// First (pre-order) path of each atom / agent — the path frame
    /// errors are reported at.
    atom_first: HashMap<String, String>,
    agent_first: HashMap<usize, String>,
    temporal_first: Option<String>,
    /// `(path, operator head)` of the first quotient-unsafe subterm.
    unsafe_first: Option<(String, String)>,
    temporal_depth: u32,
    max_temporal_depth: u32,
    nodes: usize,
}

/// The operator head of a non-leaf node, used as one path segment.
/// Children of `∧`/`∨`/`→`/`↔` carry their child index.
fn seg(f: &Formula, child: usize) -> String {
    match f {
        Formula::Not(_) => "not".to_string(),
        Formula::And(_) => format!("and[{child}]"),
        Formula::Or(_) => format!("or[{child}]"),
        Formula::Implies(..) => format!("impl[{child}]"),
        Formula::Iff(..) => format!("iff[{child}]"),
        Formula::Knows(i, _) => format!("K{}", i.index()),
        Formula::EveryoneK(g, 1, _) => format!("E{g}"),
        Formula::EveryoneK(g, k, _) => format!("E^{k}{g}"),
        Formula::Someone(g, _) => format!("S{g}"),
        Formula::Distributed(g, _) => format!("D{g}"),
        Formula::Common(g, _) => format!("C{g}"),
        Formula::Gfp(x, _) => format!("nu {x}"),
        Formula::Lfp(x, _) => format!("mu {x}"),
        Formula::Next(_) => "next".to_string(),
        Formula::Eventually(_) => "even".to_string(),
        Formula::Always(_) => "alw".to_string(),
        Formula::Once(_) => "once".to_string(),
        Formula::EveryoneEps(g, e, _) => format!("Eeps[{e}]{g}"),
        Formula::CommonEps(g, e, _) => format!("Ceps[{e}]{g}"),
        Formula::EveryoneEv(g, _) => format!("Eev{g}"),
        Formula::CommonEv(g, _) => format!("Cev{g}"),
        Formula::KnowsAt(i, t, _) => format!("K{}@[{t}]", i.index()),
        Formula::EveryoneTs(g, t, _) => format!("ET[{t}]{g}"),
        Formula::CommonTs(g, t, _) => format!("CT[{t}]{g}"),
        Formula::True | Formula::False | Formula::Atom(_) | Formula::Var(_) => {
            unreachable!("leaves are not path segments")
        }
    }
}

impl Walk {
    fn here(&self) -> String {
        self.path.join("/")
    }

    fn warn(&mut self, kind: DiagKind) {
        let at = self.here();
        self.warnings.push(Diagnostic::new(kind, at));
    }

    fn error(&mut self, kind: DiagKind) {
        let at = self.here();
        self.structural.push(Diagnostic::new(kind, at));
    }

    // Empty groups need no diagnostic: `AgentGroup::new` rejects them, so
    // every group reaching the analyzer is non-empty by construction.
    fn group_agents(&mut self, g: &hm_kripke::AgentGroup) {
        for i in g.iter() {
            self.agents.insert(i.index());
            let at = self.here();
            self.agent_first.entry(i.index()).or_insert(at);
        }
    }

    fn visit(&mut self, f: &Formula) {
        self.nodes += 1;
        let temporal = f.is_temporal_op();
        if temporal {
            self.temporal_depth += 1;
            self.max_temporal_depth = self.max_temporal_depth.max(self.temporal_depth);
            if self.temporal_first.is_none() {
                self.temporal_first = Some(self.here());
            }
        }
        if (temporal || matches!(f, Formula::Distributed(..))) && self.unsafe_first.is_none() {
            self.unsafe_first = Some((self.here(), seg(f, 0)));
        }
        match f {
            Formula::Atom(name) => {
                let at = self.here();
                self.atom_first.entry(name.clone()).or_insert(at);
            }
            Formula::Var(x) if !self.scope.iter().any(|b| b == x) => {
                self.error(DiagKind::UnboundVar(x.clone()));
            }
            Formula::Knows(i, _) | Formula::KnowsAt(i, _, _) => {
                self.agents.insert(i.index());
                let at = self.here();
                self.agent_first.entry(i.index()).or_insert(at);
            }
            Formula::EveryoneK(g, _, _)
            | Formula::Someone(g, _)
            | Formula::Distributed(g, _)
            | Formula::Common(g, _)
            | Formula::EveryoneEps(g, _, _)
            | Formula::CommonEps(g, _, _)
            | Formula::EveryoneEv(g, _)
            | Formula::CommonEv(g, _)
            | Formula::EveryoneTs(g, _, _)
            | Formula::CommonTs(g, _, _) => self.group_agents(g),
            Formula::Gfp(x, body) | Formula::Lfp(x, body) => {
                if self.scope.iter().any(|b| b == x) {
                    self.error(DiagKind::ShadowedVar(x.clone()));
                }
                if check_positive(body, x).is_err() {
                    self.error(DiagKind::NonMonotone(x.clone()));
                }
                if !simplify::occurs_free(body, x) {
                    self.warn(DiagKind::VacuousFixpoint(x.clone()));
                }
            }
            Formula::And(xs) => {
                if let Some(i) = xs.iter().position(|x| matches!(**x, Formula::False)) {
                    self.warn(DiagKind::DeadSubformula(format!(
                        "conjunct {i} is `false`, so the conjunction is constantly false"
                    )));
                }
            }
            Formula::Or(xs) => {
                if let Some(i) = xs.iter().position(|x| matches!(**x, Formula::True)) {
                    self.warn(DiagKind::DeadSubformula(format!(
                        "disjunct {i} is `true`, so the disjunction is constantly true"
                    )));
                }
            }
            Formula::Implies(a, b) => {
                if matches!(**a, Formula::False) {
                    self.warn(DiagKind::DeadSubformula(
                        "the antecedent is `false`, so the implication is constantly true"
                            .to_string(),
                    ));
                } else if matches!(**b, Formula::True) {
                    self.warn(DiagKind::DeadSubformula(
                        "the consequent is `true`, so the implication is constantly true"
                            .to_string(),
                    ));
                }
            }
            _ => {}
        }

        // Recurse with path and scope maintenance.
        let binder = match f {
            Formula::Gfp(x, _) | Formula::Lfp(x, _) => Some(x.clone()),
            _ => None,
        };
        if let Some(x) = binder {
            self.scope.push(x);
        }
        let mut child = 0usize;
        f.for_each_child(|c| {
            self.path.push(seg(f, child));
            self.visit(c);
            self.path.pop();
            child += 1;
        });
        if matches!(f, Formula::Gfp(..) | Formula::Lfp(..)) {
            self.scope.pop();
        }
        if temporal {
            self.temporal_depth -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    use hm_kripke::{AgentId, ModelBuilder, WorldId};

    fn model() -> hm_kripke::KripkeModel {
        let mut b = ModelBuilder::new(2);
        for i in 0..4 {
            b.add_world(format!("w{i}"));
        }
        let p = b.atom("p");
        b.set_atom(p, WorldId::new(0), true);
        b.atom("q");
        b.set_partition_by_key(AgentId::new(0), |w| w.index() / 2);
        b.set_partition_by_key(AgentId::new(1), |w| w.index() % 2);
        b.build()
    }

    fn against_model(src: &str) -> Diagnostics {
        let m = model();
        Analyzer::new().frame(&m).analyze(&parse(src).unwrap())
    }

    #[test]
    fn clean_formula_is_clean() {
        let d = against_model("K0 p -> C{0,1} (p | q)");
        assert!(d.is_clean(), "{:?}", d);
        assert_eq!(d.first_error_as_eval(), None);
        assert!(d.facts().quotient_safe);
        assert_eq!(d.facts().agents, vec![0, 1]);
        assert_eq!(d.facts().atoms, vec!["p".to_string(), "q".to_string()]);
    }

    #[test]
    fn frame_errors_match_compile_then_bind() {
        let m = model();
        for src in [
            "K0 zap",
            "K9 p",
            "K9 zap", // agent error wins: checked before the child
            "next p",
            "$X",
            "nu X. !$X",
            "K0 ($Y & K9 p)", // structural before frame errors
        ] {
            let f = parse(src).unwrap();
            let direct = crate::compile(&f)
                .and_then(|c| c.bind(&m).map(|_| ()))
                .err();
            let analyzed = Analyzer::new().frame(&m).analyze(&f).first_error_as_eval();
            assert_eq!(analyzed, direct, "{src}");
        }
    }

    #[test]
    fn paths_name_the_offending_subterm() {
        let d = against_model("p & K0 (q | !zap)");
        let err = &d.errors()[0];
        assert_eq!(err.code(), "unknown-atom");
        assert_eq!(err.path(), "and[1]/K0/or[1]/not");
        let d = against_model("K0 even p");
        // Temporal ops evaluate fine on run-structured frames; this model
        // is static.
        assert_eq!(d.errors()[0].code(), "no-temporal-structure");
        assert_eq!(d.errors()[0].path(), "K0");
    }

    #[test]
    fn strict_lints_do_not_gate_evaluation() {
        let m = model();
        // Shadowed binder: evaluates fine, still an analyzer error.
        let f = parse("nu X. p & (nu X. p & $X) & $X").unwrap();
        let d = Analyzer::new().frame(&m).analyze(&f);
        assert!(d.has_errors());
        assert_eq!(d.errors()[0].code(), "shadowed-var");
        assert_eq!(d.first_error_as_eval(), None);
        // The shadowed formula still compiles, binds and evaluates.
        assert!(crate::evaluate(&m, &f).is_ok());
    }

    #[test]
    fn warnings_for_suspicious_shapes() {
        let codes = |src: &str| -> Vec<&'static str> {
            against_model(src)
                .warnings()
                .iter()
                .map(|d| d.code())
                .collect()
        };
        assert_eq!(
            codes("p & false"),
            vec!["dead-subformula", "constant-formula"]
        );
        assert_eq!(
            codes("false -> p"),
            vec!["dead-subformula", "constant-formula"]
        );
        assert_eq!(codes("nu X. K0 p"), vec!["vacuous-fixpoint"]);
        assert!(codes("K0 p").is_empty());
    }

    /// A one-agent discrete frame over ragged runs: run `r` has
    /// `lens[r]` points, laid out run after run.
    struct Ragged {
        lens: Vec<u64>,
        model: hm_kripke::KripkeModel,
    }

    impl Ragged {
        fn new(lens: Vec<u64>) -> Self {
            let mut b = ModelBuilder::new(1);
            b.add_worlds(lens.iter().sum::<u64>() as usize);
            b.atom("p");
            b.set_partition_by_key(AgentId::new(0), |w| w.index());
            let model = b.build();
            Ragged { lens, model }
        }

        fn start(&self, run: usize) -> usize {
            self.lens[..run].iter().sum::<u64>() as usize
        }
    }

    impl Frame for Ragged {
        fn model(&self) -> &hm_kripke::KripkeModel {
            &self.model
        }
        fn temporal(&self) -> Option<&dyn crate::TemporalStructure> {
            Some(self)
        }
    }

    impl crate::TemporalStructure for Ragged {
        fn num_runs(&self) -> usize {
            self.lens.len()
        }
        fn run_of(&self, w: WorldId) -> usize {
            (0..self.lens.len())
                .rev()
                .find(|&r| self.start(r) <= w.index())
                .unwrap()
        }
        fn time_of(&self, w: WorldId) -> u64 {
            (w.index() - self.start(self.run_of(w))) as u64
        }
        fn point(&self, run: usize, t: u64) -> Option<WorldId> {
            (t < self.lens[run]).then(|| WorldId::new(self.start(run) + t as usize))
        }
        fn run_len(&self, run: usize) -> u64 {
            self.lens[run]
        }
        fn clock(&self, _: AgentId, _: usize, _: u64) -> Option<u64> {
            None
        }
    }

    #[test]
    fn horizon_warning() {
        let vocab = vec!["p".to_string()];
        let d = Analyzer::new()
            .vocabulary(&vocab)
            .num_agents(2)
            .temporal(true)
            .horizon(2)
            .analyze(&parse("next next next p").unwrap());
        assert_eq!(d.warnings()[0].code(), "temporal-depth-exceeds-horizon");
        assert_eq!(d.facts().temporal_depth, 3);

        // Frame-derived: the horizon is the longest run (4 points, so
        // horizon 3), wherever it sits among shorter ones.
        let frame = Ragged::new(vec![2, 4, 1, 3]);
        for depth in 0..=5u32 {
            let src = format!("{}p", "next ".repeat(depth as usize));
            let d = Analyzer::new().frame(&frame).analyze(&parse(&src).unwrap());
            let horizon: Vec<_> = d
                .warnings()
                .iter()
                .filter_map(|w| match w.kind() {
                    DiagKind::TemporalDepthExceedsHorizon { depth, horizon } => {
                        Some((*depth, *horizon))
                    }
                    _ => None,
                })
                .collect();
            let expected = if depth > 3 { vec![(depth, 3)] } else { vec![] };
            assert_eq!(horizon, expected, "{src}");
        }
    }

    #[test]
    fn minimize_reports_unsafe_path() {
        let d = Analyzer::new().analyze(&parse("p & D{0,1} q").unwrap());
        assert!(d.is_clean(), "no minimize, no warning");
        let m = model();
        let d = Analyzer::new()
            .frame(&m)
            .minimize(true)
            .analyze(&parse("p & D{0,1} q").unwrap());
        assert_eq!(d.warnings()[0].code(), "not-quotient-safe");
        assert_eq!(d.warnings()[0].path(), "and[1]");
        assert!(!d.facts().quotient_safe);
    }

    #[test]
    fn unsafe_subterms_that_simplify_away_are_safe() {
        // `D{0,1} q | true` folds to `true`: the executed program has no
        // `D_G`, so it runs on the quotient and nothing is reported.
        let m = model();
        let (d, program) = Analyzer::new()
            .frame(&m)
            .minimize(true)
            .analyze_with_program(&parse("D{0,1} q | true").unwrap());
        assert!(program.unwrap().quotient_safe());
        assert!(d.facts().quotient_safe);
        assert_eq!(d.facts().quotient_unsafe, None);
        let codes: Vec<_> = d.warnings().iter().map(Diagnostic::code).collect();
        assert_eq!(codes, vec!["dead-subformula", "constant-formula"]);
    }

    #[test]
    fn facts_count_instructions() {
        let d = against_model("C{0} C{0} p");
        let f = d.facts();
        assert!(f.instructions_simplified.unwrap() < f.instructions.unwrap());
        assert_eq!(f.simplified, "K0 p");
        // Unchanged by simplification: both counts are the one program's.
        let m = model();
        let (d, program) = Analyzer::new()
            .frame(&m)
            .analyze_with_program(&parse("K0 p & q").unwrap());
        let ops = program.unwrap().num_ops();
        assert_eq!(d.facts().instructions, Some(ops));
        assert_eq!(d.facts().instructions_simplified, Some(ops));
    }

    #[test]
    fn unknown_aspects_are_not_checked() {
        let d = Analyzer::new().analyze(&parse("K7 mystery & even p").unwrap());
        assert!(!d.has_errors());
    }
}
