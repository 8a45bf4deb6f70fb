//! Ahead-of-time formula compilation.
//!
//! The tree-walking evaluator ([`evaluate_tree`](crate::evaluate_tree))
//! resolves every atom by `&str` at every formula node and re-checks
//! well-formedness on each visit. When the same epistemic question is
//! asked against many frames — the shape of every experiment in the
//! paper, stressed further by *Common knowledge revisited* — that
//! per-node work dominates. [`compile`] lowers a [`Formula`] once into a
//! [`CompiledFormula`]: a flat post-order instruction buffer over a stack
//! machine, with
//!
//! - **interned atoms**: each distinct atom name occupies one slot of an
//!   atom table, resolved against a frame's model once per [`bind`]
//!   instead of once per node per evaluation;
//! - **interned agent groups**: each distinct [`AgentGroup`] is stored
//!   once and referenced by index;
//! - **preallocated fixed-point slots**: `ν`/`µ` binders are
//!   alpha-resolved at compile time to dense slot indices, so evaluation
//!   needs no environment map, and shadowing costs nothing;
//! - **hoisted fixed-point bodies**: each binder body is a contiguous
//!   chunk of the same buffer, re-executed by the `Fix` instruction until
//!   convergence.
//!
//! Well-formedness (unbound variables, non-monotone binders) is checked
//! at compile time; frame compatibility (unknown atoms, agent ranges,
//! temporal structure) at bind time, in the same pre-order the
//! tree-walker would discover it. After a successful bind, execution is
//! infallible.
//!
//! The machine runs in one of two value domains: exact world sets, or
//! sound `(lo, hi)` intervals for frames whose run set was truncated
//! (see the `interval` module). Both share every instruction, slot,
//! register and budget check; only the operator kernels differ.
//!
//! [`bind`]: CompiledFormula::bind

use crate::analysis::{visit_frame_reqs, FrameReq};
use crate::eval::{check_positive, EvalError};
use crate::formula::Formula;
use crate::frame::{Frame, TemporalStructure};
use crate::interval::IntervalSet;
use crate::temporal::{self, Attain};
use hm_kripke::{AgentGroup, AgentId, KripkeModel, WorldSet};
use hm_limits::{failpoints, Budget, LimitExceeded, Phase};
use std::borrow::Cow;
use std::collections::HashMap;
use std::convert::Infallible;

/// One instruction of the compiled stack machine. Instructions are laid
/// out in post-order: each pops its operands (pushed by earlier
/// instructions) and pushes one result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Push the full set.
    True,
    /// Push the empty set.
    False,
    /// Push the resolved set of atom-table entry `i`.
    Atom(u32),
    /// Push the current value of fixed-point slot `i`.
    Slot(u32),
    /// Pop one, push its complement.
    Not,
    /// Pop `n`, push their intersection.
    And(u32),
    /// Pop `n`, push their union.
    Or(u32),
    /// Pop consequent then antecedent, push `¬a ∪ b`.
    Implies,
    /// Pop two, push the biconditional.
    Iff,
    /// Pop one, push `K_i`.
    Knows(u32),
    /// Pop one, push the `k`-fold `E_G` iterate.
    EveryoneK { group: u32, k: u32 },
    /// Pop one, push `S_G`.
    Someone(u32),
    /// Pop one, push `D_G`.
    Distributed(u32),
    /// Pop one, push `C_G`.
    Common(u32),
    /// Iterate chunk `body` from the full (`gfp`) or empty (`lfp`) set in
    /// slot `slot` until convergence; push the fixed point.
    Fix { gfp: bool, slot: u32, body: u32 },
    /// Common-subexpression elimination: evaluate chunk `body` into
    /// register `reg` on first execution, push a reference to the
    /// register thereafter. Emitted for closed (fixed-point-variable
    /// free) subformulas occurring more than once — each is evaluated
    /// once per `eval`, where the tree-walker re-evaluates every
    /// occurrence.
    Memo { reg: u32, body: u32 },
    /// Pop one, push the temporal image (run/time operators).
    Next,
    /// See [`Op::Next`].
    Eventually,
    /// See [`Op::Next`].
    Always,
    /// See [`Op::Next`].
    Once,
    /// Pop one, push `E^ε_G`, `E^◇_G` or `E^T_G`; `arg` is `ε` or `T`
    /// (unused for `◇`). Flat fields keep `Op` at 16 bytes.
    EveryoneAt { var: Attain, group: u32, arg: u64 },
    /// Pop one, push the matching `C^ε_G`, `C^◇_G` or `C^T_G` fixed point
    /// (internal iteration).
    CommonAt { var: Attain, group: u32, arg: u64 },
    /// Pop one, push `K_i^T`.
    KnowsAt { agent: u32, stamp: u64 },
}

/// A frame-compatibility check recorded at compile time, replayed by
/// [`CompiledFormula::bind`] in the tree-walker's discovery (pre-)order so
/// both evaluators report the same first error.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Check {
    /// Agent index must be `< frame.num_agents()`.
    Agent(u32),
    /// Atom-table entry must be interpreted by the frame.
    Atom(u32),
    /// Frame must expose a temporal structure (op name for the error).
    Temporal(&'static str),
}

/// A formula lowered to the flat instruction buffer. Produce one with
/// [`compile`], [`bind`](CompiledFormula::bind) it to a frame once, and
/// run [`eval_bound_budgeted`](CompiledFormula::eval_bound_budgeted) as
/// often as needed.
///
/// # Examples
///
/// ```
/// use hm_logic::{compile, parse, evaluate_tree};
/// use hm_kripke::{ModelBuilder, AgentId};
/// use hm_limits::Budget;
/// let mut b = ModelBuilder::new(1);
/// let w0 = b.add_world("w0");
/// b.add_world("w1");
/// let p = b.atom("p");
/// b.set_atom(p, w0, true);
/// b.set_partition_by_key(AgentId::new(0), |w| w.index());
/// let m = b.build();
/// let f = parse("K0 p | !p")?;
/// let compiled = compile(&f)?;
/// let bound = compiled.bind(&m)?;
/// let set = compiled.eval_bound_budgeted(&m, &bound, &Budget::unlimited())?;
/// assert_eq!(set, evaluate_tree(&m, &f)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledFormula {
    /// The flat instruction buffer; chunk `i` occupies
    /// `chunk_ranges[i].0 .. chunk_ranges[i].1`. The main program is the
    /// last chunk; earlier chunks are hoisted fixed-point bodies.
    ops: Vec<Op>,
    chunk_ranges: Vec<(u32, u32)>,
    /// Interned atom names; `Op::Atom(i)` reads the `i`-th resolved set.
    atoms: Vec<String>,
    /// Interned agent groups.
    groups: Vec<AgentGroup>,
    /// Frame checks in tree-walker discovery order.
    checks: Vec<Check>,
    /// Number of fixed-point slots (alpha-resolved binders).
    num_slots: u32,
    /// Number of CSE registers (distinct repeated closed subformulas).
    num_regs: u32,
    /// `true` if any instruction needs run/time structure.
    mentions_temporal: bool,
    /// `true` if any instruction is `D_G` (not bisimulation-invariant).
    mentions_distributed: bool,
}

/// Compiles a closed formula. Fails with [`EvalError::UnboundVar`] or
/// [`EvalError::NonMonotone`]; frame-dependent errors surface at
/// [`bind`](CompiledFormula::bind) time.
///
/// # Errors
///
/// See above.
pub fn compile(f: &Formula) -> Result<CompiledFormula, EvalError> {
    let mut counts = HashMap::new();
    // The CSE pre-pass hashes subtrees; on small formulas (the common
    // one-shot `evaluate` case) there is nothing worth sharing and the
    // pre-pass would dominate compilation, so skip it outright.
    if node_count_at_least(f, CSE_MIN_NODES) {
        count_repeats(f, &mut counts);
    }
    let mut c = Compiler {
        out: CompiledFormula {
            ops: Vec::new(),
            chunk_ranges: Vec::new(),
            atoms: Vec::new(),
            groups: Vec::new(),
            checks: Vec::new(),
            num_slots: 0,
            num_regs: 0,
            mentions_temporal: false,
            mentions_distributed: false,
        },
        scope: Vec::new(),
        counts,
        cse: HashMap::new(),
    };
    let mut main = Vec::new();
    c.emit(f, &mut main)?;
    c.push_chunk(main);
    // Bind-time checks come from the same frame-requirement traversal the
    // static analyzer uses (one definition of discovery order). Every
    // atom was interned during emission, so the lookups cannot miss; a
    // CSE'd subtree contributes its checks once per occurrence, which
    // repeats — harmlessly — some checks the emitter used to skip.
    let out = &mut c.out;
    visit_frame_reqs(f, &mut |req| match req {
        FrameReq::Agent(i) => out.checks.push(Check::Agent(i.index() as u32)),
        FrameReq::Atom(name) => {
            let ix = out
                .atoms
                .iter()
                .position(|a| a == name)
                .expect("emission interned every atom");
            out.checks.push(Check::Atom(ix as u32));
        }
        FrameReq::Temporal(op) => out.checks.push(Check::Temporal(op)),
    });
    Ok(c.out)
}

/// Below this many nodes, common-subexpression elimination is not
/// attempted (see [`compile`]).
const CSE_MIN_NODES: usize = 16;

/// `true` iff the formula has at least `min` nodes (early-exit count).
fn node_count_at_least(f: &Formula, min: usize) -> bool {
    fn walk(f: &Formula, left: &mut usize) {
        if *left == 0 {
            return;
        }
        *left -= 1;
        f.for_each_child(|c| walk(c, left));
    }
    let mut left = min;
    walk(f, &mut left);
    left == 0
}

/// Counts occurrences of closed non-leaf subformulas — the CSE
/// candidates. Children of a subformula already seen are not re-counted:
/// later occurrences will reuse the whole memoized parent, so inner
/// repetitions within it are already shared.
fn count_repeats(f: &Formula, counts: &mut HashMap<Formula, u32>) {
    if cse_candidate(f) {
        let c = counts.entry(f.clone()).or_insert(0);
        *c += 1;
        if *c > 1 {
            return;
        }
    }
    f.for_each_child(|c| count_repeats(c, counts));
}

/// Non-leaf (leaves are already O(1) to evaluate) and closed: fixed-point
/// variables change value across iterations, so any subformula with a
/// free variable must be re-evaluated in place.
fn cse_candidate(f: &Formula) -> bool {
    !matches!(
        f,
        Formula::True | Formula::False | Formula::Atom(_) | Formula::Var(_)
    ) && {
        let mut bound: Vec<String> = Vec::new();
        !has_free_var(f, &mut bound)
    }
}

/// Cheap free-variable test: unlike `Formula::free_vars` (which collects
/// a sorted `Vec<String>` per call), this allocates only at binder
/// nodes. It runs once per node of the compile pre-pass.
fn has_free_var(f: &Formula, bound: &mut Vec<String>) -> bool {
    match f {
        Formula::Var(x) => !bound.iter().any(|b| b == x),
        Formula::Gfp(x, body) | Formula::Lfp(x, body) => {
            bound.push(x.clone());
            let open = has_free_var(body, bound);
            bound.pop();
            open
        }
        _ => {
            let mut open = false;
            f.for_each_child(|c| open |= has_free_var(c, bound));
            open
        }
    }
}

/// The atom table of a formula resolved against one frame, plus the
/// frame-compatibility proof: holding a `Bound` means every atom, agent
/// index and temporal operator of the compiled formula is interpreted by
/// the frame it was bound against, so evaluation cannot fail.
///
/// Universe-compatibility is the caller's obligation: evaluating with a
/// `Bound` produced from a *different* frame panics on the first
/// mismatched set operation.
#[derive(Debug, Clone)]
pub struct Bound {
    atom_sets: Vec<WorldSet>,
}

impl CompiledFormula {
    /// Resolves the atom table against `frame` and validates agent
    /// indices and temporal requirements — once per frame, instead of
    /// once per node per evaluation.
    ///
    /// # Errors
    ///
    /// [`EvalError::UnknownAtom`], [`EvalError::AgentOutOfRange`] or
    /// [`EvalError::NoTemporalStructure`], reported in the same order the
    /// tree-walking evaluator would encounter them.
    pub fn bind(&self, frame: &dyn Frame) -> Result<Bound, EvalError> {
        let model = frame.model();
        let mut atom_sets: Vec<Option<WorldSet>> = vec![None; self.atoms.len()];
        for check in &self.checks {
            match *check {
                Check::Agent(i) => {
                    if i as usize >= model.num_agents() {
                        return Err(EvalError::AgentOutOfRange(i as usize));
                    }
                }
                Check::Temporal(op) => {
                    if frame.temporal().is_none() {
                        return Err(EvalError::NoTemporalStructure(op.to_string()));
                    }
                }
                Check::Atom(ix) => {
                    let slot = &mut atom_sets[ix as usize];
                    if slot.is_none() {
                        let name = &self.atoms[ix as usize];
                        let id = model
                            .atom_id(name)
                            .ok_or_else(|| EvalError::UnknownAtom(name.clone()))?;
                        *slot = Some(model.atom_set(id));
                    }
                }
            }
        }
        Ok(Bound {
            atom_sets: atom_sets
                .into_iter()
                .map(|s| s.expect("every atom has a Check::Atom"))
                .collect(),
        })
    }

    /// Runs the instruction buffer against `frame` using atom sets
    /// resolved by a previous [`bind`](Self::bind) against the same
    /// frame, under a resource [`Budget`]: each executed instruction
    /// charges one visited state (amortized — see `hm-limits`), and every
    /// fixed-point iteration re-checks deadlines and cancellation, so
    /// divergently large evaluations are interrupted at iteration
    /// granularity. Every other failure mode was ruled out at compile or
    /// bind time.
    ///
    /// # Errors
    ///
    /// [`EvalError::Limit`] when the budget is exhausted, the deadline
    /// passes, or the computation is cancelled. The failpoint site
    /// `logic::eval` can inject the same errors deterministically.
    ///
    /// # Panics
    ///
    /// Panics (universe mismatch) if `bound` came from a frame with a
    /// different world universe.
    pub fn eval_bound_budgeted(
        &self,
        frame: &dyn Frame,
        bound: &Bound,
        budget: &Budget,
    ) -> Result<WorldSet, EvalError> {
        self.run_governed(frame, bound, budget)
    }

    /// [`eval_bound_budgeted`](Self::eval_bound_budgeted) in the interval
    /// domain: a sound three-valued bracket on a frame whose run set was
    /// truncated (see [`evaluate_interval`](crate::evaluate_interval)).
    ///
    /// # Errors
    ///
    /// As for [`eval_bound_budgeted`](Self::eval_bound_budgeted).
    ///
    /// # Panics
    ///
    /// Panics (universe mismatch) if `bound` came from a frame with a
    /// different world universe.
    pub fn eval_bound_interval(
        &self,
        frame: &dyn Frame,
        bound: &Bound,
        budget: &Budget,
    ) -> Result<IntervalSet, EvalError> {
        self.run_governed(frame, bound, budget)
    }

    fn run_governed<D: Domain>(
        &self,
        frame: &dyn Frame,
        bound: &Bound,
        budget: &Budget,
    ) -> Result<D, EvalError> {
        failpoints::check("logic::eval", Phase::Eval)?;
        self.run(frame, bound, budget)
    }

    /// Runs the program without the failpoint; with an unlimited budget
    /// it cannot fail.
    pub(crate) fn run<D: Domain>(
        &self,
        frame: &dyn Frame,
        bound: &Bound,
        budget: &Budget,
    ) -> Result<D, EvalError> {
        let model = frame.model();
        let n = model.num_worlds();
        let atoms = D::lift_atoms(&bound.atom_sets);
        let mut m = Machine {
            compiled: self,
            model,
            ts: frame.temporal(),
            atoms: &atoms,
            slots: vec![D::lift(WorldSet::empty(n)); self.num_slots as usize],
            regs: vec![None; self.num_regs as usize],
            stack: Vec::new(),
            n,
            budget,
        };
        m.exec_chunk(self.chunk_ranges.len() - 1)
            .map_err(EvalError::Limit)?;
        let top = m.stack.pop().expect("program pushes exactly one result");
        Ok(m.owned_value(top))
    }

    /// `true` if the formula may be answered on a bisimulation quotient
    /// with identical verdicts: no temporal operators (the quotient has
    /// no run/time structure) and no `D_G` (not invariant).
    pub fn quotient_safe(&self) -> bool {
        !self.mentions_temporal && !self.mentions_distributed
    }

    /// Number of instructions across all chunks (diagnostics).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// The interned atom names, in first-occurrence order.
    pub fn atom_names(&self) -> impl Iterator<Item = &str> {
        self.atoms.iter().map(String::as_str)
    }
}

/// A compile-and-bind cache for workloads that evaluate the same
/// formulas against the same frame many times (onset scans, ladder
/// sweeps). The first [`eval`](EvalCache::eval) of a formula compiles
/// and binds it; later calls re-run the bound program. Only the
/// *program* is cached — every call still evaluates, so timings stay
/// honest.
///
/// A cache is tied to the frame it was first used with: binding encodes
/// frame-specific atom sets, so reusing a cache across frames panics or
/// answers wrongly, exactly like running a [`Bound`] on another frame.
///
/// # Examples
///
/// ```
/// use hm_logic::{parse, EvalCache};
/// use hm_kripke::{ModelBuilder, AgentId};
/// let mut b = ModelBuilder::new(1);
/// let w0 = b.add_world("w0");
/// let p = b.atom("p");
/// b.set_atom(p, w0, true);
/// b.set_partition_by_key(AgentId::new(0), |w| w.index());
/// let m = b.build();
/// let f = parse("K0 p")?;
/// let mut cache = EvalCache::new();
/// assert!(cache.eval(&m, &f)?.contains(w0));
/// assert!(cache.eval(&m, &f)?.contains(w0)); // compiled + bound once
/// assert_eq!(cache.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct EvalCache {
    entries: HashMap<Formula, (CompiledFormula, Bound)>,
}

impl EvalCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates `f` on `frame`, compiling and binding it on first
    /// sight and reusing the bound program thereafter.
    ///
    /// # Errors
    ///
    /// First call per formula: compile errors ([`EvalError::UnboundVar`],
    /// [`EvalError::NonMonotone`]) and bind errors
    /// ([`CompiledFormula::bind`]). Cached calls are infallible.
    pub fn eval(&mut self, frame: &dyn Frame, f: &Formula) -> Result<WorldSet, EvalError> {
        if !self.entries.contains_key(f) {
            let compiled = compile(f)?;
            let bound = compiled.bind(frame)?;
            self.entries.insert(f.clone(), (compiled, bound));
        }
        let (compiled, bound) = &self.entries[f];
        compiled.run(frame, bound, &Budget::unlimited())
    }

    /// Number of distinct formulas compiled so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no formula has been compiled yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct Compiler {
    out: CompiledFormula,
    /// Binder stack: innermost last, each with its slot.
    scope: Vec<(String, u32)>,
    /// Occurrence counts from the pre-pass (CSE candidates only).
    counts: HashMap<Formula, u32>,
    /// Repeated subformulas already compiled: `(register, chunk)`.
    cse: HashMap<Formula, (u32, u32)>,
}

impl Compiler {
    /// Emits `f`, routing repeated closed subformulas through the CSE
    /// memo table.
    fn emit(&mut self, f: &Formula, ops: &mut Vec<Op>) -> Result<(), EvalError> {
        if self.counts.get(f).copied().unwrap_or(0) > 1 {
            if let Some(&(reg, body)) = self.cse.get(f) {
                ops.push(Op::Memo { reg, body });
                return Ok(());
            }
            let mut chunk = Vec::new();
            self.emit_node(f, &mut chunk)?;
            let body = self.push_chunk(chunk);
            let reg = self.out.num_regs;
            self.out.num_regs += 1;
            self.cse.insert(f.clone(), (reg, body));
            ops.push(Op::Memo { reg, body });
            return Ok(());
        }
        self.emit_node(f, ops)
    }
    fn push_chunk(&mut self, ops: Vec<Op>) -> u32 {
        let start = self.out.ops.len() as u32;
        self.out.ops.extend(ops);
        self.out
            .chunk_ranges
            .push((start, self.out.ops.len() as u32));
        (self.out.chunk_ranges.len() - 1) as u32
    }

    // Interning by linear scan: formula vocabularies are a handful of
    // atoms and groups, where a hash map costs more than it saves —
    // compile-time overhead lands directly on every one-shot `evaluate`.
    fn atom(&mut self, name: &str) -> u32 {
        if let Some(ix) = self.out.atoms.iter().position(|a| a == name) {
            return ix as u32;
        }
        self.out.atoms.push(name.to_string());
        (self.out.atoms.len() - 1) as u32
    }

    fn group(&mut self, g: &AgentGroup) -> u32 {
        if let Some(ix) = self.out.groups.iter().position(|h| h == g) {
            return ix as u32;
        }
        self.out.groups.push(g.clone());
        (self.out.groups.len() - 1) as u32
    }

    fn mark_temporal(&mut self) {
        self.out.mentions_temporal = true;
    }

    fn fresh_slot(&mut self) -> u32 {
        let s = self.out.num_slots;
        self.out.num_slots += 1;
        s
    }

    /// Emits one node of `f` in post-order onto `ops` (children through
    /// [`emit`](Self::emit)), recording frame checks in pre-order (the
    /// tree-walker's discovery order).
    fn emit_node(&mut self, f: &Formula, ops: &mut Vec<Op>) -> Result<(), EvalError> {
        match f {
            Formula::True => ops.push(Op::True),
            Formula::False => ops.push(Op::False),
            Formula::Atom(name) => {
                let ix = self.atom(name);
                ops.push(Op::Atom(ix));
            }
            Formula::Var(x) => {
                let slot = self
                    .scope
                    .iter()
                    .rev()
                    .find(|(name, _)| name == x)
                    .map(|&(_, s)| s)
                    .ok_or_else(|| EvalError::UnboundVar(x.clone()))?;
                ops.push(Op::Slot(slot));
            }
            Formula::Not(a) => {
                self.emit(a, ops)?;
                ops.push(Op::Not);
            }
            Formula::And(xs) => {
                for x in xs {
                    self.emit(x, ops)?;
                }
                ops.push(Op::And(xs.len() as u32));
            }
            Formula::Or(xs) => {
                for x in xs {
                    self.emit(x, ops)?;
                }
                ops.push(Op::Or(xs.len() as u32));
            }
            Formula::Implies(a, b) => {
                self.emit(a, ops)?;
                self.emit(b, ops)?;
                ops.push(Op::Implies);
            }
            Formula::Iff(a, b) => {
                self.emit(a, ops)?;
                self.emit(b, ops)?;
                ops.push(Op::Iff);
            }
            Formula::Knows(i, a) => {
                self.emit(a, ops)?;
                ops.push(Op::Knows(i.index() as u32));
            }
            Formula::EveryoneK(g, k, a) => {
                let group = self.group(g);
                self.emit(a, ops)?;
                ops.push(Op::EveryoneK { group, k: *k });
            }
            Formula::Someone(g, a) => {
                let group = self.group(g);
                self.emit(a, ops)?;
                ops.push(Op::Someone(group));
            }
            Formula::Distributed(g, a) => {
                let group = self.group(g);
                self.out.mentions_distributed = true;
                self.emit(a, ops)?;
                ops.push(Op::Distributed(group));
            }
            Formula::Common(g, a) => {
                let group = self.group(g);
                self.emit(a, ops)?;
                ops.push(Op::Common(group));
            }
            Formula::Gfp(x, body) | Formula::Lfp(x, body) => {
                check_positive(body, x)?;
                let gfp = matches!(f, Formula::Gfp(..));
                let slot = self.fresh_slot();
                self.scope.push((x.clone(), slot));
                let mut chunk = Vec::new();
                let result = self.emit(body, &mut chunk);
                self.scope.pop();
                result?;
                let body = self.push_chunk(chunk);
                ops.push(Op::Fix { gfp, slot, body });
            }
            Formula::Next(a) => {
                self.mark_temporal();
                self.emit(a, ops)?;
                ops.push(Op::Next);
            }
            Formula::Eventually(a) => {
                self.mark_temporal();
                self.emit(a, ops)?;
                ops.push(Op::Eventually);
            }
            Formula::Always(a) => {
                self.mark_temporal();
                self.emit(a, ops)?;
                ops.push(Op::Always);
            }
            Formula::Once(a) => {
                self.mark_temporal();
                self.emit(a, ops)?;
                ops.push(Op::Once);
            }
            Formula::EveryoneEps(g, eps, a) => {
                self.emit_attain(g, Attain::Eps, *eps, false, a, ops)?
            }
            Formula::CommonEps(g, eps, a) => {
                self.emit_attain(g, Attain::Eps, *eps, true, a, ops)?
            }
            Formula::EveryoneEv(g, a) => self.emit_attain(g, Attain::Ev, 0, false, a, ops)?,
            Formula::CommonEv(g, a) => self.emit_attain(g, Attain::Ev, 0, true, a, ops)?,
            Formula::EveryoneTs(g, t, a) => self.emit_attain(g, Attain::Ts, *t, false, a, ops)?,
            Formula::CommonTs(g, t, a) => self.emit_attain(g, Attain::Ts, *t, true, a, ops)?,
            Formula::KnowsAt(i, stamp, a) => {
                self.mark_temporal();
                self.emit(a, ops)?;
                ops.push(Op::KnowsAt {
                    agent: i.index() as u32,
                    stamp: *stamp,
                });
            }
        }
        Ok(())
    }

    /// Emits an attainable `E_G` variant, or its `C_G` fixed point.
    fn emit_attain(
        &mut self,
        g: &AgentGroup,
        var: Attain,
        arg: u64,
        common: bool,
        a: &Formula,
        ops: &mut Vec<Op>,
    ) -> Result<(), EvalError> {
        self.mark_temporal();
        let group = self.group(g);
        self.emit(a, ops)?;
        ops.push(if common {
            Op::CommonAt { var, group, arg }
        } else {
            Op::EveryoneAt { var, group, arg }
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// The value domain the machine computes in: exact world sets on full
/// frames ([`WorldSet`]), sound `(lo, hi)` brackets on truncated ones
/// ([`IntervalSet`]). Every instruction reduces to these operations, so
/// both domains share one machine — `Fix`, `Memo`, slots, budget ticks
/// and the `logic::eval` failpoint included.
pub(crate) trait Domain: Clone + PartialEq {
    /// An exactly known set (`true`, `false`, atoms).
    fn lift(s: WorldSet) -> Self;
    /// The bound atom table in this domain (borrowed where [`lift`] is
    /// the identity).
    ///
    /// [`lift`]: Domain::lift
    fn lift_atoms(atoms: &[WorldSet]) -> Cow<'_, [Self]>;
    /// Negation.
    fn complement(&self) -> Self;
    /// In-place conjunction.
    fn meet_with(&mut self, other: &Self);
    /// In-place disjunction.
    fn join_with(&mut self, other: &Self);
    /// A run-local temporal operator (`next`, `even`, `alw`, `once`).
    fn both(&self, f: impl Fn(&WorldSet) -> WorldSet) -> Self;
    /// A knowledge-like operator (`K`, `E^k`, `S`, `D`, `C`, the
    /// attainable variants, `K@`), which may fail on a budget.
    ///
    /// # Errors
    ///
    /// Whatever `f` returns.
    fn try_upper<E>(&self, f: impl FnOnce(&WorldSet) -> Result<WorldSet, E>) -> Result<Self, E>;
    /// [`try_upper`](Domain::try_upper) for an infallible operator.
    fn upper(&self, f: impl FnOnce(&WorldSet) -> WorldSet) -> Self {
        self.try_upper(|s| Ok::<_, Infallible>(f(s)))
            .unwrap_or_else(|e| match e {})
    }
}

/// The exact domain: every operator applies to the set itself.
impl Domain for WorldSet {
    fn lift(s: WorldSet) -> Self {
        s
    }
    fn lift_atoms(atoms: &[WorldSet]) -> Cow<'_, [Self]> {
        Cow::Borrowed(atoms)
    }
    fn complement(&self) -> Self {
        WorldSet::complement(self)
    }
    fn meet_with(&mut self, other: &Self) {
        self.intersect_with(other);
    }
    fn join_with(&mut self, other: &Self) {
        self.union_with(other);
    }
    fn both(&self, f: impl Fn(&WorldSet) -> WorldSet) -> Self {
        f(self)
    }
    fn try_upper<E>(&self, f: impl FnOnce(&WorldSet) -> Result<WorldSet, E>) -> Result<Self, E> {
        f(self)
    }
}

/// A stack value: materialised value, or a lazy reference into the atom
/// table / fixed-point slots / CSE registers. Deferring materialisation
/// means an atom operand feeds `K_i`, `∩`, `∪` by reference — no
/// per-node clone, the very allocation the tree-walker pays at every
/// `Atom` visit.
///
/// Slot references are sound because a slot's value only changes inside
/// its own `Fix` loop, *after* the body evaluation that may have pushed
/// (and by then consumed) references to it; distinct binders get
/// distinct slots.
#[derive(Debug)]
enum Val<D> {
    Atom(u32),
    Slot(u32),
    Reg(u32),
    Owned(D),
}

struct Machine<'a, D> {
    compiled: &'a CompiledFormula,
    model: &'a KripkeModel,
    ts: Option<&'a dyn TemporalStructure>,
    atoms: &'a [D],
    slots: Vec<D>,
    /// CSE registers, filled on first execution of their memo chunk.
    regs: Vec<Option<D>>,
    stack: Vec<Val<D>>,
    n: usize,
    budget: &'a Budget,
}

impl<D: Domain> Machine<'_, D> {
    fn ts(&self) -> &dyn TemporalStructure {
        self.ts.expect("temporal ops validated at bind time")
    }

    fn group(&self, ix: u32) -> &AgentGroup {
        &self.compiled.groups[ix as usize]
    }

    fn resolve<'v>(&'v self, v: &'v Val<D>) -> &'v D {
        match v {
            Val::Atom(i) => &self.atoms[*i as usize],
            Val::Slot(i) => &self.slots[*i as usize],
            Val::Reg(i) => self.regs[*i as usize]
                .as_ref()
                .expect("memo chunk ran before its register is read"),
            Val::Owned(s) => s,
        }
    }

    fn owned_value(&self, v: Val<D>) -> D {
        match v {
            Val::Owned(s) => s,
            other => self.resolve(&other).clone(),
        }
    }

    fn unit(&self, full: bool) -> D {
        D::lift(if full {
            WorldSet::full(self.n)
        } else {
            WorldSet::empty(self.n)
        })
    }

    /// Executes one chunk, leaving exactly one more value on the stack.
    fn exec_chunk(&mut self, chunk: usize) -> Result<(), LimitExceeded> {
        let (start, end) = self.compiled.chunk_ranges[chunk];
        for ix in start as usize..end as usize {
            self.exec_op(self.compiled.ops[ix])?;
        }
        Ok(())
    }

    fn exec_op(&mut self, op: Op) -> Result<(), LimitExceeded> {
        // One visited state per executed instruction; with an unlimited
        // budget this is a no-op, otherwise an amortized counter bump.
        self.budget.tick(Phase::Eval)?;
        match op {
            Op::True => self.stack.push(Val::Owned(self.unit(true))),
            Op::False => self.stack.push(Val::Owned(self.unit(false))),
            Op::Atom(i) => self.stack.push(Val::Atom(i)),
            Op::Slot(i) => self.stack.push(Val::Slot(i)),
            Op::Not => self.apply(|_, a| a.complement()),
            Op::And(k) => self.fold_n(k, true),
            Op::Or(k) => self.fold_n(k, false),
            Op::Implies => {
                let b = self.pop();
                let a = self.pop();
                let mut out = self.resolve(&a).complement();
                out.join_with(self.resolve(&b));
                self.stack.push(Val::Owned(out));
            }
            Op::Iff => {
                let b = self.pop();
                let a = self.pop();
                let (av, bv) = (self.resolve(&a), self.resolve(&b));
                let mut both = av.clone();
                both.meet_with(bv);
                let mut neither = av.complement();
                neither.meet_with(&bv.complement());
                both.join_with(&neither);
                self.stack.push(Val::Owned(both));
            }
            Op::Knows(i) => {
                self.apply(|m, a| a.upper(|s| m.model.knowledge(AgentId::new(i as usize), s)));
            }
            // `E^0 φ = φ` (the constructors forbid k = 0, but the enum
            // variant is public; match the tree-walker): leave φ in place.
            Op::EveryoneK { k: 0, .. } => {}
            Op::EveryoneK { group, k } => self.apply(|m, a| {
                a.upper(|s| {
                    let g = m.group(group);
                    let mut cur = m.model.everyone_set(g, s);
                    for _ in 1..k {
                        cur = m.model.everyone_set(g, &cur);
                    }
                    cur
                })
            }),
            Op::Someone(group) => {
                self.apply(|m, a| a.upper(|s| m.model.someone_set(m.group(group), s)));
            }
            Op::Distributed(group) => {
                self.apply(|m, a| a.upper(|s| m.model.distributed_knowledge(m.group(group), s)));
            }
            Op::Common(group) => {
                self.apply(|m, a| a.upper(|s| m.model.common_knowledge(m.group(group), s)));
            }
            Op::Fix { gfp, slot, body } => {
                self.slots[slot as usize] = self.unit(gfp);
                loop {
                    // Deadline/cancellation re-check at every iteration:
                    // a single fixed-point round can be long on large
                    // frames, so don't rely on the amortized tick alone.
                    self.budget.check_now(Phase::Eval)?;
                    self.exec_chunk(body as usize)?;
                    let top = self.pop();
                    let next = self.owned_value(top);
                    if next == self.slots[slot as usize] {
                        self.stack.push(Val::Owned(next));
                        break;
                    }
                    self.slots[slot as usize] = next;
                }
            }
            Op::Memo { reg, body } => {
                if self.regs[reg as usize].is_none() {
                    self.exec_chunk(body as usize)?;
                    let top = self.pop();
                    self.regs[reg as usize] = Some(self.owned_value(top));
                }
                self.stack.push(Val::Reg(reg));
            }
            Op::Next => self.apply(|m, a| a.both(|s| temporal::next_set(m.ts(), s))),
            Op::Eventually => self.apply(|m, a| a.both(|s| temporal::eventually_set(m.ts(), s))),
            Op::Always => self.apply(|m, a| a.both(|s| temporal::always_set(m.ts(), s))),
            Op::Once => self.apply(|m, a| a.both(|s| temporal::once_set(m.ts(), s))),
            Op::EveryoneAt { var, group, arg } => {
                self.apply(|m, a| a.upper(|s| m.attain(var, arg, group, s)));
            }
            Op::CommonAt { var, group, arg } => {
                let a = self.pop();
                let out = self.resolve(&a).try_upper(|s| {
                    WorldSet::try_gfp(self.n, |x| {
                        // Budget re-check at every round, as for `Fix`.
                        self.budget.check_now(Phase::Eval)?;
                        Ok(self.attain(var, arg, group, &s.intersection(x)))
                    })
                })?;
                self.stack.push(Val::Owned(out));
            }
            Op::KnowsAt { agent, stamp } => self.apply(|m, a| {
                a.upper(|s| {
                    let i = AgentId::new(agent as usize);
                    let k = m.model.knowledge(i, s);
                    temporal::knows_at_set(m.ts(), i, stamp, &k)
                })
            }),
        }
        Ok(())
    }

    /// Pops one operand and pushes `f` of it.
    fn apply(&mut self, f: impl FnOnce(&Self, &D) -> D) {
        let a = self.pop();
        let out = f(self, self.resolve(&a));
        self.stack.push(Val::Owned(out));
    }

    /// `E^ε_G`, `E^◇_G` or `E^T_G` of `s`.
    fn attain(&self, var: Attain, arg: u64, group: u32, s: &WorldSet) -> WorldSet {
        temporal::everyone_attain(self.model, self.ts(), var, arg, self.group(group), s)
    }

    fn pop(&mut self) -> Val<D> {
        self.stack.pop().expect("stack discipline")
    }

    /// Pops `k` operands and pushes their conjunction (`and`) or
    /// disjunction: the first *owned* operand (if any) becomes the
    /// accumulator, so a run of atom references costs exactly one clone.
    fn fold_n(&mut self, k: u32, and: bool) {
        if k == 0 {
            let unit = self.unit(and);
            self.stack.push(Val::Owned(unit));
            return;
        }
        let at = self.stack.len() - k as usize;
        let mut operands: Vec<Val<D>> = self.stack.drain(at..).collect();
        let acc_ix = operands
            .iter()
            .position(|v| matches!(v, Val::Owned(_)))
            .unwrap_or(0);
        let mut acc = self.owned_value(operands.swap_remove(acc_ix));
        for v in &operands {
            if and {
                acc.meet_with(self.resolve(v));
            } else {
                acc.join_with(self.resolve(v));
            }
        }
        self.stack.push(Val::Owned(acc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, evaluate_tree};
    use crate::parser::parse;
    use hm_kripke::{random_model, ModelBuilder, RandomModelSpec, WorldId};

    fn model() -> hm_kripke::KripkeModel {
        let mut b = ModelBuilder::new(2);
        for i in 0..4 {
            b.add_world(format!("w{i}"));
        }
        let p = b.atom("p");
        let q = b.atom("q");
        b.set_atom(p, WorldId::new(0), true);
        b.set_atom(p, WorldId::new(1), true);
        b.set_atom(q, WorldId::new(2), true);
        b.set_partition_by_key(AgentId::new(0), |w| w.index() / 2);
        b.set_partition_by_key(AgentId::new(1), |w| w.index() % 2);
        b.build()
    }

    #[test]
    fn compiled_matches_tree_walk_on_static_formulas() {
        let m = model();
        for src in [
            "p",
            "!p & q",
            "p -> q",
            "p <-> q",
            "K0 p | K1 q",
            "E{0,1} p",
            "E^3{0,1} (p | q)",
            "S{0,1} p & D{0,1} q",
            "C{0,1} (p | !p)",
            "nu X. E{0,1} (p & $X)",
            "mu X. p | S{0,1} $X",
            "true & !false",
        ] {
            let f = parse(src).unwrap();
            assert_eq!(
                evaluate(&m, &f).unwrap(),
                evaluate_tree(&m, &f).unwrap(),
                "{src}"
            );
        }
    }

    #[test]
    fn compiled_matches_tree_walk_on_random_models() {
        let f = parse("nu X. (q0 -> E{0,1} (q1 | $X)) & C{0,1} (q0 | !q0)").unwrap();
        for seed in 0..10 {
            let m = random_model(seed, RandomModelSpec::default());
            assert_eq!(
                evaluate(&m, &f).unwrap(),
                evaluate_tree(&m, &f).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn bind_reuse_across_evaluations() {
        let m = model();
        let f = parse("K0 (p & !q) | K1 q").unwrap();
        let compiled = compile(&f).unwrap();
        let bound = compiled.bind(&m).unwrap();
        let unlimited = Budget::unlimited();
        let a = compiled
            .eval_bound_budgeted(&m, &bound, &unlimited)
            .unwrap();
        let b = compiled
            .eval_bound_budgeted(&m, &bound, &unlimited)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, evaluate_tree(&m, &f).unwrap());
    }

    #[test]
    fn compile_time_errors() {
        assert_eq!(
            compile(&Formula::var("X")).unwrap_err(),
            EvalError::UnboundVar("X".into())
        );
        assert_eq!(
            compile(&Formula::gfp("X", Formula::not(Formula::var("X")))).unwrap_err(),
            EvalError::NonMonotone("X".into())
        );
    }

    #[test]
    fn bind_time_errors_in_tree_walk_order() {
        let m = model();
        assert_eq!(
            evaluate(&m, &Formula::atom("zap")).unwrap_err(),
            EvalError::UnknownAtom("zap".into())
        );
        // The tree-walker checks the agent range before recursing into the
        // subformula, so the agent error wins over the unknown atom.
        let f = Formula::knows(AgentId::new(9), Formula::atom("zap"));
        assert_eq!(evaluate(&m, &f).unwrap_err(), EvalError::AgentOutOfRange(9));
        assert_eq!(
            evaluate(&m, &Formula::next(Formula::atom("zap"))).unwrap_err(),
            EvalError::NoTemporalStructure("next".into())
        );
    }

    #[test]
    fn interning_dedups_atoms_and_groups() {
        let f = parse("E{0,1} p & C{0,1} p & E{0,1} q & p").unwrap();
        let compiled = compile(&f).unwrap();
        assert_eq!(compiled.atom_names().collect::<Vec<_>>(), vec!["p", "q"]);
        assert_eq!(compiled.groups.len(), 1);
    }

    #[test]
    fn slots_resolve_shadowing() {
        let m = model();
        // Inner binder shadows X; both fixpoints get distinct slots.
        let f = parse("nu X. p & (nu X. p & $X) & $X").unwrap();
        let compiled = compile(&f).unwrap();
        assert_eq!(compiled.num_slots, 2);
        assert_eq!(evaluate(&m, &f).unwrap(), evaluate_tree(&m, &f).unwrap());
    }

    #[test]
    fn everyone_k_zero_is_identity() {
        // The constructors forbid k = 0, but the enum variant is public;
        // both evaluators must treat E^0 as the identity.
        let m = model();
        let f = Formula::EveryoneK(AgentGroup::all(2), 0, Formula::atom("p")).arc();
        assert_eq!(evaluate(&m, &f).unwrap(), evaluate_tree(&m, &f).unwrap());
        assert_eq!(
            evaluate(&m, &f).unwrap(),
            evaluate_tree(&m, &Formula::atom("p")).unwrap()
        );
    }

    #[test]
    fn quotient_safety_flags() {
        let plain = compile(&parse("C{0,1} p").unwrap()).unwrap();
        assert!(plain.quotient_safe());
        let dist = compile(&parse("D{0,1} p").unwrap()).unwrap();
        assert!(dist.mentions_distributed && !dist.quotient_safe());
        let temp = compile(&parse("even p").unwrap()).unwrap();
        assert!(temp.mentions_temporal && !temp.quotient_safe());
    }
}
