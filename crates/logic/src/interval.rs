//! Three-valued evaluation for partial frames.
//!
//! When enumeration is truncated by a resource budget (see `hm-limits`),
//! the frame the engine builds contains a *subset* of the real system's
//! points. A classical verdict computed on such a frame can be wrong in
//! either direction, so the compiled machine can instead compute an
//! **interval** [`IntervalSet`] `(lo, hi)` per formula with the invariant
//!
//! ```text
//! lo  ⊆  truth(φ, full system) ∩ survivors  ⊆  hi
//! ```
//!
//! where `survivors` are the points that made it into the partial frame.
//! A world in `lo` definitely satisfies φ in the full system; a world
//! outside `hi` definitely falsifies it; anything between is *unknown*.
//!
//! This module is the interval *domain* of the one compiled machine
//! ([`CompiledFormula::eval_bound_interval`](crate::CompiledFormula::eval_bound_interval)):
//! the machine's instructions, fixed-point slots, CSE registers and
//! budget checks are shared with exact evaluation, and only the operator
//! kernels below differ. They are sound by two structural facts about
//! budget truncation:
//!
//! - **Whole runs survive or die.** Both the netsim depth-first
//!   enumeration and the agreement-scenario loop admit or truncate entire
//!   runs, never prefixes, so the run-local temporal operators (`next`,
//!   `even`, `alw`, `once`) are *exact* on both bounds.
//! - **Partial classes are restricted full classes.** An agent's
//!   indistinguishability class in the partial frame is the full class
//!   intersected with the survivors (views depend only on the point), so
//!   any knowledge-like operator applied on the partial frame
//!   *over-approximates* the restricted full-system operator: the upper
//!   bound is the operator applied to the argument's upper bound, and the
//!   sound lower bound is empty — positive knowledge can never be
//!   asserted from a truncated frame, because the missing points might
//!   have refuted it.
//!
//! Boolean connectives are pointwise interval arithmetic; `µ`/`ν`
//! binders iterate the `(lo, hi)` pair (positivity makes the lower bound
//! depend only on lower bounds and dually, so the pair iteration
//! converges monotonically and its limit brackets the full-system fixed
//! point by Knaster–Tarski).
//!
//! On a frame that is *not* truncated the interval is still sound, just
//! needlessly wide around knowledge operators — callers with an exact
//! frame should use [`evaluate`](crate::evaluate).

use crate::compile::{compile, Domain};
use crate::eval::EvalError;
use crate::formula::Formula;
use crate::frame::Frame;
use hm_kripke::{WorldId, WorldSet};
use hm_limits::Budget;
use std::borrow::Cow;

/// A sound bracket around the (unknowable) exact truth set of a formula
/// on a partial frame: `lo ⊆ truth ⊆ hi` over the surviving worlds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSet {
    lo: WorldSet,
    hi: WorldSet,
}

impl IntervalSet {
    /// An exact interval: the formula's truth set is known to be `s`.
    #[must_use]
    pub fn exact(s: WorldSet) -> Self {
        IntervalSet {
            lo: s.clone(),
            hi: s,
        }
    }

    /// Builds an interval from explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `lo ⊄ hi` — such a pair brackets nothing.
    #[must_use]
    pub fn new(lo: WorldSet, hi: WorldSet) -> Self {
        debug_assert!(lo.is_subset(&hi), "interval lower bound exceeds upper");
        IntervalSet { lo, hi }
    }

    /// Worlds where the formula *definitely* holds in the full system.
    #[must_use]
    pub fn lo(&self) -> &WorldSet {
        &self.lo
    }

    /// Worlds where the formula *possibly* holds; outside `hi` it
    /// definitely fails in the full system.
    #[must_use]
    pub fn hi(&self) -> &WorldSet {
        &self.hi
    }

    /// `true` when both bounds coincide — the verdict is classical.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Three-valued verdict at one world: `Some(true)` definitely holds,
    /// `Some(false)` definitely fails, `None` unknown under truncation.
    #[must_use]
    pub fn status_at(&self, w: WorldId) -> Option<bool> {
        if self.lo.contains(w) {
            Some(true)
        } else if !self.hi.contains(w) {
            Some(false)
        } else {
            None
        }
    }
}

/// Evaluates `f` on a (possibly truncated) frame, returning a sound
/// truth interval (see the module docs for the exact guarantee). Like
/// [`evaluate`](crate::evaluate), this compiles, binds and runs the
/// formula, here in the interval domain.
///
/// # Errors
///
/// The same well-formedness errors as [`evaluate`](crate::evaluate), in
/// the same order, plus [`EvalError::Limit`] when `budget` is exhausted,
/// the deadline passes, or the computation is cancelled. The failpoint
/// site `logic::eval` can inject the same errors deterministically.
pub fn evaluate_interval(
    frame: &dyn Frame,
    f: &Formula,
    budget: &Budget,
) -> Result<IntervalSet, EvalError> {
    let compiled = compile(f)?;
    compiled.eval_bound_interval(frame, &compiled.bind(frame)?, budget)
}

/// The interval kernels of the compiled machine.
impl Domain for IntervalSet {
    fn lift(s: WorldSet) -> Self {
        IntervalSet::exact(s)
    }
    fn lift_atoms(atoms: &[WorldSet]) -> Cow<'_, [Self]> {
        Cow::Owned(atoms.iter().cloned().map(IntervalSet::exact).collect())
    }
    /// `¬(lo, hi) = (¬hi, ¬lo)`.
    fn complement(&self) -> Self {
        IntervalSet {
            lo: self.hi.complement(),
            hi: self.lo.complement(),
        }
    }
    fn meet_with(&mut self, other: &Self) {
        self.lo.intersect_with(&other.lo);
        self.hi.intersect_with(&other.hi);
    }
    fn join_with(&mut self, other: &Self) {
        self.lo.union_with(&other.lo);
        self.hi.union_with(&other.hi);
    }
    /// Run-local operators are exact on both bounds.
    fn both(&self, f: impl Fn(&WorldSet) -> WorldSet) -> Self {
        IntervalSet {
            lo: f(&self.lo),
            hi: f(&self.hi),
        }
    }
    /// `(∅, f(hi))`: the missing points of a truncated frame could always
    /// refute a positive knowledge claim.
    fn try_upper<E>(&self, f: impl FnOnce(&WorldSet) -> Result<WorldSet, E>) -> Result<Self, E> {
        Ok(IntervalSet {
            lo: WorldSet::empty(self.hi.universe_len()),
            hi: f(&self.hi)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse;
    use hm_kripke::{random_model, RandomModelSpec};
    use hm_limits::Limits;

    const FORMULAS: &[&str] = &[
        "q0",
        "!q0 & q1",
        "q0 -> q1",
        "q0 <-> q1",
        "K0 q0",
        "!K0 q0",
        "E{0,1} q0 | K1 q1",
        "S{0,1} q0 & D{0,1} q1",
        "C{0,1} (q0 | !q0)",
        "nu X. E{0,1} (q0 & $X)",
        "mu X. q0 | S{0,1} $X",
    ];

    #[test]
    fn propositional_intervals_are_exact() {
        for seed in 0..5 {
            let m = random_model(seed, RandomModelSpec::default());
            for src in ["q0", "!q0 & q1", "q0 -> q1", "q0 <-> q1", "true | false"] {
                let f = parse(src).unwrap();
                let v = evaluate_interval(&m, &f, &Budget::unlimited()).unwrap();
                assert!(v.is_exact(), "{src}");
                assert_eq!(*v.lo(), evaluate(&m, &f).unwrap(), "{src}");
            }
        }
    }

    #[test]
    fn intervals_bracket_the_classical_verdict() {
        // On an exact frame the interval must sandwich the classical
        // truth set — the degenerate case of the soundness guarantee.
        for seed in 0..10 {
            let m = random_model(seed, RandomModelSpec::default());
            for src in FORMULAS {
                let f = parse(src).unwrap();
                let exact = evaluate(&m, &f).unwrap();
                let v = evaluate_interval(&m, &f, &Budget::unlimited()).unwrap();
                assert!(v.lo().is_subset(&exact), "seed {seed}: {src}");
                assert!(exact.is_subset(v.hi()), "seed {seed}: {src}");
            }
        }
    }

    #[test]
    fn negated_knowledge_can_be_definite() {
        // ¬K φ: the upper bound of K is exact on an exact frame, so its
        // complement is a genuine lower bound — refutations of knowledge
        // survive truncation.
        let m = random_model(3, RandomModelSpec::default());
        let k = parse("K0 q0").unwrap();
        let nk = parse("!K0 q0").unwrap();
        let v = evaluate_interval(&m, &nk, &Budget::unlimited()).unwrap();
        assert_eq!(*v.lo(), evaluate(&m, &k).unwrap().complement());
        assert!(v.hi().is_full());
    }

    #[test]
    fn verdict_classification() {
        let m = random_model(0, RandomModelSpec::default());
        let v = evaluate_interval(&m, &parse("K0 q0").unwrap(), &Budget::unlimited()).unwrap();
        for w in 0..m.num_worlds() {
            let w = WorldId::new(w);
            match v.status_at(w) {
                Some(true) => assert!(v.lo().contains(w)),
                Some(false) => assert!(!v.hi().contains(w)),
                None => assert!(!v.lo().contains(w) && v.hi().contains(w)),
            }
        }
    }

    #[test]
    fn budget_exhaustion_surfaces_as_limit() {
        let m = random_model(0, RandomModelSpec::default());
        let budget = Limits::none().max_states_visited(1).budget();
        // Force past the amortized window so the ceiling actually fires.
        let f = parse("nu X. E{0,1} (q0 & $X)").unwrap();
        let mut last = Ok(IntervalSet::exact(WorldSet::empty(m.num_worlds())));
        for _ in 0..2048 {
            last = evaluate_interval(&m, &f, &budget);
            if last.is_err() {
                break;
            }
        }
        assert!(matches!(last, Err(EvalError::Limit(_))));
    }

    #[test]
    fn well_formedness_errors_match_classical() {
        let m = random_model(0, RandomModelSpec::default());
        let b = Budget::unlimited();
        assert!(matches!(
            evaluate_interval(&m, &Formula::atom("zap"), &b),
            Err(EvalError::UnknownAtom(_))
        ));
        assert!(matches!(
            evaluate_interval(&m, &Formula::var("X"), &b),
            Err(EvalError::UnboundVar(_))
        ));
        assert!(matches!(
            evaluate_interval(&m, &parse("next q0").unwrap(), &b),
            Err(EvalError::NoTemporalStructure(_))
        ));
    }
}
