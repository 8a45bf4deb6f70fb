//! The formula language.
//!
//! The language of Halpern–Moses: ground atoms closed under Boolean
//! connectives, the knowledge operators of Section 3 (`K_i`, `D_G`, `S_G`,
//! `E_G`, `E^k_G`, `C_G`), the temporal variants of Sections 11–12
//! (`E^ε/C^ε`, `E^◇/C^◇`, `E^T/C^T`, plus `○`, `◇`, `□`), and the explicit
//! greatest/least fixed-point binders of Appendix A (`νX.φ`, `µX.φ`).

use hm_kripke::{AgentGroup, AgentId};
use std::fmt;
use std::sync::Arc;

/// A formula of the epistemic µ-calculus.
///
/// Formulas are immutable trees with shared (`Arc`) children; build them
/// with the constructor methods, which keep the tree in a lightly
/// normalised form (e.g. flattened conjunctions).
///
/// # Examples
///
/// ```
/// use hm_logic::Formula;
/// use hm_kripke::AgentGroup;
/// let g = AgentGroup::all(2);
/// let f = Formula::common(g, Formula::atom("attack"));
/// assert_eq!(f.to_string(), "C{p0,p1} attack");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// A ground atomic proposition, referenced by name.
    Atom(String),
    /// A fixed-point variable (bound by [`Formula::Gfp`] or [`Formula::Lfp`]).
    Var(String),
    /// Negation `¬φ`.
    Not(Arc<Formula>),
    /// Conjunction `φ₁ ∧ … ∧ φₙ` (empty conjunction is `true`).
    And(Vec<Arc<Formula>>),
    /// Disjunction `φ₁ ∨ … ∨ φₙ` (empty disjunction is `false`).
    Or(Vec<Arc<Formula>>),
    /// Material implication `φ ⊃ ψ`.
    Implies(Arc<Formula>, Arc<Formula>),
    /// Biconditional `φ ≡ ψ`.
    Iff(Arc<Formula>, Arc<Formula>),
    /// `K_i φ`: agent `i` knows `φ`.
    Knows(AgentId, Arc<Formula>),
    /// `E_G^k φ`: everyone in `G` knows, iterated `k ≥ 1` times.
    EveryoneK(AgentGroup, u32, Arc<Formula>),
    /// `S_G φ`: someone in `G` knows `φ`.
    Someone(AgentGroup, Arc<Formula>),
    /// `D_G φ`: `φ` is distributed knowledge in `G`.
    Distributed(AgentGroup, Arc<Formula>),
    /// `C_G φ`: `φ` is common knowledge in `G`.
    Common(AgentGroup, Arc<Formula>),
    /// `νX.φ`: greatest fixed point of `X ↦ φ` (Appendix A).
    Gfp(String, Arc<Formula>),
    /// `µX.φ`: least fixed point of `X ↦ φ`.
    Lfp(String, Arc<Formula>),
    /// `○φ`: `φ` holds at the next point of the same run (temporal frames
    /// only; false at the final point of a truncated run).
    Next(Arc<Formula>),
    /// `◇φ`: `φ` holds at some point of the same run at the current time or
    /// later (the paper's footnote-7 `♦`).
    Eventually(Arc<Formula>),
    /// `□φ`: `φ` holds at every point of the same run from now on.
    Always(Arc<Formula>),
    /// `◇?φ` — `φ` held at some point of the same run at the current time
    /// or *earlier* (past operator; used to express stability and
    /// "once knew").
    Once(Arc<Formula>),
    /// `E^ε_G φ`: within some ε-interval containing now, each member of `G`
    /// knows `φ` at some point of the interval (Section 11).
    EveryoneEps(AgentGroup, u64, Arc<Formula>),
    /// `C^ε_G φ`: ε-common knowledge, the greatest fixed point of
    /// `X ≡ E^ε_G(φ ∧ X)`.
    CommonEps(AgentGroup, u64, Arc<Formula>),
    /// `E^◇_G φ`: every member of `G` knows `φ` at *some* time in the run
    /// (Section 11; note the witness time ranges over the whole run).
    EveryoneEv(AgentGroup, Arc<Formula>),
    /// `C^◇_G φ`: eventual common knowledge, the greatest fixed point of
    /// `X ≡ E^◇_G(φ ∧ X)`.
    CommonEv(AgentGroup, Arc<Formula>),
    /// `K_i^T φ`: at (local clock) time `T`, agent `i` knows `φ`
    /// (Section 12). Vacuously true in runs where `i`'s clock never
    /// reads `T`.
    KnowsAt(AgentId, u64, Arc<Formula>),
    /// `E^T_G φ = ⋀_{i∈G} K_i^T φ`: timestamped everyone-knows.
    EveryoneTs(AgentGroup, u64, Arc<Formula>),
    /// `C^T_G φ`: timestamped common knowledge, the greatest fixed point of
    /// `X ≡ E^T_G(φ ∧ X)`.
    CommonTs(AgentGroup, u64, Arc<Formula>),
}

/// Shared handle to a formula.
pub type F = Arc<Formula>;

impl Formula {
    /// Wraps `self` in an `Arc`.
    pub fn arc(self) -> F {
        Arc::new(self)
    }

    /// The atom `name`.
    pub fn atom(name: impl Into<String>) -> F {
        Formula::Atom(name.into()).arc()
    }

    /// The fixed-point variable `name`.
    pub fn var(name: impl Into<String>) -> F {
        Formula::Var(name.into()).arc()
    }

    /// The constant `true`.
    pub fn tt() -> F {
        Formula::True.arc()
    }

    /// The constant `false`.
    pub fn ff() -> F {
        Formula::False.arc()
    }

    /// `¬φ`, collapsing double negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: F) -> F {
        match &*f {
            Formula::Not(inner) => inner.clone(),
            Formula::True => Formula::ff(),
            Formula::False => Formula::tt(),
            _ => Formula::Not(f).arc(),
        }
    }

    /// N-ary conjunction, flattening nested conjunctions.
    pub fn and(fs: impl IntoIterator<Item = F>) -> F {
        let mut out: Vec<F> = Vec::new();
        for f in fs {
            match &*f {
                Formula::And(inner) => out.extend(inner.iter().cloned()),
                Formula::True => {}
                _ => out.push(f),
            }
        }
        match out.len() {
            0 => Formula::tt(),
            1 => out.pop().expect("len checked"),
            _ => Formula::And(out).arc(),
        }
    }

    /// N-ary disjunction, flattening nested disjunctions.
    pub fn or(fs: impl IntoIterator<Item = F>) -> F {
        let mut out: Vec<F> = Vec::new();
        for f in fs {
            match &*f {
                Formula::Or(inner) => out.extend(inner.iter().cloned()),
                Formula::False => {}
                _ => out.push(f),
            }
        }
        match out.len() {
            0 => Formula::ff(),
            1 => out.pop().expect("len checked"),
            _ => Formula::Or(out).arc(),
        }
    }

    /// `φ ⊃ ψ`.
    pub fn implies(f: F, g: F) -> F {
        Formula::Implies(f, g).arc()
    }

    /// `φ ≡ ψ`.
    pub fn iff(f: F, g: F) -> F {
        Formula::Iff(f, g).arc()
    }

    /// `K_i φ`.
    pub fn knows(i: AgentId, f: F) -> F {
        Formula::Knows(i, f).arc()
    }

    /// `E_G φ` (= `E_G^1 φ`).
    pub fn everyone(g: AgentGroup, f: F) -> F {
        Formula::EveryoneK(g, 1, f).arc()
    }

    /// `E_G^k φ`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (the paper defines `E^k` for `k ≥ 1`; use the
    /// formula itself for `k = 0`).
    pub fn everyone_k(g: AgentGroup, k: u32, f: F) -> F {
        assert!(k >= 1, "E^k is defined for k >= 1");
        Formula::EveryoneK(g, k, f).arc()
    }

    /// `S_G φ`.
    pub fn someone(g: AgentGroup, f: F) -> F {
        Formula::Someone(g, f).arc()
    }

    /// `D_G φ`.
    pub fn distributed(g: AgentGroup, f: F) -> F {
        Formula::Distributed(g, f).arc()
    }

    /// `C_G φ`.
    pub fn common(g: AgentGroup, f: F) -> F {
        Formula::Common(g, f).arc()
    }

    /// `νX.φ`.
    pub fn gfp(var: impl Into<String>, body: F) -> F {
        Formula::Gfp(var.into(), body).arc()
    }

    /// `µX.φ`.
    pub fn lfp(var: impl Into<String>, body: F) -> F {
        Formula::Lfp(var.into(), body).arc()
    }

    /// `○φ`.
    pub fn next(f: F) -> F {
        Formula::Next(f).arc()
    }

    /// `◇φ` (now or later in the same run).
    pub fn eventually(f: F) -> F {
        Formula::Eventually(f).arc()
    }

    /// `□φ` (now and always later in the same run).
    pub fn always(f: F) -> F {
        Formula::Always(f).arc()
    }

    /// Past operator: `φ` held now or earlier in the same run.
    pub fn once(f: F) -> F {
        Formula::Once(f).arc()
    }

    /// `E^ε_G φ`.
    pub fn everyone_eps(g: AgentGroup, eps: u64, f: F) -> F {
        Formula::EveryoneEps(g, eps, f).arc()
    }

    /// `C^ε_G φ`.
    pub fn common_eps(g: AgentGroup, eps: u64, f: F) -> F {
        Formula::CommonEps(g, eps, f).arc()
    }

    /// `E^◇_G φ`.
    pub fn everyone_ev(g: AgentGroup, f: F) -> F {
        Formula::EveryoneEv(g, f).arc()
    }

    /// `C^◇_G φ`.
    pub fn common_ev(g: AgentGroup, f: F) -> F {
        Formula::CommonEv(g, f).arc()
    }

    /// `K_i^T φ`.
    pub fn knows_at(i: AgentId, t: u64, f: F) -> F {
        Formula::KnowsAt(i, t, f).arc()
    }

    /// `E^T_G φ`.
    pub fn everyone_ts(g: AgentGroup, t: u64, f: F) -> F {
        Formula::EveryoneTs(g, t, f).arc()
    }

    /// `C^T_G φ`.
    pub fn common_ts(g: AgentGroup, t: u64, f: F) -> F {
        Formula::CommonTs(g, t, f).arc()
    }

    /// The explicit greatest-fixed-point form of common knowledge,
    /// `νX.E_G(φ ∧ X)` — definitionally equal to [`Formula::common`]
    /// (Section 10); used to cross-validate the evaluator.
    pub fn common_as_gfp(g: AgentGroup, f: F) -> F {
        let x = fresh_var(&f);
        Formula::gfp(
            x.clone(),
            Formula::everyone(g, Formula::and([f, Formula::var(x)])),
        )
    }

    /// `true` if this node is a temporal operator, i.e. requires a frame
    /// with run/time structure to evaluate.
    pub fn is_temporal_op(&self) -> bool {
        matches!(
            self,
            Formula::Next(_)
                | Formula::Eventually(_)
                | Formula::Always(_)
                | Formula::Once(_)
                | Formula::EveryoneEps(..)
                | Formula::CommonEps(..)
                | Formula::EveryoneEv(..)
                | Formula::CommonEv(..)
                | Formula::KnowsAt(..)
                | Formula::EveryoneTs(..)
                | Formula::CommonTs(..)
        )
    }

    /// `true` if any subformula is a temporal operator.
    #[cfg(test)]
    fn mentions_temporal(&self) -> bool {
        if self.is_temporal_op() {
            return true;
        }
        let mut found = false;
        self.for_each_child(|c| found |= c.mentions_temporal());
        found
    }

    /// Applies `f` to each immediate subformula.
    pub fn for_each_child(&self, mut f: impl FnMut(&Formula)) {
        match self {
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
            | Formula::CommonTs(_, _, a) => f(a),
            Formula::And(xs) | Formula::Or(xs) => {
                for x in xs {
                    f(x);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                f(a);
                f(b);
            }
        }
    }

    /// Names of atoms mentioned anywhere in the formula, sorted and
    /// de-duplicated.
    pub fn atoms(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(f: &Formula, out: &mut Vec<String>) {
            if let Formula::Atom(name) = f {
                out.push(name.clone());
            }
            f.for_each_child(|c| walk(c, out));
        }
        walk(self, &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Names of free (unbound) fixed-point variables.
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(f: &Formula, bound: &mut Vec<String>, out: &mut Vec<String>) {
            match f {
                Formula::Var(x) => {
                    if !bound.contains(x) && !out.contains(x) {
                        out.push(x.clone());
                    }
                }
                Formula::Gfp(x, body) | Formula::Lfp(x, body) => {
                    bound.push(x.clone());
                    walk(body, bound, out);
                    bound.pop();
                }
                _ => f.for_each_child(|c| walk(c, bound, out)),
            }
        }
        walk(self, &mut Vec::new(), &mut out);
        out.sort();
        out
    }

    /// Modal depth: the maximum nesting of knowledge/temporal operators.
    /// Fixed-point binders contribute the depth of one unfolding of their
    /// body; `E^k` counts as `k`.
    pub fn modal_depth(&self) -> u32 {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Var(_) => 0,
            Formula::Knows(_, a) | Formula::KnowsAt(_, _, a) => 1 + a.modal_depth(),
            Formula::EveryoneK(_, k, a) => k + a.modal_depth(),
            Formula::Someone(_, a)
            | Formula::Distributed(_, a)
            | Formula::Common(_, a)
            | Formula::EveryoneEps(_, _, a)
            | Formula::CommonEps(_, _, a)
            | Formula::EveryoneEv(_, a)
            | Formula::CommonEv(_, a)
            | Formula::EveryoneTs(_, _, a)
            | Formula::CommonTs(_, _, a) => 1 + a.modal_depth(),
            Formula::Not(a)
            | Formula::Gfp(_, a)
            | Formula::Lfp(_, a)
            | Formula::Next(a)
            | Formula::Eventually(a)
            | Formula::Always(a)
            | Formula::Once(a) => a.modal_depth(),
            Formula::And(xs) | Formula::Or(xs) => {
                xs.iter().map(|x| x.modal_depth()).max().unwrap_or(0)
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => a.modal_depth().max(b.modal_depth()),
        }
    }
}

/// Produces a variable name not occurring (free or bound) in `f`.
pub(crate) fn fresh_var(f: &Formula) -> String {
    fn collect(f: &Formula, out: &mut Vec<String>) {
        match f {
            Formula::Var(x) => out.push(x.clone()),
            Formula::Gfp(x, body) | Formula::Lfp(x, body) => {
                out.push(x.clone());
                collect(body, out);
            }
            _ => f.for_each_child(|c| collect(c, out)),
        }
    }
    let mut used = Vec::new();
    collect(f, &mut used);
    let mut name = "X".to_string();
    let mut i = 0;
    while used.contains(&name) {
        i += 1;
        name = format!("X{i}");
    }
    name
}

// ---------------------------------------------------------------------------
// Pretty printing (round-trips through the parser).
// ---------------------------------------------------------------------------

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl Formula {
    /// Precedence levels: 0 iff, 1 implies, 2 or, 3 and, 4 unary.
    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
        let my_prec = match self {
            Formula::Iff(..) => 0,
            Formula::Implies(..) => 1,
            Formula::Or(_) => 2,
            Formula::And(_) => 3,
            _ => 4,
        };
        let paren = my_prec < prec;
        if paren {
            write!(f, "(")?;
        }
        match self {
            Formula::True => write!(f, "true")?,
            Formula::False => write!(f, "false")?,
            Formula::Atom(a) => write!(f, "{a}")?,
            Formula::Var(x) => write!(f, "${x}")?,
            Formula::Not(a) => {
                write!(f, "!")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::And(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    x.fmt_prec(f, 4)?;
                }
            }
            Formula::Or(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    x.fmt_prec(f, 3)?;
                }
            }
            Formula::Implies(a, b) => {
                a.fmt_prec(f, 2)?;
                write!(f, " -> ")?;
                b.fmt_prec(f, 2)?;
            }
            Formula::Iff(a, b) => {
                a.fmt_prec(f, 1)?;
                write!(f, " <-> ")?;
                b.fmt_prec(f, 1)?;
            }
            Formula::Knows(i, a) => {
                write!(f, "K{} ", i.index())?;
                a.fmt_prec(f, 4)?;
            }
            Formula::EveryoneK(g, k, a) => {
                if *k == 1 {
                    write!(f, "E{g} ")?;
                } else {
                    write!(f, "E^{k}{g} ")?;
                }
                a.fmt_prec(f, 4)?;
            }
            Formula::Someone(g, a) => {
                write!(f, "S{g} ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::Distributed(g, a) => {
                write!(f, "D{g} ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::Common(g, a) => {
                write!(f, "C{g} ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::Gfp(x, a) => {
                write!(f, "nu {x}. ")?;
                a.fmt_prec(f, 0)?;
            }
            Formula::Lfp(x, a) => {
                write!(f, "mu {x}. ")?;
                a.fmt_prec(f, 0)?;
            }
            Formula::Next(a) => {
                write!(f, "next ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::Eventually(a) => {
                write!(f, "even ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::Always(a) => {
                write!(f, "alw ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::Once(a) => {
                write!(f, "once ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::EveryoneEps(g, e, a) => {
                write!(f, "Eeps[{e}]{g} ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::CommonEps(g, e, a) => {
                write!(f, "Ceps[{e}]{g} ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::EveryoneEv(g, a) => {
                write!(f, "Eev{g} ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::CommonEv(g, a) => {
                write!(f, "Cev{g} ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::KnowsAt(i, t, a) => {
                write!(f, "K{}@[{t}] ", i.index())?;
                a.fmt_prec(f, 4)?;
            }
            Formula::EveryoneTs(g, t, a) => {
                write!(f, "ET[{t}]{g} ")?;
                a.fmt_prec(f, 4)?;
            }
            Formula::CommonTs(g, t, a) => {
                write!(f, "CT[{t}]{g} ")?;
                a.fmt_prec(f, 4)?;
            }
        }
        if paren {
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g2() -> AgentGroup {
        AgentGroup::all(2)
    }

    #[test]
    fn constructors_normalise() {
        let p = Formula::atom("p");
        let q = Formula::atom("q");
        // Double negation collapses.
        assert_eq!(Formula::not(Formula::not(p.clone())), p);
        // Nested conjunction flattens; `true` units drop.
        let f = Formula::and([
            Formula::and([p.clone(), q]),
            Formula::tt(),
            Formula::atom("r"),
        ]);
        match &*f {
            Formula::And(xs) => assert_eq!(xs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
        // Singleton and empty cases.
        assert_eq!(Formula::and([p.clone()]), p);
        assert_eq!(Formula::and(std::iter::empty::<F>()), Formula::tt());
        assert_eq!(Formula::or(std::iter::empty::<F>()), Formula::ff());
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn e0_panics() {
        Formula::everyone_k(g2(), 0, Formula::atom("p"));
    }

    #[test]
    fn display_round_readable() {
        let f = Formula::implies(
            Formula::knows(AgentId::new(0), Formula::atom("p")),
            Formula::common(g2(), Formula::or([Formula::atom("p"), Formula::atom("q")])),
        );
        assert_eq!(f.to_string(), "K0 p -> C{p0,p1} (p | q)");
        let g = Formula::gfp(
            "X",
            Formula::everyone(g2(), Formula::and([Formula::atom("p"), Formula::var("X")])),
        );
        assert_eq!(g.to_string(), "nu X. E{p0,p1} (p & $X)");
    }

    #[test]
    fn atoms_and_free_vars() {
        let f = Formula::and([
            Formula::atom("b"),
            Formula::gfp("X", Formula::and([Formula::var("X"), Formula::var("Y")])),
            Formula::atom("a"),
            Formula::atom("b"),
        ]);
        assert_eq!(f.atoms(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(f.free_vars(), vec!["Y".to_string()]);
    }

    #[test]
    fn fresh_var_avoids_collisions() {
        let f = Formula::and([Formula::var("X"), Formula::var("X1")]);
        assert_eq!(fresh_var(&f), "X2");
        assert_eq!(fresh_var(&Formula::atom("p")), "X");
    }

    #[test]
    fn common_as_gfp_shape() {
        let f = Formula::common_as_gfp(g2(), Formula::atom("p"));
        assert_eq!(f.to_string(), "nu X. E{p0,p1} (p & $X)");
    }

    #[test]
    fn temporal_detection() {
        let plain = Formula::common(g2(), Formula::atom("p"));
        assert!(!plain.mentions_temporal());
        let temp = Formula::not(Formula::everyone_eps(g2(), 3, Formula::atom("p")));
        assert!(temp.mentions_temporal());
        assert!(!temp.is_temporal_op(), "negation itself is not temporal");
    }

    #[test]
    fn modal_depth_counts() {
        let p = Formula::atom("p");
        assert_eq!(p.modal_depth(), 0);
        let f = Formula::knows(
            AgentId::new(0),
            Formula::everyone_k(g2(), 3, Formula::atom("p")),
        );
        assert_eq!(f.modal_depth(), 4);
    }
}
