//! The model checker: formulas → world sets.
//!
//! Implements exactly the clauses (a)–(j) of Appendix A of Halpern–Moses:
//! each formula (possibly with a free fixed-point variable) denotes a
//! function from world sets to world sets; closed formulas denote constant
//! functions, i.e. the set of worlds where they hold. Greatest (and least)
//! fixed points are computed by monotone iteration, justified by the
//! Knaster–Tarski theorem on the finite lattice of world sets; the
//! positivity restriction of Appendix A is enforced syntactically before
//! iterating.

use crate::formula::Formula;
use crate::frame::Frame;
use crate::temporal;
use hm_kripke::{AgentGroup, KripkeModel, WorldSet};
use hm_limits::Budget;
use std::collections::HashMap;
use std::fmt;

/// Errors produced by evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The formula mentions an atom the frame does not interpret.
    UnknownAtom(String),
    /// A fixed-point variable occurs free (unbound by any `ν`/`µ`).
    UnboundVar(String),
    /// A fixed-point binder whose variable occurs negatively (or under a
    /// biconditional) in its body — the function need not be monotone, so
    /// the fixed point need not exist (Appendix A's syntactic restriction).
    NonMonotone(String),
    /// A temporal operator was evaluated on a frame without run/time
    /// structure.
    NoTemporalStructure(String),
    /// An agent index outside `0..frame.num_agents()`.
    AgentOutOfRange(usize),
    /// A resource ceiling, deadline, or cancellation interrupted the
    /// evaluation (see `hm-limits`). Carried inside the evaluation error
    /// so budgeted evaluation keeps the ordinary result type.
    Limit(hm_limits::LimitExceeded),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownAtom(a) => write!(f, "unknown atom `{a}`"),
            EvalError::UnboundVar(x) => write!(f, "unbound fixed-point variable `{x}`"),
            EvalError::NonMonotone(x) => {
                write!(f, "variable `{x}` occurs non-positively under its binder")
            }
            EvalError::NoTemporalStructure(op) => {
                write!(
                    f,
                    "temporal operator `{op}` on a frame without run/time structure"
                )
            }
            EvalError::AgentOutOfRange(i) => write!(f, "agent index {i} out of range"),
            EvalError::Limit(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<hm_limits::LimitExceeded> for EvalError {
    fn from(e: hm_limits::LimitExceeded) -> Self {
        EvalError::Limit(e)
    }
}

/// Evaluates a closed formula on a frame, returning the set of worlds where
/// it holds.
///
/// The formula is lowered by [`compile`](crate::compile) to a flat
/// instruction buffer (atoms and groups interned, fixed-point slots
/// preallocated) and executed once. Callers evaluating the same formula
/// repeatedly should compile once and reuse the
/// [`CompiledFormula`](crate::CompiledFormula) — or go through an
/// `hm-engine` `Session`, which caches compilations per formula.
///
/// # Errors
///
/// See [`EvalError`]. In particular, temporal operators require the frame
/// to expose a [`TemporalStructure`](crate::TemporalStructure).
///
/// # Examples
///
/// ```
/// use hm_logic::{evaluate, Formula};
/// use hm_kripke::{ModelBuilder, AgentId, AgentGroup};
/// let mut b = ModelBuilder::new(1);
/// let w0 = b.add_world("w0");
/// let w1 = b.add_world("w1");
/// let p = b.atom("p");
/// b.set_atom(p, w0, true);
/// b.set_partition_by_key(AgentId::new(0), |_| ());
/// let m = b.build();
/// let knows_p = Formula::knows(AgentId::new(0), Formula::atom("p"));
/// let holds = evaluate(&m, &knows_p)?;
/// assert!(holds.is_empty()); // agent can't distinguish, so never knows p
/// # Ok::<(), hm_logic::EvalError>(())
/// ```
pub fn evaluate(frame: &dyn Frame, f: &Formula) -> Result<WorldSet, EvalError> {
    let compiled = crate::compile::compile(f)?;
    let bound = compiled.bind(frame)?;
    compiled.run(frame, &bound, &Budget::unlimited())
}

/// The original tree-walking evaluator, kept as the executable reference
/// semantics: it resolves atoms by `&str` at every node and carries an
/// explicit fixed-point environment. Property tests assert it agrees with
/// the compiled path on random models and formulas; the benchmark suite
/// measures the compiled path against it.
///
/// # Errors
///
/// Same as [`evaluate`].
pub fn evaluate_tree(frame: &dyn Frame, f: &Formula) -> Result<WorldSet, EvalError> {
    let mut env = Env::new();
    eval(frame, f, &mut env)
}

type Env = HashMap<String, WorldSet>;

fn group_check(frame: &dyn Frame, g: &AgentGroup) -> Result<(), EvalError> {
    for i in g.iter() {
        if i.index() >= frame.num_agents() {
            return Err(EvalError::AgentOutOfRange(i.index()));
        }
    }
    Ok(())
}

fn eval(frame: &dyn Frame, f: &Formula, env: &mut Env) -> Result<WorldSet, EvalError> {
    let model = frame.model();
    let n = model.num_worlds();
    match f {
        Formula::True => Ok(WorldSet::full(n)),
        Formula::False => Ok(WorldSet::empty(n)),
        Formula::Atom(name) => frame
            .atom_set(name)
            .ok_or_else(|| EvalError::UnknownAtom(name.clone())),
        Formula::Var(x) => env
            .get(x)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVar(x.clone())),
        Formula::Not(a) => Ok(eval(frame, a, env)?.complement()),
        Formula::And(xs) => {
            let mut out = WorldSet::full(n);
            for x in xs {
                out.intersect_with(&eval(frame, x, env)?);
            }
            Ok(out)
        }
        Formula::Or(xs) => {
            let mut out = WorldSet::empty(n);
            for x in xs {
                out.union_with(&eval(frame, x, env)?);
            }
            Ok(out)
        }
        Formula::Implies(a, b) => {
            let av = eval(frame, a, env)?;
            let bv = eval(frame, b, env)?;
            Ok(av.complement().union(&bv))
        }
        Formula::Iff(a, b) => {
            let av = eval(frame, a, env)?;
            let bv = eval(frame, b, env)?;
            let both = av.intersection(&bv);
            let neither = av.complement().intersection(&bv.complement());
            Ok(both.union(&neither))
        }
        Formula::Knows(i, a) => {
            if i.index() >= frame.num_agents() {
                return Err(EvalError::AgentOutOfRange(i.index()));
            }
            let av = eval(frame, a, env)?;
            Ok(model.knowledge(*i, &av))
        }
        Formula::EveryoneK(g, k, a) => {
            group_check(frame, g)?;
            let mut cur = eval(frame, a, env)?;
            for _ in 0..*k {
                cur = model.everyone_set(g, &cur);
            }
            Ok(cur)
        }
        Formula::Someone(g, a) => {
            group_check(frame, g)?;
            let av = eval(frame, a, env)?;
            let mut out = WorldSet::empty(n);
            for i in g.iter() {
                out.union_with(&model.knowledge(i, &av));
            }
            Ok(out)
        }
        Formula::Distributed(g, a) => {
            group_check(frame, g)?;
            let av = eval(frame, a, env)?;
            Ok(model.distributed_knowledge(g, &av))
        }
        Formula::Common(g, a) => {
            group_check(frame, g)?;
            let av = eval(frame, a, env)?;
            Ok(model.common_knowledge(g, &av))
        }
        Formula::Gfp(x, body) => {
            check_positive(body, x)?;
            fixpoint(frame, x, body, env, WorldSet::full(n))
        }
        Formula::Lfp(x, body) => {
            check_positive(body, x)?;
            fixpoint(frame, x, body, env, WorldSet::empty(n))
        }
        Formula::Next(a) => {
            let ts = need_temporal(frame, "next")?;
            let av = eval(frame, a, env)?;
            Ok(temporal::next_set(ts, &av))
        }
        Formula::Eventually(a) => {
            let ts = need_temporal(frame, "even")?;
            let av = eval(frame, a, env)?;
            Ok(temporal::eventually_set(ts, &av))
        }
        Formula::Always(a) => {
            let ts = need_temporal(frame, "alw")?;
            let av = eval(frame, a, env)?;
            Ok(temporal::always_set(ts, &av))
        }
        Formula::Once(a) => {
            let ts = need_temporal(frame, "once")?;
            let av = eval(frame, a, env)?;
            Ok(temporal::once_set(ts, &av))
        }
        Formula::EveryoneEps(g, eps, a) => {
            group_check(frame, g)?;
            let ts = need_temporal(frame, "Eeps")?;
            let av = eval(frame, a, env)?;
            let k_sets = member_knowledge(model, g, &av);
            Ok(temporal::everyone_eps_set(ts, g, *eps, &k_sets))
        }
        Formula::EveryoneEv(g, a) => {
            group_check(frame, g)?;
            let ts = need_temporal(frame, "Eev")?;
            let av = eval(frame, a, env)?;
            let k_sets = member_knowledge(model, g, &av);
            Ok(temporal::everyone_ev_set(ts, g, &k_sets))
        }
        Formula::KnowsAt(i, stamp, a) => {
            if i.index() >= frame.num_agents() {
                return Err(EvalError::AgentOutOfRange(i.index()));
            }
            let ts = need_temporal(frame, "K@")?;
            let av = eval(frame, a, env)?;
            let k = model.knowledge(*i, &av);
            Ok(temporal::knows_at_set(ts, *i, *stamp, &k))
        }
        Formula::EveryoneTs(g, stamp, a) => {
            group_check(frame, g)?;
            let ts = need_temporal(frame, "ET")?;
            let av = eval(frame, a, env)?;
            let k_sets = member_knowledge(model, g, &av);
            Ok(temporal::everyone_ts_set(ts, g, *stamp, &k_sets))
        }
        Formula::CommonEps(g, eps, a) => {
            group_check(frame, g)?;
            let ts = need_temporal(frame, "Ceps")?;
            let av = eval(frame, a, env)?;
            // νX. E^ε_G(a ∧ X) by downward iteration.
            let mut x = WorldSet::full(n);
            loop {
                let arg = av.intersection(&x);
                let k_sets = member_knowledge(model, g, &arg);
                let next = temporal::everyone_eps_set(ts, g, *eps, &k_sets);
                if next == x {
                    return Ok(x);
                }
                x = next;
            }
        }
        Formula::CommonEv(g, a) => {
            group_check(frame, g)?;
            let ts = need_temporal(frame, "Cev")?;
            let av = eval(frame, a, env)?;
            let mut x = WorldSet::full(n);
            loop {
                let arg = av.intersection(&x);
                let k_sets = member_knowledge(model, g, &arg);
                let next = temporal::everyone_ev_set(ts, g, &k_sets);
                if next == x {
                    return Ok(x);
                }
                x = next;
            }
        }
        Formula::CommonTs(g, stamp, a) => {
            group_check(frame, g)?;
            let ts = need_temporal(frame, "CT")?;
            let av = eval(frame, a, env)?;
            let mut x = WorldSet::full(n);
            loop {
                let arg = av.intersection(&x);
                let k_sets = member_knowledge(model, g, &arg);
                let next = temporal::everyone_ts_set(ts, g, *stamp, &k_sets);
                if next == x {
                    return Ok(x);
                }
                x = next;
            }
        }
    }
}

fn member_knowledge(model: &KripkeModel, g: &AgentGroup, a: &WorldSet) -> Vec<WorldSet> {
    g.iter().map(|i| model.knowledge(i, a)).collect()
}

fn need_temporal<'a>(
    frame: &'a dyn Frame,
    op: &str,
) -> Result<&'a dyn crate::frame::TemporalStructure, EvalError> {
    frame
        .temporal()
        .ok_or_else(|| EvalError::NoTemporalStructure(op.to_string()))
}

fn fixpoint(
    frame: &dyn Frame,
    x: &str,
    body: &Formula,
    env: &mut Env,
    start: WorldSet,
) -> Result<WorldSet, EvalError> {
    let shadowed = env.insert(x.to_string(), start);
    let result = loop {
        let cur = env.get(x).cloned().expect("just inserted");
        let next = eval(frame, body, env)?;
        if next == cur {
            break Ok(next);
        }
        env.insert(x.to_string(), next);
    };
    match shadowed {
        Some(old) => {
            env.insert(x.to_string(), old);
        }
        None => {
            env.remove(x);
        }
    }
    result
}

/// Checks that `var` occurs only positively (under an even number of
/// negations, never under `<->`) in `f`. Appendix A's syntactic
/// monotonicity condition. Shared by the tree-walking evaluator (checked
/// at each binder during evaluation) and the compiler (checked once at
/// compile time).
pub(crate) fn check_positive(f: &Formula, var: &str) -> Result<(), EvalError> {
    fn occurs_free(f: &Formula, var: &str) -> bool {
        match f {
            Formula::Var(x) => x == var,
            Formula::Gfp(x, body) | Formula::Lfp(x, body) => x != var && occurs_free(body, var),
            _ => {
                let mut found = false;
                f.for_each_child(|c| found |= occurs_free(c, var));
                found
            }
        }
    }
    fn walk(f: &Formula, var: &str, positive: bool) -> Result<(), EvalError> {
        match f {
            Formula::Var(x) => {
                if x == var && !positive {
                    return Err(EvalError::NonMonotone(var.to_string()));
                }
                Ok(())
            }
            Formula::Not(a) => walk(a, var, !positive),
            Formula::Implies(a, b) => {
                walk(a, var, !positive)?;
                walk(b, var, positive)
            }
            Formula::Iff(a, b) => {
                // Mixed polarity: reject any free occurrence.
                if occurs_free(a, var) || occurs_free(b, var) {
                    return Err(EvalError::NonMonotone(var.to_string()));
                }
                Ok(())
            }
            Formula::Gfp(x, body) | Formula::Lfp(x, body) => {
                if x == var {
                    Ok(()) // shadowed
                } else {
                    walk(body, var, positive)
                }
            }
            _ => {
                // All remaining operators are monotone in every argument.
                let mut result = Ok(());
                f.for_each_child(|c| {
                    if result.is_ok() {
                        result = walk(c, var, positive);
                    }
                });
                result
            }
        }
    }
    walk(f, var, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;
    use hm_kripke::{AgentGroup, AgentId, ModelBuilder, WorldId};

    /// Three-world chain: agent 0 merges {w0,w1}, agent 1 merges {w1,w2};
    /// p at w0, w1.
    fn chain() -> hm_kripke::KripkeModel {
        let mut b = ModelBuilder::new(2);
        for i in 0..3 {
            b.add_world(format!("w{i}"));
        }
        let p = b.atom("p");
        b.set_atom(p, WorldId::new(0), true);
        b.set_atom(p, WorldId::new(1), true);
        b.set_partition_by_key(AgentId::new(0), |w| w.index().max(1));
        b.set_partition_by_key(AgentId::new(1), |w| w.index().min(1));
        b.build()
    }

    fn ws(n: usize, ids: &[usize]) -> WorldSet {
        WorldSet::from_iter_len(n, ids.iter().map(|&i| WorldId::new(i)))
    }

    #[test]
    fn boolean_clauses() {
        let m = chain();
        let p = Formula::atom("p");
        assert_eq!(evaluate(&m, &p).unwrap(), ws(3, &[0, 1]));
        assert_eq!(evaluate(&m, &Formula::not(p.clone())).unwrap(), ws(3, &[2]));
        assert_eq!(evaluate(&m, &Formula::tt()).unwrap(), ws(3, &[0, 1, 2]));
        assert_eq!(evaluate(&m, &Formula::ff()).unwrap(), ws(3, &[]));
        let q_impl = Formula::implies(p.clone(), p.clone());
        assert!(evaluate(&m, &q_impl).unwrap().is_full());
        let iff = Formula::iff(p.clone(), Formula::not(p));
        assert!(evaluate(&m, &iff).unwrap().is_empty());
    }

    #[test]
    fn knowledge_clauses() {
        let m = chain();
        let p = Formula::atom("p");
        // Agent 0 merges {w0,w1} (both p) and {w2} (¬p): knows p at w0,w1.
        let k0 = Formula::knows(AgentId::new(0), p.clone());
        assert_eq!(evaluate(&m, &k0).unwrap(), ws(3, &[0, 1]));
        // Agent 1 merges {w1,w2}: knows p only at w0.
        let k1 = Formula::knows(AgentId::new(1), p.clone());
        assert_eq!(evaluate(&m, &k1).unwrap(), ws(3, &[0]));
        let g = AgentGroup::all(2);
        // E p = {w0}; E² p = ∅ (agent 0 at w0 considers w1 where ¬Ep).
        assert_eq!(
            evaluate(&m, &Formula::everyone(g.clone(), p.clone())).unwrap(),
            ws(3, &[0])
        );
        assert_eq!(
            evaluate(&m, &Formula::everyone_k(g.clone(), 2, p.clone())).unwrap(),
            ws(3, &[])
        );
        // S p = {w0, w1}; D p: joint partition is discrete, so D p = p.
        assert_eq!(
            evaluate(&m, &Formula::someone(g.clone(), p.clone())).unwrap(),
            ws(3, &[0, 1])
        );
        assert_eq!(
            evaluate(&m, &Formula::distributed(g.clone(), p.clone())).unwrap(),
            ws(3, &[0, 1])
        );
        // C p = ∅ (the chain connects all worlds, w2 has ¬p).
        assert!(evaluate(&m, &Formula::common(g, p)).unwrap().is_empty());
    }

    #[test]
    fn common_matches_gfp_form() {
        for seed in 0..15 {
            let m = hm_kripke::random_model(seed, hm_kripke::RandomModelSpec::default());
            let g = AgentGroup::all(m.num_agents());
            let p = Formula::atom("q0");
            let direct = evaluate(&m, &Formula::common(g.clone(), p.clone())).unwrap();
            let gfp = evaluate(&m, &Formula::common_as_gfp(g, p)).unwrap();
            assert_eq!(direct, gfp, "seed {seed}");
        }
    }

    #[test]
    fn lfp_reachability() {
        // µX. p ∨ S_G X computes "someone could come to know … " — on the
        // chain it saturates to all worlds reachable from p-worlds via
        // possibility. Here we just check it terminates above the lfp base.
        let m = chain();
        let g = AgentGroup::all(2);
        let f = Formula::lfp(
            "X",
            Formula::or([Formula::atom("p"), Formula::someone(g, Formula::var("X"))]),
        );
        let out = evaluate(&m, &f).unwrap();
        assert!(ws(3, &[0, 1]).is_subset(&out));
    }

    #[test]
    fn gfp_true_is_full_lfp_false_is_empty() {
        let m = chain();
        assert!(evaluate(&m, &Formula::gfp("X", Formula::var("X")))
            .unwrap()
            .is_full());
        assert!(evaluate(&m, &Formula::lfp("X", Formula::var("X")))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn errors() {
        let m = chain();
        assert_eq!(
            evaluate(&m, &Formula::atom("zap")),
            Err(EvalError::UnknownAtom("zap".into()))
        );
        assert_eq!(
            evaluate(&m, &Formula::var("X")),
            Err(EvalError::UnboundVar("X".into()))
        );
        assert_eq!(
            evaluate(&m, &Formula::gfp("X", Formula::not(Formula::var("X")))),
            Err(EvalError::NonMonotone("X".into()))
        );
        assert_eq!(
            evaluate(&m, &Formula::knows(AgentId::new(9), Formula::tt())),
            Err(EvalError::AgentOutOfRange(9))
        );
        assert_eq!(
            evaluate(&m, &Formula::next(Formula::tt())),
            Err(EvalError::NoTemporalStructure("next".into()))
        );
        // Error display is non-empty for all variants.
        for e in [
            EvalError::UnknownAtom("a".into()),
            EvalError::UnboundVar("X".into()),
            EvalError::NonMonotone("X".into()),
            EvalError::NoTemporalStructure("next".into()),
            EvalError::AgentOutOfRange(3),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn positivity_checker() {
        // X under implication antecedent: negative.
        let bad = Formula::gfp("X", Formula::implies(Formula::var("X"), Formula::atom("p")));
        assert!(matches!(
            evaluate(&chain(), &bad),
            Err(EvalError::NonMonotone(_))
        ));
        // X under two raw negations: positive — fine. (Built via the enum
        // because the `not` constructor collapses double negation.)
        let ok = Formula::Gfp(
            "X".into(),
            Formula::Not(Formula::Not(Formula::var("X")).arc()).arc(),
        )
        .arc();
        assert!(evaluate(&chain(), &ok).is_ok());
        // X under iff: rejected even on the positive side.
        let iff_bad = Formula::Gfp(
            "X".into(),
            Formula::Iff(Formula::var("X"), Formula::tt()).arc(),
        )
        .arc();
        assert!(matches!(
            evaluate(&chain(), &iff_bad),
            Err(EvalError::NonMonotone(_))
        ));
        // Shadowing: inner binder rebinds X, outer gfp is fine.
        let shadow = Formula::gfp(
            "X",
            Formula::and([Formula::atom("p"), Formula::gfp("X", Formula::var("X"))]),
        );
        assert!(evaluate(&chain(), &shadow).is_ok());
    }

    #[test]
    fn nested_fixpoints_restore_environment() {
        // νX.(p ∧ νY.(X ∧ Y)) — inner body mentions outer X.
        let f = Formula::gfp(
            "X",
            Formula::and([
                Formula::atom("p"),
                Formula::gfp("Y", Formula::and([Formula::var("X"), Formula::var("Y")])),
            ]),
        );
        let out = evaluate(&chain(), &f).unwrap();
        assert_eq!(out, ws(3, &[0, 1]));
    }

    #[test]
    fn holds_at_and_validity() {
        let m = chain();
        let p = Formula::atom("p");
        let holds = evaluate(&m, &p).unwrap();
        assert!(holds.contains(WorldId::new(0)));
        assert!(!holds.contains(WorldId::new(2)));
        assert!(!holds.is_full());
        // Knowledge axiom instance: K0 p -> p is valid.
        let a1 = Formula::implies(Formula::knows(AgentId::new(0), p.clone()), p);
        assert!(evaluate(&m, &a1).unwrap().is_full());
    }
}
