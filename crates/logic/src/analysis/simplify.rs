//! The semantics-preserving simplification pass.
//!
//! [`simplify`] rewrites a formula bottom-up into an equivalent one that
//! compiles to at most as many instructions — strictly fewer whenever a
//! rule fires. Every rule is justified either by the evaluator's own
//! structure (Boolean folding) or by S5: every [`Frame`] evaluates
//! knowledge on a Kripke model, whose `K_i` and `D_G` are kernels of
//! equivalence relations and whose `E_G`/`C_G` are built from them.
//! Rules that would depend on anything more (the
//! ε/◇/T variants' interval edge cases, `next` at truncated run ends,
//! `D_G` over singletons) are deliberately omitted.
//!
//! [`Frame`]: crate::Frame

use crate::formula::{Formula, F};
use hm_kripke::AgentId;

/// Simplifies a formula, preserving its verdict on every
/// [`Frame`](crate::Frame).
///
/// The rules, applied bottom-up (children first):
///
/// - **Boolean folding** through `¬`, `∧`, `∨`, `→`, `↔`: constants
///   propagate (`φ ∧ false → false`, `true → ψ ⇒ ψ`, `φ ↔ false → ¬φ`,
///   …); the [`Formula`] constructors already flatten and drop units.
/// - **Knowledge of constants**: `K_i true → true`, `K_i false → false`
///   (an equivalence-class kernel maps the full set to itself and the
///   empty set to itself), and likewise for `E^k_G`, `S_G`, `D_G`, `C_G`
///   (groups are non-empty by [`AgentGroup`](hm_kripke::AgentGroup)
///   construction, so the kernel argument always applies).
/// - **S5 idempotence**: `K_i K_i φ → K_i φ` (kernels are idempotent).
/// - **Singleton groups**: `E^k_{i} φ`, `S_{i} φ`, `C_{i} φ → K_i φ` —
///   for one agent, every iterate of `E` collapses to `K_i` and the
///   common-knowledge fixed point converges to `K_i φ` by the T and 4
///   axioms, both guaranteed by the S5 kernel contract.
/// - **Fixed points**: `νX.$X → true`, `µX.$X → false`; a binder whose
///   variable is no longer free in the (simplified) body is the fixed
///   point of a constant map and unrolls to the body itself.
/// - **Temporal constants**: `◇`, `□` and `once` of `true`/`false` fold
///   (each quantifies over a non-empty set of points including *now*).
///   `next` does **not** fold (`next true` is false at the final point
///   of a truncated run), and the ε/◇/T group variants are never
///   rewritten.
pub fn simplify(f: &F) -> F {
    match &**f {
        Formula::True | Formula::False | Formula::Atom(_) | Formula::Var(_) => f.clone(),
        Formula::Not(a) => Formula::not(simplify(a)),
        Formula::And(xs) => {
            let xs: Vec<F> = xs.iter().map(simplify).collect();
            if xs.iter().any(|x| matches!(**x, Formula::False)) {
                Formula::ff()
            } else {
                Formula::and(xs)
            }
        }
        Formula::Or(xs) => {
            let xs: Vec<F> = xs.iter().map(simplify).collect();
            if xs.iter().any(|x| matches!(**x, Formula::True)) {
                Formula::tt()
            } else {
                Formula::or(xs)
            }
        }
        Formula::Implies(a, b) => {
            let (a, b) = (simplify(a), simplify(b));
            match (&*a, &*b) {
                (Formula::False, _) | (_, Formula::True) => Formula::tt(),
                (Formula::True, _) => b,
                (_, Formula::False) => Formula::not(a),
                _ => Formula::implies(a, b),
            }
        }
        Formula::Iff(a, b) => {
            let (a, b) = (simplify(a), simplify(b));
            match (&*a, &*b) {
                (Formula::True, _) => b,
                (_, Formula::True) => a,
                (Formula::False, _) => Formula::not(b),
                (_, Formula::False) => Formula::not(a),
                _ => Formula::iff(a, b),
            }
        }
        Formula::Knows(i, a) => knows(*i, simplify(a)),
        Formula::EveryoneK(g, k, a) => {
            let a = simplify(a);
            if *k == 0 {
                return a; // E^0 is the identity (see the evaluators).
            }
            match &*a {
                Formula::True => Formula::tt(),
                Formula::False => Formula::ff(),
                _ if g.len() == 1 => knows(g.iter().next().expect("len 1"), a),
                _ => Formula::everyone_k(g.clone(), *k, a),
            }
        }
        Formula::Someone(g, a) => {
            let a = simplify(a);
            match &*a {
                Formula::True => Formula::tt(),
                Formula::False => Formula::ff(),
                _ if g.len() == 1 => knows(g.iter().next().expect("len 1"), a),
                _ => Formula::someone(g.clone(), a),
            }
        }
        Formula::Distributed(g, a) => {
            let a = simplify(a);
            match &*a {
                // Kernels fix the full and the empty set, whatever the
                // joint partition is; no other D_G rewrite is
                // frame-independent.
                Formula::True => Formula::tt(),
                Formula::False => Formula::ff(),
                _ => Formula::distributed(g.clone(), a),
            }
        }
        Formula::Common(g, a) => {
            let a = simplify(a);
            match &*a {
                Formula::True => Formula::tt(),
                Formula::False => Formula::ff(),
                _ if g.len() == 1 => knows(g.iter().next().expect("len 1"), a),
                _ => Formula::common(g.clone(), a),
            }
        }
        Formula::Gfp(x, body) => {
            let body = simplify(body);
            if matches!(&*body, Formula::Var(y) if y == x) {
                Formula::tt() // νX.X: iteration from the full set stays put.
            } else if !occurs_free(&body, x) {
                body // fixed point of a constant map
            } else {
                Formula::gfp(x.clone(), body)
            }
        }
        Formula::Lfp(x, body) => {
            let body = simplify(body);
            if matches!(&*body, Formula::Var(y) if y == x) {
                Formula::ff()
            } else if !occurs_free(&body, x) {
                body
            } else {
                Formula::lfp(x.clone(), body)
            }
        }
        Formula::Next(a) => Formula::next(simplify(a)),
        Formula::Eventually(a) => temporal_const(simplify(a), Formula::eventually),
        Formula::Always(a) => temporal_const(simplify(a), Formula::always),
        Formula::Once(a) => temporal_const(simplify(a), Formula::once),
        Formula::EveryoneEps(g, e, a) => Formula::everyone_eps(g.clone(), *e, simplify(a)),
        Formula::CommonEps(g, e, a) => Formula::common_eps(g.clone(), *e, simplify(a)),
        Formula::EveryoneEv(g, a) => Formula::everyone_ev(g.clone(), simplify(a)),
        Formula::CommonEv(g, a) => Formula::common_ev(g.clone(), simplify(a)),
        Formula::KnowsAt(i, t, a) => Formula::knows_at(*i, *t, simplify(a)),
        Formula::EveryoneTs(g, t, a) => Formula::everyone_ts(g.clone(), *t, simplify(a)),
        Formula::CommonTs(g, t, a) => Formula::common_ts(g.clone(), *t, simplify(a)),
    }
}

/// `K_i` over an already-simplified operand: folds constants and
/// collapses `K_i K_i φ` (S5 idempotence).
fn knows(i: AgentId, a: F) -> F {
    match &*a {
        Formula::True => Formula::tt(),
        Formula::False => Formula::ff(),
        Formula::Knows(j, _) if *j == i => a,
        _ => Formula::knows(i, a),
    }
}

/// `◇`/`□`/`once` over an already-simplified operand: each quantifies
/// over a set of points that always contains the current one, so
/// constants pass through; anything else keeps the operator.
fn temporal_const(a: F, wrap: impl FnOnce(F) -> F) -> F {
    match &*a {
        Formula::True => Formula::tt(),
        Formula::False => Formula::ff(),
        _ => wrap(a),
    }
}

/// `true` iff `var` occurs free in `f`.
pub(crate) fn occurs_free(f: &Formula, var: &str) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn s(src: &str) -> String {
        simplify(&parse(src).unwrap()).to_string()
    }

    #[test]
    fn boolean_folding() {
        assert_eq!(s("p & false & q"), "false");
        assert_eq!(s("p | true"), "true");
        assert_eq!(s("true -> p"), "p");
        assert_eq!(s("p -> false"), "!p");
        assert_eq!(s("false -> p"), "true");
        assert_eq!(s("p <-> false"), "!p");
        assert_eq!(s("p <-> true"), "p");
        assert_eq!(s("!(p & false)"), "true");
    }

    #[test]
    fn knowledge_of_constants_and_idempotence() {
        assert_eq!(s("K0 (p | !p)"), "K0 (p | !p)");
        assert_eq!(s("K0 (p & false)"), "false");
        assert_eq!(s("K0 true"), "true");
        assert_eq!(s("K0 K0 K0 p"), "K0 p");
        assert_eq!(s("K0 K1 p"), "K0 K1 p");
        assert_eq!(s("E{0,1} true"), "true");
        assert_eq!(s("S{0,1} false"), "false");
        assert_eq!(s("D{0,1} true"), "true");
        assert_eq!(s("C{0,1} false"), "false");
    }

    #[test]
    fn singleton_groups_collapse_to_knows() {
        assert_eq!(s("C{1} p"), "K1 p");
        assert_eq!(s("E^4{0} p"), "K0 p");
        assert_eq!(s("S{0} p"), "K0 p");
        assert_eq!(s("C{0} C{0} p"), "K0 p");
        // D_G is left alone even for singletons: the joint view is the
        // frame's business.
        assert_eq!(s("D{0} p"), "D{p0} p");
    }

    #[test]
    fn fixpoints_unroll() {
        assert_eq!(s("nu X. $X"), "true");
        assert_eq!(s("mu X. $X"), "false");
        assert_eq!(s("nu X. K0 p"), "K0 p");
        assert_eq!(s("nu X. ($X | true)"), "true");
        assert_eq!(s("nu X. E{0,1} (p & $X)"), "nu X. E{p0,p1} (p & $X)");
    }

    #[test]
    fn temporal_rules_are_conservative() {
        assert_eq!(s("even false"), "false");
        assert_eq!(s("alw true"), "true");
        assert_eq!(s("once (p & false)"), "false");
        // `next true` is false at the last point of a truncated run.
        assert_eq!(s("next true"), "next true");
        assert_eq!(s("Eeps[2]{0,1} true"), "Eeps[2]{p0,p1} true");
    }
}
