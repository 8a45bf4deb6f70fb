//! Axiom and inference-rule checkers.
//!
//! Proposition 1 of Halpern–Moses states that under view-based knowledge
//! interpretations the operators `K_i`, `D_G` and `C_G` have the properties
//! of S5; Section 6 adds the fixed-point axiom C1 and induction rule C2 for
//! common knowledge, and Section 11 observes that `C^ε`/`C^◇` retain only
//! positive introspection (A3) and necessitation (R1). This module makes
//! those claims checkable: each axiom becomes a set-level inclusion tested
//! over a suite of denotations.
//!
//! The checks are *sound for refutation* (a failure is a genuine
//! counterexample at a world) and, because the operators are determined by
//! finitely many blocks, checking over all atom denotations plus
//! pseudo-random sets is a strong validity test; the crate's property tests
//! run them over random models.

use crate::frame::Frame;
use crate::temporal::{self, Attain};
use hm_kripke::{AgentGroup, AgentId, SplitMix64, WorldId, WorldSet};

/// A modal operator whose S5 status we can test, applied at the level of
/// world sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModalOp {
    /// `K_i`.
    Knows(AgentId),
    /// `E_G`.
    Everyone(AgentGroup),
    /// `D_G`.
    Distributed(AgentGroup),
    /// `C_G`.
    Common(AgentGroup),
    /// `E^ε_G` (temporal frames only).
    EveryoneEps(AgentGroup, u64),
    /// `C^ε_G` (temporal frames only).
    CommonEps(AgentGroup, u64),
    /// `E^◇_G` (temporal frames only).
    EveryoneEv(AgentGroup),
    /// `C^◇_G` (temporal frames only).
    CommonEv(AgentGroup),
    /// `E^T_G` (temporal frames only).
    EveryoneTs(AgentGroup, u64),
    /// `C^T_G` (temporal frames only).
    CommonTs(AgentGroup, u64),
}

impl ModalOp {
    /// Applies the operator to a denotation.
    ///
    /// # Panics
    ///
    /// Panics if a temporal operator is applied on a frame without
    /// temporal structure.
    pub fn apply(&self, frame: &dyn Frame, a: &WorldSet) -> WorldSet {
        let model = frame.model();
        let everyone = |var: Attain, arg: u64, g: &AgentGroup, a: &WorldSet| {
            let ts = frame
                .temporal()
                .expect("temporal operator needs temporal frame");
            temporal::everyone_attain(model, ts, var, arg, g, a)
        };
        let common = |var: Attain, arg: u64, g: &AgentGroup| {
            WorldSet::gfp(model.num_worlds(), |x| {
                everyone(var, arg, g, &a.intersection(x))
            })
        };
        match self {
            ModalOp::Knows(i) => model.knowledge(*i, a),
            ModalOp::Everyone(g) => model.everyone_set(g, a),
            ModalOp::Distributed(g) => model.distributed_knowledge(g, a),
            ModalOp::Common(g) => model.common_knowledge(g, a),
            ModalOp::EveryoneEps(g, eps) => everyone(Attain::Eps, *eps, g, a),
            ModalOp::EveryoneEv(g) => everyone(Attain::Ev, 0, g, a),
            ModalOp::EveryoneTs(g, t) => everyone(Attain::Ts, *t, g, a),
            ModalOp::CommonEps(g, eps) => common(Attain::Eps, *eps, g),
            ModalOp::CommonEv(g) => common(Attain::Ev, 0, g),
            ModalOp::CommonTs(g, t) => common(Attain::Ts, *t, g),
        }
    }

    /// The matching "everyone" operator for common-knowledge variants,
    /// used by the fixed-point axiom check; `None` for base operators.
    fn everyone_form(&self) -> Option<ModalOp> {
        match self {
            ModalOp::Common(g) => Some(ModalOp::Everyone(g.clone())),
            ModalOp::CommonEps(g, e) => Some(ModalOp::EveryoneEps(g.clone(), *e)),
            ModalOp::CommonEv(g) => Some(ModalOp::EveryoneEv(g.clone())),
            ModalOp::CommonTs(g, t) => Some(ModalOp::EveryoneTs(g.clone(), *t)),
            _ => None,
        }
    }
}

/// Outcome of checking the S5 axioms for one operator over a set suite.
///
/// Each field is `None` if the axiom held on every sample, or
/// `Some(world)` giving a world where it failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct S5Report {
    /// A1, `Mφ ⊃ φ`.
    pub truth_failure: Option<WorldId>,
    /// A2, `Mφ ∧ M(φ ⊃ ψ) ⊃ Mψ`.
    pub consequence_failure: Option<WorldId>,
    /// A3, `Mφ ⊃ MMφ`.
    pub pos_introspection_failure: Option<WorldId>,
    /// A4, `¬Mφ ⊃ M¬Mφ`.
    pub neg_introspection_failure: Option<WorldId>,
    /// R1, from `φ` valid infer `Mφ` valid.
    pub necessitation_failure: Option<WorldId>,
}

impl S5Report {
    /// `true` iff all five S5 properties held.
    pub fn is_s5(&self) -> bool {
        self.truth_failure.is_none()
            && self.consequence_failure.is_none()
            && self.pos_introspection_failure.is_none()
            && self.neg_introspection_failure.is_none()
            && self.necessitation_failure.is_none()
    }

    /// The profile Section 11 proves for `C^ε` and `C^◇`: A3 and R1 only
    /// are guaranteed (A1/A2/A4 may fail).
    pub fn satisfies_a3_r1(&self) -> bool {
        self.pos_introspection_failure.is_none() && self.necessitation_failure.is_none()
    }
}

/// Generates a deterministic suite of test denotations: every atom of the
/// frame plus `extra` pseudo-random subsets, plus ∅ and the full set.
pub fn sample_sets(frame: &dyn Frame, atoms: &[&str], extra: usize, seed: u64) -> Vec<WorldSet> {
    let n = frame.num_worlds();
    let mut out = vec![WorldSet::empty(n), WorldSet::full(n)];
    for a in atoms {
        if let Some(s) = frame.atom_set(a) {
            out.push(s);
        }
    }
    let mut rng = SplitMix64::new(seed);
    for _ in 0..extra {
        let mut s = WorldSet::empty(n);
        for w in 0..n {
            if rng.next_bool(1, 2) {
                s.insert(WorldId::new(w));
            }
        }
        out.push(s);
    }
    out
}

/// Checks the S5 axioms for `op` over all (pairs of) sets in `suite`.
pub fn check_s5(frame: &dyn Frame, op: &ModalOp, suite: &[WorldSet]) -> S5Report {
    let mut report = S5Report::default();
    let full = WorldSet::full(frame.num_worlds());
    for a in suite {
        let ma = op.apply(frame, a);
        // A1: M(A) ⊆ A.
        if report.truth_failure.is_none() {
            report.truth_failure = ma.difference(a).first();
        }
        // A3: M(A) ⊆ M(M(A)).
        if report.pos_introspection_failure.is_none() {
            let mma = op.apply(frame, &ma);
            report.pos_introspection_failure = ma.difference(&mma).first();
        }
        // A4: ¬M(A) ⊆ M(¬M(A)).
        if report.neg_introspection_failure.is_none() {
            let not_ma = ma.complement();
            let m_not_ma = op.apply(frame, &not_ma);
            report.neg_introspection_failure = not_ma.difference(&m_not_ma).first();
        }
        // R1: A valid ⇒ M(A) valid.
        if report.necessitation_failure.is_none() && a == &full {
            report.necessitation_failure = ma.complement().first();
        }
        // A2: M(A) ∩ M(A ⊃ B) ⊆ M(B).
        if report.consequence_failure.is_none() {
            for b in suite {
                let a_implies_b = a.complement().union(b);
                let lhs = ma.intersection(&op.apply(frame, &a_implies_b));
                let mb = op.apply(frame, b);
                report.consequence_failure = lhs.difference(&mb).first();
                if report.consequence_failure.is_some() {
                    break;
                }
            }
        }
    }
    report
}

/// Checks the fixed-point axiom C1 for a common-knowledge variant:
/// `Cφ ≡ E(φ ∧ Cφ)`. Returns a counterexample world if it fails.
///
/// # Panics
///
/// Panics if `op` is not a common-knowledge variant.
pub fn check_fixed_point_axiom(
    frame: &dyn Frame,
    op: &ModalOp,
    suite: &[WorldSet],
) -> Option<WorldId> {
    let e_op = op
        .everyone_form()
        .expect("fixed-point axiom needs a C-variant");
    for a in suite {
        let c = op.apply(frame, a);
        let e = e_op.apply(frame, &a.intersection(&c));
        if c != e {
            return c
                .difference(&e)
                .first()
                .or_else(|| e.difference(&c).first());
        }
    }
    None
}

/// Checks the induction rule C2 for a common-knowledge variant: for every
/// pair `(A, B)` in the suite with `A ⊆ E(A ∩ B)` valid, `A ⊆ C(B)` must be
/// valid. Returns a counterexample world if the rule fails.
///
/// # Panics
///
/// Panics if `op` is not a common-knowledge variant.
pub fn check_induction_rule(
    frame: &dyn Frame,
    op: &ModalOp,
    suite: &[WorldSet],
) -> Option<WorldId> {
    let e_op = op
        .everyone_form()
        .expect("induction rule needs a C-variant");
    for a in suite {
        for b in suite {
            let hyp = e_op.apply(frame, &a.intersection(b));
            if a.is_subset(&hyp) {
                let concl = op.apply(frame, b);
                if let Some(w) = a.difference(&concl).first() {
                    return Some(w);
                }
            }
        }
    }
    None
}

/// Checks Lemma 2: the following are equivalent at every world, for
/// non-empty `G`: (1) `C_G φ`; (2) `K_i(φ ∧ C_G φ)` for **all** `i ∈ G`;
/// (3) `K_i(φ ∧ C_G φ)` for **some** `i ∈ G`. Returns a world where the
/// tri-equivalence fails, if any.
pub fn check_lemma2(frame: &dyn Frame, g: &AgentGroup, suite: &[WorldSet]) -> Option<WorldId> {
    let model = frame.model();
    for a in suite {
        let c = model.common_knowledge(g, a);
        let arg = a.intersection(&c);
        let all = model.everyone_set(g, &arg);
        let some = model.someone_set(g, &arg);
        if c != all || c != some {
            for x in [
                c.difference(&all),
                all.difference(&c),
                c.difference(&some),
                some.difference(&c),
            ] {
                if let Some(w) = x.first() {
                    return Some(w);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_kripke::{random_model, RandomModelSpec};

    #[test]
    fn k_d_c_are_s5_on_random_models() {
        for seed in 0..12 {
            let m = random_model(seed, RandomModelSpec::default());
            let suite = sample_sets(&m, &["q0", "q1"], 6, seed ^ 0xABCD);
            let g = AgentGroup::all(m.num_agents());
            for op in [
                ModalOp::Knows(AgentId::new(0)),
                ModalOp::Distributed(g.clone()),
                ModalOp::Common(g.clone()),
            ] {
                let rep = check_s5(&m, &op, &suite);
                assert!(rep.is_s5(), "seed {seed} op {op:?}: {rep:?}");
            }
        }
    }

    #[test]
    fn e_is_not_s5_in_general() {
        // E_G fails positive introspection on a model where agents'
        // partitions differ: find a seed exhibiting the failure.
        let mut found_failure = false;
        for seed in 0..50 {
            let m = random_model(seed, RandomModelSpec::default());
            let suite = sample_sets(&m, &["q0"], 4, seed);
            let g = AgentGroup::all(m.num_agents());
            let rep = check_s5(&m, &ModalOp::Everyone(g), &suite);
            // A1 and R1 always hold for E; A3/A4 may fail.
            assert!(rep.truth_failure.is_none(), "E satisfies the truth axiom");
            assert!(rep.necessitation_failure.is_none());
            if rep.pos_introspection_failure.is_some() || rep.neg_introspection_failure.is_some() {
                found_failure = true;
            }
        }
        assert!(found_failure, "expected some E_G introspection failure");
    }

    #[test]
    fn fixed_point_and_induction_for_c() {
        for seed in 0..12 {
            let m = random_model(seed, RandomModelSpec::default());
            let suite = sample_sets(&m, &["q0", "q1"], 5, seed.wrapping_mul(7));
            let g = AgentGroup::all(m.num_agents());
            let c = ModalOp::Common(g.clone());
            assert_eq!(check_fixed_point_axiom(&m, &c, &suite), None, "seed {seed}");
            assert_eq!(check_induction_rule(&m, &c, &suite), None, "seed {seed}");
            assert_eq!(check_lemma2(&m, &g, &suite), None, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "needs a C-variant")]
    fn fixed_point_axiom_rejects_base_ops() {
        let m = random_model(0, RandomModelSpec::default());
        let suite = sample_sets(&m, &[], 1, 0);
        check_fixed_point_axiom(&m, &ModalOp::Knows(AgentId::new(0)), &suite);
    }

    #[test]
    fn sample_sets_contains_bounds() {
        let m = random_model(3, RandomModelSpec::default());
        let suite = sample_sets(&m, &["q0"], 3, 9);
        assert!(suite[0].is_empty());
        assert!(suite[1].is_full());
        assert_eq!(suite.len(), 2 + 1 + 3);
    }
}
