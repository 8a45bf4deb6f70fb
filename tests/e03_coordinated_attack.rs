//! Experiments E3–E5: coordinated attack and the unattainability of
//! common knowledge (paper Sections 4, 7, 8).
//!
//! E3: each delivered message adds exactly one level of interleaved
//!     knowledge; Proposition 4 (attack ⊃ common knowledge of attack).
//! E4: Theorem 5 — with communication not guaranteed (NG1+NG2 verified),
//!     common knowledge is twin-invariant, hence coordinated attack is
//!     impossible (Corollary 6, corroborated by a protocol-family sweep).
//! E5: Theorem 7 — likewise under guaranteed-but-unbounded delivery
//!     (NG1′+NG2 verified).

use halpern_moses::core::attain::{check_ck_twin_invariance, check_proposition13, ck_set};
use halpern_moses::core::puzzles::attack::{
    classify_attack_rule, generals_attack_interpreted, generals_builder,
    generals_unbounded_builder, ladder_depth_at_end, proposition4_check, AttackRuleOutcome,
};
use halpern_moses::kripke::AgentGroup;
use halpern_moses::limits::Budget;
use halpern_moses::logic::{evaluate, EvalCache, Formula};
use halpern_moses::runs::conditions;
use halpern_moses::runs::InterpretedSystem;

fn g2() -> AgentGroup {
    AgentGroup::all(2)
}

/// The generals' system at `horizon`, interpreted.
fn generals(horizon: u64) -> InterpretedSystem {
    generals_builder(horizon, &Budget::unlimited())
        .unwrap()
        .build()
}

#[test]
fn e3_ladder_depth_equals_delivery_count() {
    let isys = generals(10);
    let mut cache = EvalCache::new();
    for d in 0..=5usize {
        assert_eq!(ladder_depth_at_end(&isys, d, 9, &mut cache), d, "d={d}");
    }
}

#[test]
fn e3_proposition4_on_a_correct_by_fiat_protocol() {
    // A protocol that never attacks is (vacuously) correct; ψ ⊃ Eψ and
    // ψ ⊃ Cψ must be valid (they are, vacuously).
    let isys = generals_attack_interpreted(6, 9, 9).unwrap();
    let (e, c) = proposition4_check(&isys);
    assert!(e && c);
}

#[test]
fn e3_proposition4_detects_unsafe_protocols() {
    // For an unsafe rule (thresholds 1,1) ψ = "both attacking" is NOT
    // E-closed: there are runs where one knows of its own attack but the
    // other never attacks... ψ ⊃ Eψ may still hold or fail; what must
    // hold for CORRECT protocols is checked above. Here we simply verify
    // that the unsafe rule is flagged by the sweep instead.
    let out = classify_attack_rule(6, 1, 1).unwrap();
    assert!(matches!(out, AttackRuleOutcome::Unsafe(_)));
}

#[test]
fn e4_theorem5_with_verified_hypothesis() {
    for horizon in [4u64, 6, 8] {
        let isys = generals(horizon);
        assert_eq!(conditions::check_ng1(isys.system()), None, "h={horizon}");
        assert_eq!(conditions::check_ng2(isys.system()), None, "h={horizon}");
        let fact = Formula::atom("dispatched");
        assert!(
            check_ck_twin_invariance(&isys, &g2(), &fact)
                .unwrap()
                .is_empty(),
            "h={horizon}"
        );
        assert!(ck_set(&isys, &g2(), &fact).unwrap().is_empty());
        assert!(
            check_proposition13(&isys, &g2(), &fact).unwrap().is_empty(),
            "h={horizon}"
        );
    }
}

#[test]
fn e4_corollary6_sweep() {
    for ta in 0..=3usize {
        for tb in 0..=3usize {
            let out = classify_attack_rule(8, ta, tb).unwrap();
            assert!(
                !matches!(out, AttackRuleOutcome::CoordinatedAttack),
                "({ta},{tb}) coordinated — contradicts Corollary 6"
            );
        }
    }
}

fn unbounded_oneshot(horizon: u64) -> InterpretedSystem {
    generals_unbounded_builder(horizon, &Budget::unlimited())
        .unwrap()
        .build()
}

#[test]
fn e5_theorem7_under_unbounded_delivery() {
    let isys = unbounded_oneshot(7);
    // Hypothesis: unbounded delivery (NG1' + NG2).
    assert_eq!(conditions::check_ng1_prime(isys.system()), None);
    assert_eq!(conditions::check_ng2(isys.system()), None);
    // Conclusion: twin invariance, hence no CK of `sent`.
    let fact = Formula::atom("sent");
    assert!(check_ck_twin_invariance(&isys, &g2(), &fact)
        .unwrap()
        .is_empty());
    assert!(ck_set(&isys, &g2(), &fact).unwrap().is_empty());
}

#[test]
fn e3_ek_attainable_but_never_c() {
    // "The generals can attain E^k φ of many facts for arbitrarily large
    // k … but for no k does E^k suffice" — E^k(dispatched) holds at the
    // end of runs with enough deliveries, while C never does.
    let isys = generals(10);
    let fact = Formula::atom("dispatched");
    let e2 = evaluate(&isys, &Formula::everyone_k(g2(), 2, fact.clone())).unwrap();
    assert!(!e2.is_empty(), "E² dispatched is attainable");
    assert!(ck_set(&isys, &g2(), &fact).unwrap().is_empty());
}
