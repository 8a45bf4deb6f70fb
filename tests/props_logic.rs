//! Property-based tests of the logic layer: parser/printer round-trip
//! over random formulas, Boolean laws of the evaluator, and the
//! fixed-point/conjunction equivalence where downward continuity holds.

use halpern_moses::kripke::{random_model, AgentGroup, AgentId, RandomModelSpec};
use halpern_moses::logic::{evaluate, parse, Formula, F};
use proptest::prelude::*;
use std::sync::Arc;

/// A recursive strategy for random (static-fragment) formulas over atoms
/// q0/q1 and two agents.
fn formula_strategy() -> impl Strategy<Value = F> {
    let leaf = prop_oneof![
        Just(Formula::atom("q0")),
        Just(Formula::atom("q1")),
        Just(Formula::tt()),
        Just(Formula::ff()),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and([a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or([a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            (0usize..2, inner.clone()).prop_map(|(i, a)| Formula::knows(AgentId::new(i), a)),
            (1u32..4, inner.clone()).prop_map(|(k, a)| Formula::everyone_k(
                AgentGroup::all(2),
                k,
                a
            )),
            inner
                .clone()
                .prop_map(|a| Formula::someone(AgentGroup::all(2), a)),
            inner
                .clone()
                .prop_map(|a| Formula::distributed(AgentGroup::all(2), a)),
            inner.prop_map(|a| Formula::common(AgentGroup::all(2), a)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn print_parse_round_trip(f in formula_strategy()) {
        let printed = f.to_string();
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
        prop_assert_eq!(&f, &reparsed, "printed as {}", printed);
    }

    #[test]
    fn boolean_laws_hold_pointwise(f in formula_strategy(), g in formula_strategy(), seed in 0u64..500) {
        let m = random_model(seed, RandomModelSpec {
            num_agents: 2,
            num_worlds: 9,
            num_atoms: 2,
            max_blocks: 3,
        });
        let fv = evaluate(&m, &f).unwrap();
        let gv = evaluate(&m, &g).unwrap();
        // ¬¬f ≡ f (evaluator level, despite constructor collapsing).
        let nn = evaluate(&m, &Formula::Not(Formula::Not(f.clone()).arc())).unwrap();
        prop_assert_eq!(&nn, &fv);
        // f ∧ g ≡ ¬(¬f ∨ ¬g).
        let and = evaluate(&m, &Formula::and([f.clone(), g.clone()])).unwrap();
        let demorgan = evaluate(
            &m,
            &Formula::not(Formula::or([Formula::not(f.clone()), Formula::not(g.clone())])),
        )
        .unwrap();
        prop_assert_eq!(&and, &demorgan);
        // f → g ≡ ¬f ∨ g.
        let imp = evaluate(&m, &Formula::implies(f.clone(), g.clone())).unwrap();
        prop_assert_eq!(naive_implies(&fv, &gv), imp);
        // f ↔ g ≡ (f → g) ∧ (g → f).
        let iff = evaluate(&m, &Formula::iff(f.clone(), g.clone())).unwrap();
        let both = evaluate(
            &m,
            &Formula::and([
                Formula::implies(f.clone(), g.clone()),
                Formula::implies(g.clone(), f.clone()),
            ]),
        )
        .unwrap();
        prop_assert_eq!(iff, both);
    }

    #[test]
    fn common_equals_e_tower_conjunction(f in formula_strategy(), seed in 0u64..500) {
        // In finite models E_G is downward continuous, so the greatest
        // fixed point coincides with the infinite conjunction ⋀ E^k φ
        // (Appendix A) — here the conjunction stabilises at or before
        // |worlds| iterations.
        let m = random_model(seed, RandomModelSpec::default());
        let g = AgentGroup::all(m.num_agents());
        let phi = evaluate(&m, &f).unwrap();
        let mut conj = phi.clone();
        let mut cur = phi;
        for _ in 0..m.num_worlds() + 1 {
            cur = m.everyone_set(&g, &cur);
            conj.intersect_with(&cur);
        }
        let c = evaluate(&m, &Formula::common(g, f)).unwrap();
        prop_assert_eq!(c, conj);
    }

    #[test]
    fn knowledge_axiom_and_introspection_hold_for_arbitrary_formulas(
        f in formula_strategy(), seed in 0u64..500
    ) {
        let m = random_model(seed, RandomModelSpec::default());
        for i in 0..2usize {
            let ki: F = Formula::knows(AgentId::new(i), f.clone());
            let kv = evaluate(&m, &ki).unwrap();
            let fv = evaluate(&m, &f).unwrap();
            prop_assert!(kv.is_subset(&fv), "A1");
            let kkv = evaluate(&m, &Formula::knows(AgentId::new(i), ki.clone())).unwrap();
            prop_assert_eq!(&kv, &kkv, "A3 (kernel idempotence)");
        }
    }

    #[test]
    fn gfp_of_identity_like_bodies(seed in 0u64..200) {
        // νX.(φ ∧ X) ≡ φ and µX.(φ ∨ X) ≡ φ — sanity laws of the
        // fixed-point engine.
        let m = random_model(seed, RandomModelSpec::default());
        let phi = Formula::atom("q0");
        let nu = evaluate(&m, &Formula::gfp("X", Formula::and([phi.clone(), Formula::var("X")]))).unwrap();
        let mu = evaluate(&m, &Formula::lfp("X", Formula::or([phi.clone(), Formula::var("X")]))).unwrap();
        let direct = evaluate(&m, &phi).unwrap();
        prop_assert_eq!(&nu, &direct);
        prop_assert_eq!(&mu, &direct);
    }
}

fn naive_implies(
    a: &halpern_moses::kripke::WorldSet,
    b: &halpern_moses::kripke::WorldSet,
) -> halpern_moses::kripke::WorldSet {
    a.complement().union(b)
}

#[test]
fn formula_sharing_is_cheap() {
    // Arc sharing: a deeply nested formula reuses subterms without
    // cloning them (structural identity check).
    let base = Formula::atom("q0");
    let f = Formula::and([base.clone(), base]);
    match &*f {
        Formula::And(parts) => {
            assert!(Arc::ptr_eq(&parts[0], &parts[1]));
        }
        other => panic!("expected And, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Appendix A, fact 1: positive occurrence ⇒ monotone denotation.
// We realise "free variable" as a controllable extra atom on a copy of
// the model, build random positive contexts around it, and check
// A ⊆ B ⇒ ctx[A] ⊆ ctx[B].
// ---------------------------------------------------------------------

use halpern_moses::kripke::{AtomId, KripkeModel, ModelBuilder, SplitMix64, WorldId, WorldSet};

/// `m` with one more atom, `XSET`, holding exactly on `set`.
fn with_atom(m: &KripkeModel, set: &WorldSet) -> KripkeModel {
    let mut b = ModelBuilder::new(m.num_agents());
    b.add_worlds(m.num_worlds());
    for a in (0..m.num_atoms()).map(AtomId::new) {
        let id = b.atom(m.atom_name(a));
        for w in m.atom_set(a).iter() {
            b.set_atom(id, w, true);
        }
    }
    let x = b.atom("XSET");
    for w in set.iter() {
        b.set_atom(x, w, true);
    }
    for i in (0..m.num_agents()).map(AgentId::new) {
        b.set_partition(i, m.partition(i).clone());
    }
    b.build()
}

/// Random monotone context around the hole atom `XSET`.
fn positive_context() -> impl Strategy<Value = F> {
    let leaf = prop_oneof![
        3 => Just(Formula::atom("XSET")),
        1 => Just(Formula::atom("q0")),
        1 => Just(Formula::tt()),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and([a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or([a, b])),
            (0usize..2, inner.clone()).prop_map(|(i, a)| Formula::knows(AgentId::new(i), a)),
            inner
                .clone()
                .prop_map(|a| Formula::everyone(AgentGroup::all(2), a)),
            inner
                .clone()
                .prop_map(|a| Formula::someone(AgentGroup::all(2), a)),
            inner
                .clone()
                .prop_map(|a| Formula::common(AgentGroup::all(2), a)),
            inner
                .clone()
                .prop_map(|a| Formula::distributed(AgentGroup::all(2), a)),
            // Negative material only in the antecedent-free spots:
            inner.prop_map(|a| Formula::implies(Formula::atom("q0"), a)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn positive_contexts_are_monotone(ctx in positive_context(), seed in 0u64..500) {
        let m = random_model(seed, RandomModelSpec {
            num_agents: 2,
            num_worlds: 10,
            num_atoms: 1,
            max_blocks: 3,
        });
        // Random A ⊆ B.
        let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
        let mut a = WorldSet::empty(10);
        let mut b = WorldSet::empty(10);
        for w in 0..10 {
            let r = rng.next_below(3);
            if r >= 1 {
                b.insert(WorldId::new(w));
            }
            if r == 2 {
                a.insert(WorldId::new(w));
            }
        }
        let va = evaluate(&with_atom(&m, &a), &ctx).unwrap();
        let vb = evaluate(&with_atom(&m, &b), &ctx).unwrap();
        prop_assert!(va.is_subset(&vb), "context {} not monotone", ctx);
    }
}
