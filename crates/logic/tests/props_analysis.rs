//! Differential property tests for the static analyzer and simplifier.
//!
//! Three contracts, each checked on deterministic pseudo-random formulas
//! against deterministic pseudo-random S5 models:
//!
//! 1. **Analyzer ⇔ compile+bind.** The analyzer's first gating error (in
//!    [`hm_logic::EvalError`] form) is exactly the error `compile` then
//!    `bind` would produce — including `None` on both sides. This is the
//!    contract `Session` relies on when it rejects a query from the
//!    report before binding. Its facts (quotient safety, instruction
//!    counts) describe the program it hands back, `compile(simplify(f))`.
//! 2. **Simplification preserves verdicts.** For every formula that
//!    binds, `eval(simplify(f)) == eval(f)` as world sets, and the
//!    simplified program is never longer.
//! 3. **Simplification strictly shrinks the targeted families.**
//!    Constant-wrapped formulas and singleton-`C_G` towers compile to
//!    strictly fewer instructions after simplification.
//!
//! Generation is adversarial on purpose: atoms `q0..q3` against models
//! interpreting fewer, agents `0..5` against models with 1–4, sometimes-
//! free fixpoint variables, variables under negation (non-monotone), and
//! temporal operators against static frames.

use hm_kripke::{random_model, AgentGroup, AgentId, RandomModelSpec};
use hm_logic::{compile, evaluate, simplify, Analyzer, Formula, F};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

/// Agent groups over indices `0..5` (models have at most 4 agents, so
/// some groups are deliberately out of range).
fn group_strategy() -> BoxedStrategy<AgentGroup> {
    (0usize..5, 0usize..5)
        .prop_map(|(a, b)| {
            if a == b {
                AgentGroup::singleton(AgentId::new(a))
            } else {
                AgentGroup::new([AgentId::new(a), AgentId::new(b)])
            }
        })
        .boxed()
}

/// Adversarial random formulas: unknown atoms, out-of-range agents,
/// free/shadowed fixpoint variables, non-monotone binders, temporal
/// operators — everything the analyzer classifies.
fn formula_strategy() -> BoxedStrategy<F> {
    let leaf = prop_oneof![
        4 => (0u32..4).prop_map(|a| Formula::atom(format!("q{a}"))),
        1 => Just(Formula::tt()),
        1 => Just(Formula::ff()),
        1 => (0u32..2).prop_map(|v| Formula::var(format!("X{v}"))),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            2 => inner.clone().prop_map(Formula::not),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and([a, b])),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or([a, b])),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            3 => (0usize..5, inner.clone())
                .prop_map(|(i, f)| Formula::knows(AgentId::new(i), f)),
            1 => (group_strategy(), inner.clone()).prop_map(|(g, f)| Formula::everyone(g, f)),
            1 => (group_strategy(), 1u32..3, inner.clone())
                .prop_map(|(g, k, f)| Formula::everyone_k(g, k, f)),
            1 => (group_strategy(), inner.clone()).prop_map(|(g, f)| Formula::someone(g, f)),
            1 => (group_strategy(), inner.clone()).prop_map(|(g, f)| Formula::distributed(g, f)),
            1 => (group_strategy(), inner.clone()).prop_map(|(g, f)| Formula::common(g, f)),
            1 => (0u32..2, inner.clone()).prop_map(|(v, f)| Formula::gfp(format!("X{v}"), f)),
            1 => (0u32..2, inner.clone()).prop_map(|(v, f)| Formula::lfp(format!("X{v}"), f)),
            1 => inner.clone().prop_map(Formula::next),
            1 => inner.prop_map(Formula::eventually),
        ]
    })
}

/// Model shapes: mostly small, occasionally up to 4096 worlds (the
/// acceptance bound). Atom count `0..=3` against formulas naming
/// `q0..q3`, agent count `1..=4` against formulas naming `0..5`.
fn model_spec_strategy() -> BoxedStrategy<RandomModelSpec> {
    let worlds = prop_oneof![
        7 => 1usize..=64,
        1 => 512usize..=4096,
    ];
    (worlds, 1usize..=4, 0usize..=3, 1usize..=8)
        .prop_map(
            |(num_worlds, num_agents, num_atoms, max_blocks)| RandomModelSpec {
                num_agents,
                num_worlds,
                num_atoms,
                max_blocks,
            },
        )
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Contract 1: the analyzer's gating verdict is the compiler's, on
    /// every (formula, frame) pair — same error or no error on both
    /// sides.
    #[test]
    fn analyzer_verdict_matches_compile_bind(
        f in formula_strategy(),
        seed in 0u64..1 << 48,
        spec in model_spec_strategy(),
    ) {
        let m = random_model(seed, spec);
        let report = Analyzer::new().frame(&m).analyze(&f);
        let pipeline = compile(&f).and_then(|c| c.bind(&m).map(|_| ()));
        prop_assert_eq!(
            report.first_error_as_eval(),
            pipeline.err(),
            "analyzer and compile+bind disagree on `{}`",
            f
        );
    }

    /// Contract 1b: the analyzer's quotient-safety fact is the bit of
    /// the program it hands back — `compile(simplify(f))`, the one a
    /// session executes — and its instruction counts are that program's
    /// and the original's.
    #[test]
    fn analyzer_facts_describe_the_executed_program(
        f in formula_strategy(),
        seed in 0u64..1 << 48,
        spec in model_spec_strategy(),
        minimize in 0u8..2,
    ) {
        let m = random_model(seed, spec);
        let minimize = minimize == 1;
        let (report, program) = Analyzer::new().frame(&m).minimize(minimize).analyze_with_program(&f);
        let expected = compile(&simplify(&f));
        prop_assert_eq!(
            program.as_ref().map(|c| c.num_ops()),
            expected.as_ref().map(|c| c.num_ops())
        );
        let facts = report.facts();
        prop_assert_eq!(facts.instructions_simplified, expected.as_ref().ok().map(|c| c.num_ops()));
        prop_assert_eq!(facts.instructions, compile(&f).ok().map(|c| c.num_ops()));
        if let Ok(c) = &expected {
            prop_assert_eq!(
                facts.quotient_safe,
                c.quotient_safe(),
                "quotient safety of `{}` disagrees with its program",
                f
            );
            let warned = report.warnings().iter().any(|w| w.code() == "not-quotient-safe");
            prop_assert_eq!(warned, minimize && !c.quotient_safe(), "`{}`", f);
        }
        prop_assert_eq!(facts.quotient_unsafe.is_none(), facts.quotient_safe);
    }

    /// Contract 2: on every formula that binds, the simplified formula
    /// has the same extension and never compiles to a longer program.
    #[test]
    fn simplify_preserves_verdicts_on_random_models(
        f in formula_strategy(),
        seed in 0u64..1 << 48,
        spec in model_spec_strategy(),
    ) {
        let m = random_model(seed, spec);
        let compiled = match compile(&f) {
            Ok(c) => c,
            Err(_) => return Ok(()), // structurally ill-formed: nothing to compare
        };
        let original = match evaluate(&m, &f) {
            Ok(set) => set,
            Err(_) => return Ok(()), // does not bind to this frame
        };
        let simplified_f = simplify(&f);
        let simplified_c = compile(&simplified_f).expect("simplify preserves well-formedness");
        let simplified = evaluate(&m, &simplified_f)
            .expect("simplify only removes frame requirements");
        prop_assert_eq!(
            &original,
            &simplified,
            "`{}` and its simplification `{}` disagree",
            f,
            simplified_f
        );
        prop_assert!(
            simplified_c.num_ops() <= compiled.num_ops(),
            "simplification grew `{}`: {} -> {} ops",
            f,
            compiled.num_ops(),
            simplified_c.num_ops()
        );
    }

    /// Contract 3a: wrapping any compilable formula in constant context
    /// compiles to strictly fewer instructions once simplified. The
    /// contexts go through `⊃`/`≡`/`K_i true` — connectives the smart
    /// constructors do *not* normalize, so the reduction is the
    /// simplifier's work, not `Formula::and`'s.
    #[test]
    fn constant_folding_strictly_reduces_instructions(
        f in formula_strategy(),
        wrap in 0u32..4,
    ) {
        prop_assume!(compile(&f).is_ok());
        let wrapped = match wrap {
            0 => Formula::implies(Formula::tt(), f.clone()),
            1 => Formula::iff(f.clone(), Formula::tt()),
            2 => Formula::and([f.clone(), Formula::knows(AgentId::new(0), Formula::tt())]),
            _ => Formula::implies(Formula::ff(), f.clone()),
        };
        let before = compile(&wrapped).unwrap().num_ops();
        let after = compile(&simplify(&wrapped)).unwrap().num_ops();
        prop_assert!(
            after < before,
            "constant context around `{}` not folded: {} -> {} ops",
            f,
            before,
            after
        );
    }

    /// Contract 3b: a tower of singleton-`C_G` operators over one agent
    /// rewrites to a single `K_i` — `C_{{i}} φ = K_i φ` in S5, then
    /// `K_i K_i φ = K_i φ` by idempotence — so `m ≥ 2` layers compile
    /// to strictly fewer instructions with the same extension.
    #[test]
    fn singleton_common_knowledge_strictly_reduces_instructions(
        layers in 2usize..=4,
        agent in 0usize..3,
        seed in 0u64..1 << 48,
    ) {
        let mut f = Formula::atom("q0");
        for _ in 0..layers {
            f = Formula::common(AgentGroup::singleton(AgentId::new(agent)), f);
        }
        let before = compile(&f).unwrap().num_ops();
        let after = compile(&simplify(&f)).unwrap().num_ops();
        prop_assert!(
            after < before,
            "singleton-C tower not rewritten: {} -> {} ops",
            before,
            after
        );
        let m = random_model(
            seed,
            RandomModelSpec {
                num_agents: 3,
                num_worlds: 24,
                num_atoms: 1,
                max_blocks: 6,
            },
        );
        let original = evaluate(&m, &f).unwrap();
        let simplified = evaluate(&m, &simplify(&f)).unwrap();
        prop_assert_eq!(original, simplified);
    }
}
