//! Simplification is verdict-preserving on the scenario suite.
//!
//! The random-model property tests (`hm-logic`'s `props_analysis`)
//! cover arbitrary S5 frames; this test pins the same contract on every
//! frame the experiment driver actually builds: each registered
//! scenario at default parameters, its example query plus a set of
//! paper formulas (knowledge ladders, nested `C_G`, constant-context
//! wrappers), evaluated compiled-as-written vs compiled-after-simplify.

use hm_engine::{Engine, ScenarioRegistry};
use hm_logic::{compile, evaluate, parse, simplify};

/// Extra paper-shaped formulas linted against every scenario whose
/// vocabulary supports them (evaluation is skipped when the formula
/// does not bind — binding parity is covered by `props_analysis`).
fn extra_queries() -> Vec<String> {
    vec![
        // Interleaved ladders and CK over the two-agent vocabulary.
        "K0 K1 sent".to_string(),
        "C{0,1} sent".to_string(),
        "C{0} C{0} sent".to_string(),
        // Constant contexts the simplifier must fold away.
        "true -> K1 dispatched".to_string(),
        "C{0,1} dispatched <-> true".to_string(),
        "K0 muddy0 & K0 true".to_string(),
        // Fixpoint forms: C as its gfp unrolling.
        "nu X. E{0,1} (sent & $X)".to_string(),
    ]
}

#[test]
fn simplified_queries_match_on_every_scenario_frame() {
    let registry = ScenarioRegistry::builtin();
    let mut compared = 0usize;
    for scenario in registry.iter() {
        let name = scenario.name();
        let session = Engine::for_scenario(&name)
            .build()
            .unwrap_or_else(|e| panic!("{name}: build failed: {e}"));
        let mut queries = vec![scenario.example_query()];
        queries.extend(extra_queries());
        for src in queries {
            let f = parse(&src).unwrap_or_else(|e| panic!("{name}: `{src}`: {e}"));
            let original = match evaluate(session.frame(), &f) {
                Ok(set) => set,
                Err(_) => continue, // vocabulary mismatch for this scenario
            };
            let simplified_f = simplify(&f);
            let simplified = evaluate(session.frame(), &simplified_f)
                .unwrap_or_else(|e| panic!("{name}: simplified `{src}` lost bindability: {e}"));
            assert_eq!(
                original, simplified,
                "{name}: `{src}` vs simplified `{simplified_f}` disagree"
            );
            compared += 1;
        }
    }
    // Every scenario contributes at least its example query, so a
    // vocabulary drift that silently skips everything cannot pass.
    assert!(
        compared >= registry.iter().count(),
        "only {compared} comparisons ran"
    );
}

#[test]
fn simplification_never_grows_suite_queries() {
    let registry = ScenarioRegistry::builtin();
    for scenario in registry.iter() {
        let src = scenario.example_query();
        let f = parse(&src).unwrap();
        let before = compile(&f).unwrap().num_ops();
        let after = compile(&simplify(&f)).unwrap().num_ops();
        assert!(
            after <= before,
            "{}: `{src}` grew {before} -> {after} ops",
            scenario.name()
        );
    }
    // And the targeted families shrink strictly even when phrased as
    // parsed query strings, matching what `hm check --explain` reports.
    for (src, reason) in [
        ("C{0} C{0} sent", "singleton-C tower collapses to K0"),
        ("true -> K1 dispatched", "antecedent `true` folds away"),
        ("K0 muddy0 & K0 true", "`K0 true` is valid in S5"),
    ] {
        let f = parse(src).unwrap();
        let before = compile(&f).unwrap().num_ops();
        let after = compile(&simplify(&f)).unwrap().num_ops();
        assert!(after < before, "`{src}`: {reason}: {before} -> {after} ops");
    }
}
