//! Integration tests of the `hm-engine` pipeline: the builder API end to
//! end, and the minimisation guarantee — `.minimize(true)` never changes
//! any verdict across the formula suite of the E1–E18 experiments.

use halpern_moses::core::agreement::{agreement_builder, AgreementSpec, Reduction};
use halpern_moses::core::attain::uncertain_start_builder;
use halpern_moses::core::puzzles::r2d2::r2d2_parts;
use halpern_moses::core::variants::{ok_builder, skewed_broadcast_builder};
use halpern_moses::engine::{Budget, Engine, Query};
use halpern_moses::netsim::scenarios::R2d2Mode;

/// Asks every formula on sessions built with and without minimisation
/// and requires identical satisfying sets (the quotient answers
/// quotient-safe queries; temporal and `D_G` queries fall back).
fn assert_minimize_invariant(mk: impl Fn() -> Engine, formulas: &[&str]) {
    let raw = mk().minimize(false).build().expect("raw build");
    let min = mk().minimize(true).build().expect("minimized build");
    assert!(
        min.quotient().is_some(),
        "minimize(true) attaches a quotient"
    );
    for src in formulas {
        let q = Query::parse(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        assert_eq!(
            raw.satisfying(&q).unwrap(),
            min.satisfying(&q).unwrap(),
            "minimize changed the verdict of {src}"
        );
    }
}

#[test]
fn minimize_never_changes_generals_verdicts() {
    // The E3/E4/E8/E9/E10 formula families on the generals' scenario.
    assert_minimize_invariant(
        || Engine::for_scenario("generals").horizon(8),
        &[
            "dispatched",
            "attacking",
            "K1 dispatched",
            "K0 K1 dispatched",
            "K1 K0 K1 dispatched",
            "E{0,1} dispatched",
            "E^3{0,1} dispatched",
            "S{0,1} dispatched",
            "D{0,1} dispatched",
            "C{0,1} dispatched",
            "attacking -> E{0,1} attacking",
            "attacking -> C{0,1} attacking",
            "nu X. E{0,1} (dispatched & $X)",
            "mu X. dispatched | S{0,1} $X",
            // Temporal variants (full-frame fallback).
            "even dispatched",
            "alw (dispatched -> dispatched)",
            "Eeps[1]{0,1} dispatched",
            "Ceps[1]{0,1} dispatched",
            "Eev{0,1} dispatched",
            "Cev{0,1} dispatched",
        ],
    );
}

#[test]
fn minimize_never_changes_r2d2_verdicts() {
    for mode in [R2d2Mode::Uncertain, R2d2Mode::Exact, R2d2Mode::Timestamped] {
        assert_minimize_invariant(
            || Engine::from_system(r2d2_parts(2, 3, 3, mode).0),
            &[
                "sent",
                "sent_focus",
                "K0 K1 sent",
                "K0 K1 K0 K1 sent",
                "C{0,1} sent",
                "C{0,1} sent_focus",
                "once sent",
                "CT[6]{0,1} sent",
            ],
        );
    }
}

#[test]
fn minimize_never_changes_ok_and_broadcast_verdicts() {
    assert_minimize_invariant(
        || Engine::from_system(ok_builder(6).unwrap()),
        &[
            "psi",
            "ok_sent",
            "C{0,1} ok_sent",
            "Ceps[1]{0,1} psi",
            "psi -> Ceps[1]{0,1} psi",
        ],
    );
    assert_minimize_invariant(
        || Engine::from_system(skewed_broadcast_builder(10, 2).unwrap()),
        &[
            "sent_v",
            "C{0,1} sent_v",
            "CT[7]{0,1} sent_v",
            "CT[1]{0,1} sent_v",
        ],
    );
}

#[test]
fn minimize_never_changes_attain_and_agreement_verdicts() {
    assert_minimize_invariant(
        || Engine::from_system(uncertain_start_builder(5, false).unwrap()),
        &["sent", "K0 sent", "K1 sent", "C{0,1} sent", "S{0,1} !sent"],
    );
    assert_minimize_invariant(
        || {
            let spec = AgreementSpec { n: 3, f: 1 };
            Engine::from_system(
                agreement_builder(spec, Reduction::Naive, &Budget::unlimited()).unwrap(),
            )
        },
        &[
            "min0",
            "decided0",
            "E{0,1,2} min0",
            "C{0,1,2} min0",
            "D{0,1,2} min0",
        ],
    );
}

#[test]
fn minimize_never_changes_muddy_verdicts() {
    // Model-sourced session: the quotient is computed post hoc.
    assert_minimize_invariant(
        || Engine::for_scenario("muddy:n=4"),
        &[
            "m",
            "muddy0",
            "K0 m",
            "E{0,1,2,3} m",
            "E^2{0,1,2,3} m & !E^3{0,1,2,3} m",
            "C{0,1,2,3} (m | !m)",
        ],
    );
}

#[test]
fn quotient_actually_shrinks_run_frames() {
    let session = Engine::for_scenario("generals")
        .horizon(8)
        .minimize(true)
        .build()
        .unwrap();
    let q = session.quotient().unwrap();
    assert!(
        q.model.num_worlds() < session.num_worlds(),
        "{} quotient worlds vs {} points",
        q.model.num_worlds(),
        session.num_worlds()
    );
}

#[test]
fn engine_options_compose() {
    // horizon + minimize on one pipeline.
    let session = Engine::for_scenario("generals")
        .horizon(6)
        .minimize(true)
        .build()
        .unwrap();
    let ck = session
        .ask(&Query::parse("C{0,1} dispatched").unwrap())
        .unwrap();
    assert!(ck.is_empty());
    let kb = session
        .ask(&Query::parse("K1 dispatched").unwrap())
        .unwrap();
    assert!(!kb.is_empty() && !kb.is_valid());
}
