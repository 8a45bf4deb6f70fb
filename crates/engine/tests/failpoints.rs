//! Deterministic fault injection at every phase boundary (requires the
//! `failpoints` cargo feature): exhaustion and cancellation are forced
//! at each governed site, and each must surface as a typed error —
//! never a panic, never a corrupted session.
//!
//! `FailScenario::setup` holds a process-global lock, so these tests
//! serialize against each other even under the parallel test runner.

#![cfg(feature = "failpoints")]

use hm_core::puzzles::attack::generals_builder;
use hm_engine::limits::failpoints::{Action, ExhaustKind, FailScenario};
use hm_engine::{Budget, Engine, Limits, Phase, Query, Resource};

#[test]
fn exhaustion_at_enumeration_is_typed() {
    let sc = FailScenario::setup();
    sc.configure("netsim::enumerate", Action::Exhaust(ExhaustKind::Runs));
    let err = Engine::for_scenario("generals").build().unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::Runs);
    assert_eq!(e.phase, Phase::Enumerate);
}

#[test]
fn cancellation_at_enumeration_is_typed() {
    let sc = FailScenario::setup();
    sc.configure("netsim::enumerate", Action::Cancel);
    let err = Engine::for_scenario("generals").build().unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::Cancelled);
    assert_eq!(e.phase, Phase::Enumerate);
}

#[test]
fn exhaustion_at_interpreted_system_build_is_typed() {
    let sc = FailScenario::setup();
    sc.configure("runs::build", Action::Exhaust(ExhaustKind::Worlds));
    let err = Engine::for_scenario("agreement:n=3,f=1")
        .build()
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::Worlds);
    assert_eq!(e.phase, Phase::Build);
}

#[test]
fn exhaustion_during_minimization_is_typed() {
    let sc = FailScenario::setup();
    sc.configure("kripke::refine", Action::Exhaust(ExhaustKind::States));
    let err = Engine::for_scenario("agreement:n=3,f=1")
        .minimize(true)
        .build()
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::StatesVisited);
    assert_eq!(e.phase, Phase::Minimize);
}

/// Model sources are minimised by `Engine::build` itself, under the
/// same budget as scenario-built run systems.
#[test]
fn exhaustion_while_minimising_a_model_is_typed() {
    let sc = FailScenario::setup();
    sc.configure("kripke::refine", Action::Exhaust(ExhaustKind::States));
    let err = Engine::for_scenario("muddy:n=4")
        .minimize(true)
        .build()
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::StatesVisited);
    assert_eq!(e.phase, Phase::Minimize);
}

#[test]
fn exhaustion_while_minimising_a_prebuilt_system_is_typed() {
    let sc = FailScenario::setup();
    let isys = generals_builder(8, &Budget::unlimited())
        .expect("no failpoint configured yet")
        .build();
    sc.configure("kripke::refine", Action::Exhaust(ExhaustKind::States));
    let err = Engine::from_interpreted(isys)
        .minimize(true)
        .build()
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::StatesVisited);
    assert_eq!(e.phase, Phase::Minimize);
}

#[test]
fn exhaustion_during_evaluation_leaves_the_session_usable() {
    let sc = FailScenario::setup();
    let session = Engine::for_scenario("agreement:n=3,f=1")
        .build()
        .expect("no failpoint configured during build");
    let q = Query::parse("C{0,1,2} min0").unwrap();

    sc.configure("logic::eval", Action::Exhaust(ExhaustKind::States));
    let err = session.ask(&q).unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::StatesVisited);
    assert_eq!(e.phase, Phase::Eval);
    // Three-valued evaluation is governed by the same site.
    assert!(session.ask_partial(&q).is_err());

    // The failed evaluation must not have poisoned any cache: with the
    // failpoint cleared the very same session answers normally.
    sc.clear("logic::eval");
    let verdict = session.ask(&q).expect("session survives a failed eval");
    assert!(verdict.count() > 0);
}

#[test]
fn exhaustion_during_partial_evaluation_on_a_truncated_frame_is_typed() {
    let sc = FailScenario::setup();
    let session = Engine::for_scenario("agreement:n=3,f=1")
        .limits(Limits::none().max_runs(8).allow_partial(true))
        .build()
        .expect("no failpoint configured during build");
    assert!(session.is_partial());
    let q = Query::parse("C{0,1,2} min0").unwrap();

    sc.configure("logic::eval", Action::Exhaust(ExhaustKind::States));
    let err = session.ask_partial(&q).unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::StatesVisited);
    assert_eq!(e.phase, Phase::Eval);

    sc.clear("logic::eval");
    let verdict = session
        .ask_partial(&q)
        .expect("session survives a failed three-valued eval");
    assert!(verdict.from_partial_frame());
}

#[test]
fn cancellation_during_evaluation_is_typed() {
    let sc = FailScenario::setup();
    let session = Engine::for_scenario("agreement:n=3,f=1")
        .build()
        .expect("no failpoint configured during build");
    sc.configure("logic::eval", Action::Cancel);
    let q = Query::parse("decided0").unwrap();
    let err = session.ask(&q).unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::Cancelled);
    assert_eq!(e.phase, Phase::Eval);
}

#[test]
fn exhaustion_at_canonicalisation_is_typed() {
    // The symmetry-reduced build adds a pre-execution phase (crash-
    // pattern canonicalisation); its failpoint site must surface typed
    // errors like every other governed boundary.
    let sc = FailScenario::setup();
    sc.configure("core::canonicalize", Action::Exhaust(ExhaustKind::Deadline));
    let err = Engine::for_scenario("agreement:n=3,f=1,mode=reduced")
        .build()
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::Deadline);
    assert_eq!(e.phase, Phase::Enumerate);
}

#[test]
fn cancellation_at_canonicalisation_is_typed() {
    let sc = FailScenario::setup();
    sc.configure("core::canonicalize", Action::Cancel);
    let err = Engine::for_scenario("agreement:n=3,f=1,mode=reduced")
        .build()
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::Cancelled);
    assert_eq!(e.phase, Phase::Enumerate);
    // The naive mode never reaches the site: same scenario family,
    // mode=naive, builds clean under the armed failpoint.
    assert!(Engine::for_scenario("agreement:n=3,f=1,mode=naive")
        .build()
        .is_ok());
}
