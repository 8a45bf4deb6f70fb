//! Resource-governed execution, end to end: every phase of the engine
//! pipeline surfaces exhaustion and cancellation as the typed
//! [`hm_engine::LimitExceeded`] error, partial builds answer only
//! through the three-valued [`hm_engine::Session::ask_partial`], and the
//! three-valued verdicts are differentially checked for soundness
//! against unbudgeted full builds.

use std::time::Duration;

use hm_engine::{
    CancelToken, Engine, EngineError, Limits, Phase, Query, Resource, Session, Trilean,
};
use hm_kripke::WorldId;

/// A small agreement instance with a known-sized run space (more than
/// the truncation budgets used below, far less than a second of work).
const SCENARIO: &str = "agreement:n=3,f=1";

fn engine() -> Engine {
    Engine::for_scenario(SCENARIO)
}

#[test]
fn run_ceiling_fails_enumeration_with_typed_error() {
    let err = engine()
        .limits(Limits::none().max_runs(10))
        .build()
        .unwrap_err();
    let e = *err.limit().expect("typed limit, not a panic");
    assert_eq!(e.resource, Resource::Runs);
    assert_eq!(e.phase, Phase::Enumerate);
    assert_eq!(e.limit, 10);
    assert_eq!(e.spent, 11, "fails on the first run past the ceiling");
    assert!(err.to_string().contains("limit 10"), "{err}");
}

#[test]
fn world_ceiling_is_hard_even_in_partial_mode() {
    let err = engine()
        .limits(Limits::none().max_worlds(10).allow_partial(true))
        .build()
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::Worlds);
    assert_eq!(e.phase, Phase::Build);
    assert_eq!(e.limit, 10);
}

#[test]
fn zero_timeout_fails_before_doing_work() {
    let err = engine()
        .limits(Limits::none().timeout(Duration::ZERO))
        .build()
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::Deadline);
}

#[test]
fn pre_cancelled_token_fails_the_build() {
    let token = CancelToken::new();
    token.cancel();
    let err = engine()
        .limits(Limits::none().cancel(token))
        .build()
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::Cancelled);
}

#[test]
fn cancellation_after_build_stops_evaluation() {
    let token = CancelToken::new();
    let session = engine()
        .limits(Limits::none().cancel(token.clone()))
        .build()
        .expect("token not yet cancelled");
    // An explicit fixed point: its evaluation loop re-checks the budget
    // every iteration, so cancellation is observed deterministically
    // (tiny straight-line programs may finish inside the amortized tick
    // window without consulting the shared flag — by design).
    let q = Query::parse("nu X. min0 & E{0,1,2} $X").unwrap();
    assert!(session.ask(&q).is_ok(), "un-cancelled asks succeed");
    token.cancel();
    let err = session.ask(&q).unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::Cancelled);
    assert_eq!(e.phase, Phase::Eval);
}

#[test]
fn small_state_budget_yields_typed_error_somewhere() {
    // Too small to survive build + a fixpoint query; the exact phase that
    // trips depends on amortization, so only the resource is pinned.
    let err = engine()
        .limits(Limits::none().max_states_visited(64))
        .build()
        .and_then(|s| {
            let q = Query::parse("C{0,1,2} min0")?;
            s.ask(&q).map(|_| ())
        })
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::StatesVisited);
    assert_eq!(e.limit, 64);
}

/// Minimising a model source charges the pipeline budget like
/// minimising a run system does: 1024 worlds per refinement round is
/// far past a ten-state ceiling.
#[test]
fn state_ceiling_stops_model_minimisation() {
    let err = Engine::for_scenario("muddy:n=10")
        .minimize(true)
        .limits(Limits::none().max_states_visited(10))
        .build()
        .unwrap_err();
    let e = err.limit().expect("typed limit");
    assert_eq!(e.resource, Resource::StatesVisited);
    assert_eq!(e.phase, Phase::Minimize);
}

#[test]
fn partial_build_truncates_and_rejects_two_valued_asks() {
    let session = engine()
        .limits(Limits::none().max_runs(8).allow_partial(true))
        .build()
        .expect("partial mode truncates instead of failing");
    assert!(session.is_partial());
    assert_eq!(
        session.system().unwrap().num_runs(),
        8,
        "exactly the admitted runs survive"
    );

    let q = Query::parse("decided0").unwrap();
    for two_valued in [
        session.ask(&q).map(|_| ()).unwrap_err(),
        session.valid(&q).map(|_| ()).unwrap_err(),
        session.satisfying(&q).map(|_| ()).unwrap_err(),
    ] {
        assert!(
            matches!(two_valued, EngineError::PartialFrame),
            "{two_valued}"
        );
    }

    let v = session.ask_partial(&q).unwrap();
    assert!(v.from_partial_frame());
}

#[test]
fn partial_builds_are_not_minimised() {
    // No query reads a partial frame's quotient: `ask` refuses the
    // frame and `ask_partial` evaluates on the frame itself.
    let session = engine()
        .minimize(true)
        .limits(Limits::none().max_runs(8).allow_partial(true))
        .build()
        .expect("partial mode truncates instead of failing");
    assert!(session.is_partial());
    assert!(session.quotient().is_none());
    let v = session
        .ask_partial(&Query::parse("decided0").unwrap())
        .unwrap();
    assert!(v.from_partial_frame());
}

#[test]
fn partial_verdict_on_full_frame_is_exact_and_matches_ask() {
    let session = engine().build().unwrap();
    for src in ["min0", "decided0", "K0 min0", "C{0,1,2} min0"] {
        let q = Query::parse(src).unwrap();
        let exact = session.ask(&q).unwrap();
        let iv = session.ask_partial(&q).unwrap();
        assert!(iv.is_exact(), "{src}: full frames leave nothing unknown");
        assert!(!iv.from_partial_frame());
        assert_eq!(iv.definitely(), exact.satisfying(), "{src}");
        assert_eq!(iv.unknown_count(), 0, "{src}");
    }
}

/// `ask_partial` on a truncated frame goes through the same analyzer
/// gate as `ask`, so an ill-formed query reports the same first error
/// whichever way it is asked — not the first error some other traversal
/// order happens to reach.
#[test]
fn partial_and_full_sessions_report_the_same_first_error() {
    let full = engine().build().unwrap();
    let part = engine()
        .limits(Limits::none().max_runs(8).allow_partial(true))
        .build()
        .unwrap();
    assert!(part.is_partial());
    for src in [
        "K9 (nu X. !$X)",
        "zap & K9 min0",
        "K0 (mu X. $Y)",
        "next zap",
    ] {
        let q = Query::parse(src).unwrap();
        let (EngineError::Eval(want), EngineError::Eval(got)) =
            (full.ask(&q).unwrap_err(), part.ask_partial(&q).unwrap_err())
        else {
            panic!("{src}: expected evaluation errors");
        };
        assert_eq!(got, want, "{src}");
    }
}

/// A truncated session compiles each distinct formula once, exactly like
/// `ask` on a full one: repeat three-valued asks reuse the cached program.
#[test]
fn repeat_partial_asks_compile_once() {
    let part = engine()
        .limits(Limits::none().max_runs(8).allow_partial(true))
        .build()
        .unwrap();
    let q = Query::parse("C{0,1,2} min0 | K0 decided0").unwrap();
    let first = part.ask_partial(&q).unwrap();
    assert_eq!(part.compiled_queries(), 1);
    let again = part.ask_partial(&q).unwrap();
    assert_eq!(
        part.compiled_queries(),
        1,
        "no recompilation on a repeat ask"
    );
    assert_eq!(first, again);
}

/// The soundness contract of `ask_partial`: on a truncated frame, a
/// `True`/`False` verdict at a surviving point must agree with the
/// classical verdict of the *full* (unbudgeted) build at the same point;
/// only `Unknown` may differ. Points are matched across the two frames
/// by run name and time, which survive truncation unchanged.
#[test]
fn partial_verdicts_never_contradict_the_full_build() {
    let full = engine().build().unwrap();
    let part = engine()
        .limits(Limits::none().max_runs(8).allow_partial(true))
        .build()
        .unwrap();
    assert!(part.is_partial());

    let queries = [
        "min0",
        "decided0",
        "!decided0",
        "K0 min0",
        "!K1 decided0",
        "E{0,1,2} min0",
        "C{0,1,2} min0",
        "K0 K1 min0",
        "decided0 & min0",
        "decided0 | !min0",
    ];
    for src in &queries {
        let q = Query::parse(src).unwrap();
        let full_verdict = full.ask(&q).unwrap();
        let part_verdict = part.ask_partial(&q).unwrap();
        let mut settled = 0usize;
        for w in 0..part.num_worlds() {
            let w = WorldId::new(w);
            let full_w = matched_world(&part, &full, w);
            let truth = full_verdict.holds_at(full_w);
            match part_verdict.status_at(w) {
                Trilean::True => {
                    settled += 1;
                    assert!(truth, "{src}: partial says True, full says false at {w:?}");
                }
                Trilean::False => {
                    settled += 1;
                    assert!(!truth, "{src}: partial says False, full says true at {w:?}");
                }
                Trilean::Unknown => {}
            }
        }
        // Soundness alone is satisfiable by answering Unknown everywhere;
        // propositional queries must settle every surviving point.
        if !src.contains('K') && !src.contains('E') && !src.contains('C') {
            assert_eq!(
                settled,
                part.num_worlds(),
                "{src}: knowledge-free queries are exact on surviving runs"
            );
        }
    }
}

/// Maps a world of the (partial) session to the world of the full
/// session denoting the same `(run, time)` point.
fn matched_world(part: &Session, full: &Session, w: WorldId) -> WorldId {
    let part_isys = part.interpreted().unwrap();
    let full_isys = full.interpreted().unwrap();
    let point = part_isys.locate(w);
    let name = part_isys.system().run(point.run).name();
    let full_run = full_isys
        .system()
        .run_by_name(name)
        .expect("truncation only drops runs, never renames them");
    full_isys.world(full_run, point.time)
}

// ---------------------------------------------------------------------
// The symmetry-reduced enumeration (PR 9) under the same governance
// contract: typed errors on hard ceilings, truncation in partial mode,
// and three-valued soundness against the full reduced build.

/// The reduced (n=3, f=1) frame: 56 runs (7 orbits × 8 input vectors).
const REDUCED: &str = "agreement:n=3,f=1,mode=reduced";

fn reduced_engine() -> Engine {
    Engine::for_scenario(REDUCED)
}

#[test]
fn reduced_run_ceiling_fails_enumeration_with_typed_error() {
    let err = reduced_engine()
        .limits(Limits::none().max_runs(10))
        .build()
        .unwrap_err();
    let e = *err.limit().expect("typed limit, not a panic");
    assert_eq!(e.resource, Resource::Runs);
    assert_eq!(e.phase, Phase::Enumerate);
    assert_eq!(e.limit, 10);
    assert_eq!(e.spent, 11, "fails on the first run past the ceiling");
}

#[test]
fn reduced_build_observes_deadline_and_cancellation() {
    let err = reduced_engine()
        .limits(Limits::none().timeout(Duration::ZERO))
        .build()
        .unwrap_err();
    assert_eq!(
        err.limit().expect("typed limit").resource,
        Resource::Deadline
    );

    let token = CancelToken::new();
    token.cancel();
    let err = reduced_engine()
        .limits(Limits::none().cancel(token))
        .build()
        .unwrap_err();
    assert_eq!(
        err.limit().expect("typed limit").resource,
        Resource::Cancelled,
        "cancellation interrupts even the canonicalisation pre-phase"
    );
}

#[test]
fn reduced_partial_build_truncates_and_answers_three_valued() {
    let session = reduced_engine()
        .limits(Limits::none().max_runs(8).allow_partial(true))
        .build()
        .expect("partial mode truncates instead of failing");
    assert!(session.is_partial());
    assert_eq!(session.system().unwrap().num_runs(), 8);

    let q = Query::parse("decided0").unwrap();
    assert!(
        matches!(
            session.ask(&q).map(|_| ()).unwrap_err(),
            EngineError::PartialFrame
        ),
        "two-valued asks are rejected on a truncated reduced frame"
    );
    assert!(session.ask_partial(&q).unwrap().from_partial_frame());
}

/// Three-valued soundness on the reduced frame: a settled verdict at a
/// surviving point must agree with the full *reduced* build there.
#[test]
fn reduced_partial_verdicts_never_contradict_the_full_reduced_build() {
    let full = reduced_engine().build().unwrap();
    let part = reduced_engine()
        .limits(Limits::none().max_runs(8).allow_partial(true))
        .build()
        .unwrap();
    assert!(part.is_partial());
    for src in [
        "min0",
        "decided0",
        "K0 min0",
        "E{0,1,2} min0",
        "C{0,1,2} min0",
    ] {
        let q = Query::parse(src).unwrap();
        let full_verdict = full.ask(&q).unwrap();
        let part_verdict = part.ask_partial(&q).unwrap();
        for w in 0..part.num_worlds() {
            let w = WorldId::new(w);
            let truth = full_verdict.holds_at(matched_world(&part, &full, w));
            match part_verdict.status_at(w) {
                Trilean::True => assert!(truth, "{src}: partial True vs full false at {w:?}"),
                Trilean::False => assert!(!truth, "{src}: partial False vs full true at {w:?}"),
                Trilean::Unknown => {}
            }
        }
    }
}
