//! Concurrency stress for the shared session: `Session` is `Send +
//! Sync` (PR 3's cache-sharding follow-up), so one built frame must
//! answer many threads' mixed queries with verdicts identical to a
//! serial run — same satisfying sets, same errors, no panics, no
//! poisoned caches.

use hm_engine::{Engine, Query, Session};
use std::sync::Arc;

const QUERIES: &[&str] = &[
    "dispatched",
    "K1 dispatched",
    "K1 dispatched & !K0 K1 dispatched",
    "K0 K1 dispatched",
    "E{0,1} dispatched",
    "C{0,1} dispatched",
    "S{0,1} dispatched",
    "D{0,1} dispatched",
    "no_such_atom",
    "K9 dispatched",
];

/// A serially-computed reference answer: the satisfying set rendered to
/// a string, or the error's display.
fn reference(session: &Session) -> Vec<String> {
    QUERIES
        .iter()
        .map(|src| {
            let query = Query::parse(src).expect("parses");
            match session.satisfying(&query) {
                Ok(set) => format!("{set:?}"),
                Err(e) => format!("err: {e}"),
            }
        })
        .collect()
}

#[test]
fn shared_session_answers_match_serial() {
    let session = Arc::new(
        Engine::for_scenario("generals:horizon=8")
            .build()
            .expect("builds"),
    );
    let serial = reference(&session);
    // Distinct sessions agree with each other too (no hidden
    // order-dependent state): compute the reference on a fresh build.
    let fresh = Engine::for_scenario("generals:horizon=8")
        .build()
        .expect("builds");
    assert_eq!(serial, reference(&fresh));

    let threads = 8;
    let rounds = 25;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let session = Arc::clone(&session);
            let serial = &serial;
            scope.spawn(move || {
                // Rotate the starting query per thread so threads race
                // on *different* formulas as well as the same ones.
                for round in 0..rounds {
                    for k in 0..QUERIES.len() {
                        let i = (k + t) % QUERIES.len();
                        let src = QUERIES[i];
                        let query = Query::parse(src).expect("parses");
                        let got = match session.satisfying(&query) {
                            Ok(set) => format!("{set:?}"),
                            Err(e) => format!("err: {e}"),
                        };
                        assert_eq!(
                            got, serial[i],
                            "thread {t} round {round} query `{src}` diverged"
                        );
                    }
                }
            });
        }
    });
    // Every distinct formula was compiled exactly once into the shared
    // cache — failures are not cached.
    let failing = QUERIES
        .iter()
        .filter(|q| {
            session
                .satisfying(&Query::parse(q).expect("parses"))
                .is_err()
        })
        .count();
    assert_eq!(session.compiled_queries(), QUERIES.len() - failing);
}
