//! Differential harness for the symmetry-reduced agreement build.
//!
//! Symmetry reduction is a soundness hazard: dropping runs from an
//! interpreted system cuts indistinguishability chains, which can make
//! common knowledge arrive *earlier* than it does in the full system —
//! silently falsifying the paper's round-(f+1) lower bound. The reduced
//! build guards against this with the `SymmetricHistory` view (see
//! `hm_core::agreement`); this suite is the empirical pin: for every
//! (n, f) where the naive enumeration still fits, it builds both
//! systems through the public engine pipeline and compares verdicts
//! formula-by-formula, world-by-world.
//!
//! Two comparisons are made per query:
//!
//! - **shared worlds** — runs whose crash pattern is already canonical
//!   exist under the same name in both systems; verdicts must agree
//!   exactly there for every query in the suite (including per-agent
//!   `K_i`).
//! - **orbit-mapped worlds** — a non-canonical run maps to its orbit
//!   representative under the canonicalizing renaming; *symmetric*
//!   queries (atoms, booleans, `E`, `C` over the full group) must agree
//!   across that mapping.
//!
//! Known, intentional scope limit: nested knowledge of *distinct named
//! agents* (`K0 K1 phi`) is not a symmetric formula, and its verdicts
//! may differ on the reduced frame. That gap is pinned by its own test
//! below so a change in either direction is noticed.

use hm_core::agreement::{
    canonicalize_pattern, canonicalizing_permutation, crash_patterns, pattern_run_name,
    AgreementSpec,
};
use hm_engine::{Engine, EngineError, Query, Session, SpecError};

/// Queries whose truth value is invariant under process renaming:
/// anonymous atoms, boolean combinations, and group operators over the
/// full agent set.
fn symmetric_queries(n: usize) -> Vec<String> {
    let g = (0..n).map(|i| i.to_string()).collect::<Vec<_>>().join(",");
    vec![
        "min0".into(),
        "decided0".into(),
        "!decided0".into(),
        "decided0 & min0".into(),
        "min0 -> decided0".into(),
        format!("E{{{g}}} min0"),
        format!("E{{{g}}} E{{{g}}} decided0"),
        format!("C{{{g}}} min0"),
        format!("C{{{g}}} decided0"),
    ]
}

/// Per-agent queries: sound at shared worlds (the stabilizer view never
/// coarsens beyond agent `i`'s own orbit), but not orbit-mappable
/// without renaming the agent index.
fn per_agent_queries(n: usize) -> Vec<String> {
    let mut qs = Vec::new();
    for i in 0..n {
        qs.push(format!("K{i} min0"));
        qs.push(format!("!K{i} decided0"));
    }
    qs
}

fn session(n: usize, f: usize, mode: &str, minimize: bool) -> Session {
    Engine::for_scenario(format!("agreement:n={n},f={f},mode={mode}"))
        .minimize(minimize)
        .build()
        .expect("in-envelope agreement spec builds")
}

/// Builds naive and reduced frames for (n, f) and pins verdict parity
/// for every query at every comparable world.
fn assert_parity(n: usize, f: usize, minimize: bool) {
    let spec = AgreementSpec { n, f };
    let naive = session(n, f, "naive", minimize);
    let reduced = session(n, f, "reduced", minimize);
    let nsys = naive.interpreted().expect("run-structured frame");
    let rsys = reduced.interpreted().expect("run-structured frame");
    assert!(
        rsys.system().num_runs() < nsys.system().num_runs(),
        "reduction must shrink the run set (n={n}, f={f})"
    );

    let patterns = crash_patterns(spec);
    let mut shared_worlds = 0usize;
    for (src, check_mapped) in symmetric_queries(n)
        .into_iter()
        .map(|q| (q, true))
        .chain(per_agent_queries(n).into_iter().map(|q| (q, false)))
    {
        let q = Query::parse(&src).unwrap();
        let nv = naive.ask(&q).unwrap();
        let rv = reduced.ask(&q).unwrap();
        for pattern in &patterns {
            let perm = canonicalizing_permutation(pattern, n);
            let canon = canonicalize_pattern(pattern, n);
            for inputs in 0..(1u64 << n) {
                let name = pattern_run_name(n, inputs, pattern);
                let nrun = nsys.system().run_by_name(&name).unwrap();
                let horizon = nsys.system().run(nrun).horizon();
                // Shared worlds: the run survives under its own name.
                if let Some(rrun) = rsys.system().run_by_name(&name) {
                    for t in 0..=horizon {
                        shared_worlds += 1;
                        assert_eq!(
                            nv.holds_at(nsys.world(nrun, t)),
                            rv.holds_at(rsys.world(rrun, t)),
                            "`{src}` diverges at shared world {name}@{t} \
                             (n={n}, f={f}, minimize={minimize})"
                        );
                    }
                }
                // Orbit-mapped worlds: every naive run, through the
                // canonicalizing renaming of pattern and inputs.
                if check_mapped {
                    let mut mapped_inputs = 0u64;
                    for (i, &pi) in perm.iter().enumerate() {
                        if inputs & (1 << i) != 0 {
                            mapped_inputs |= 1 << pi;
                        }
                    }
                    let mapped = pattern_run_name(n, mapped_inputs, &canon);
                    let rrun = rsys.system().run_by_name(&mapped).unwrap();
                    for t in 0..=horizon {
                        assert_eq!(
                            nv.holds_at(nsys.world(nrun, t)),
                            rv.holds_at(rsys.world(rrun, t)),
                            "symmetric `{src}` diverges across the orbit map \
                             {name} -> {mapped} at t={t} (n={n}, f={f})"
                        );
                    }
                }
            }
        }
    }
    assert!(shared_worlds > 0, "canonical runs must be shared");
}

#[test]
fn parity_n3_f1() {
    assert_parity(3, 1, false);
}

#[test]
fn parity_n3_f2() {
    assert_parity(3, 2, false);
}

#[test]
fn parity_n4_f1() {
    assert_parity(4, 1, false);
}

/// ~57k naive runs: feasible but slow unminimized in debug builds, so
/// tier-1 skips it; ci.sh runs it in release mode.
#[test]
#[ignore = "heavy: run with --release via ci.sh"]
fn parity_n4_f2() {
    assert_parity(4, 2, false);
}

/// Minimisation folds bisimilar worlds *after* the frame is built; the
/// quotient must not disturb parity on either side.
#[test]
fn parity_under_minimize() {
    assert_parity(3, 1, true);
}

/// The minimized (3,2) quotient is large enough to be slow in debug
/// builds; ci.sh runs it in release mode.
#[test]
#[ignore = "heavy: run with --release via ci.sh"]
fn parity_under_minimize_f2() {
    assert_parity(3, 2, true);
}

/// Reduced run counts, pinned: a change means the canonicalisation (or
/// the protocol enumeration underneath) changed shape.
#[test]
fn reduced_run_counts_are_pinned() {
    for (n, f, naive, reduced) in [(3, 1, 200, 56), (3, 2, 3752, 704), (4, 1, 1040, 144)] {
        let r = session(n, f, "reduced", false);
        let nv = session(n, f, "naive", false);
        assert_eq!(
            nv.interpreted().unwrap().system().num_runs(),
            naive,
            "naive run count (n={n}, f={f})"
        );
        assert_eq!(
            r.interpreted().unwrap().system().num_runs(),
            reduced,
            "reduced run count (n={n}, f={f})"
        );
    }
}

/// Nested knowledge of distinct named agents is *not* a symmetric
/// formula, and the stabilizer-canonical view is known to disturb it on
/// the reduced frame. This pin documents the scope of the guarantee: if
/// the mismatch ever disappears (or spreads to the symmetric suite),
/// the reduction's contract changed and the docs must move with it.
#[test]
fn nested_distinct_agent_knowledge_is_outside_the_guarantee() {
    let spec = AgreementSpec { n: 3, f: 1 };
    let naive = session(3, 1, "naive", false);
    let reduced = session(3, 1, "reduced", false);
    let nsys = naive.interpreted().unwrap();
    let rsys = reduced.interpreted().unwrap();
    let q = Query::parse("K0 K1 min0").unwrap();
    let nv = naive.ask(&q).unwrap();
    let rv = reduced.ask(&q).unwrap();
    let mut mismatches = 0usize;
    for pattern in &crash_patterns(spec) {
        for inputs in 0..(1u64 << 3) {
            let name = pattern_run_name(3, inputs, pattern);
            let (Some(nrun), Some(rrun)) = (
                nsys.system().run_by_name(&name),
                rsys.system().run_by_name(&name),
            ) else {
                continue;
            };
            for t in 0..=nsys.system().run(nrun).horizon() {
                if nv.holds_at(nsys.world(nrun, t)) != rv.holds_at(rsys.world(rrun, t)) {
                    mismatches += 1;
                }
            }
        }
    }
    assert!(
        mismatches > 0,
        "K0 K1 parity unexpectedly holds — widen the differential suite \
         and update the SymmetricHistory docs if the guarantee grew"
    );
}

/// The spec grammar accepts the new envelope and rejects what is out of
/// it with typed errors, in both modes.
#[test]
fn spec_envelope_errors() {
    // f above the implemented range: descriptor-level rejection.
    let err = Engine::for_scenario("agreement:f=4").build().unwrap_err();
    assert!(
        matches!(err, EngineError::Spec(SpecError::OutOfRange { .. })),
        "{err}"
    );
    // Jointly invalid though individually in range.
    for spec in ["agreement:n=3,f=3", "agreement:n=5,f=3,mode=reduced"] {
        let err = Engine::for_scenario(spec).build().unwrap_err();
        assert!(
            matches!(err, EngineError::Spec(SpecError::Constraint { .. })),
            "{spec}: {err}"
        );
    }
    // Unknown mode value.
    let err = Engine::for_scenario("agreement:mode=fast")
        .build()
        .unwrap_err();
    assert!(matches!(err, EngineError::Spec(_)), "{err}");
}

/// The f=3 headline: the reduced frame builds through the public
/// pipeline and common knowledge of the decision arrives exactly at
/// round f+1 = 4 (time f+2 = 5 on the world clock, one tick after the
/// decision is recorded). Heavy in debug builds; ci.sh runs it in
/// release mode.
#[test]
#[ignore = "heavy: run with --release via ci.sh"]
fn f3_ck_onset_lands_at_round_f_plus_1() {
    let session = session(4, 3, "auto", false);
    let isys = session.interpreted().unwrap();
    let onset = hm_core::agreement::ck_onset_in_clean_run(isys, 0b0110).expect("clean run present");
    assert_eq!(onset, Some(5), "CK onset = round f+1 for f=3");
}
