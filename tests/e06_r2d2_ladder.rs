//! Experiments E6–E7: the R2–D2 ε-ladder and temporal imprecision
//! (paper Section 8, Appendix B).

use halpern_moses::core::attain::{
    check_ck_run_constant, ck_set, initial_point_reachable_everywhere, uncertain_start_builder,
};
use halpern_moses::core::puzzles::r2d2::{
    ck_sent, first_time, ladder_onsets, r2d2_parts, rd_ladder,
};
use halpern_moses::kripke::AgentGroup;
use halpern_moses::logic::{evaluate, EvalCache, Formula};
use halpern_moses::netsim::scenarios::R2d2Mode;
use halpern_moses::runs::conditions;

fn g2() -> AgentGroup {
    AgentGroup::all(2)
}

#[test]
fn e6_ladder_increments_are_exactly_eps() {
    for eps in [1u64, 2, 4] {
        let (builder, meta) = r2d2_parts(eps, 5, 5, R2d2Mode::Uncertain);
        let isys = builder.build();
        let onsets = ladder_onsets(&isys, &meta, 4, &mut EvalCache::new()).unwrap();
        for k in 2..=4usize {
            let prev = onsets[k - 1].unwrap();
            let cur = onsets[k].unwrap();
            assert_eq!(cur - prev, eps, "eps={eps} k={k}");
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)] // k is the ladder level, not an index
fn e6_ladder_not_earlier() {
    // (K_R K_D)^k sent must FAIL at every time before its onset.
    let (builder, meta) = r2d2_parts(2, 4, 4, R2d2Mode::Uncertain);
    let isys = builder.build();
    let onsets = ladder_onsets(&isys, &meta, 3, &mut EvalCache::new()).unwrap();
    for k in 1..=3usize {
        let f = rd_ladder(k, Formula::atom("sent"));
        let set = evaluate(&isys, &f).unwrap();
        let onset = onsets[k].unwrap();
        for t in 0..onset {
            assert!(!set.contains(isys.world(meta.focus_slow, t)), "k={k} t={t}");
        }
    }
}

#[test]
fn e6_ck_unattainable_in_window_for_all_eps() {
    for eps in [1u64, 3] {
        let (pre, post) = (4usize, 4usize);
        let isys = r2d2_parts(eps, pre, post, R2d2Mode::Uncertain).0.build();
        let ck = ck_sent(&isys, &mut EvalCache::new()).unwrap();
        let last_send = (pre + post) as u64 * eps;
        for (rid, _) in isys.system().runs() {
            for t in 0..last_send {
                assert!(!ck.contains(isys.world(rid, t)), "eps={eps} {rid} t={t}");
            }
        }
    }
}

#[test]
fn e6_certainty_restores_ck() {
    // Exact delay and timestamped message both attain CK at t_S + ε (+1).
    for (mode, atom) in [
        (R2d2Mode::Exact, "sent"),
        (R2d2Mode::Timestamped, "sent_focus"),
    ] {
        let (builder, meta) = r2d2_parts(2, 3, 3, mode);
        let isys = builder.build();
        let f = Formula::common(g2(), Formula::atom(atom));
        let onset = first_time(&isys, meta.focus_slow, &f, &mut EvalCache::new()).unwrap();
        assert_eq!(onset, Some(meta.ts + meta.eps + 1), "{mode:?}");
    }
}

#[test]
fn e7_uncertainty_freezes_ck() {
    let isys = uncertain_start_builder(6, false).unwrap().build();
    let fact = Formula::atom("sent");
    // Lemma 14's conclusion for every run.
    for (rid, _) in isys.system().runs() {
        assert!(initial_point_reachable_everywhere(&isys, &g2(), rid));
    }
    // Theorem 8's conclusion.
    assert!(check_ck_run_constant(&isys, &g2(), &fact)
        .unwrap()
        .is_empty());
    assert!(ck_set(&isys, &g2(), &fact).unwrap().is_empty());
}

#[test]
fn e7_global_clock_breaks_imprecision_and_gains_ck() {
    let isys = uncertain_start_builder(8, true).unwrap().build();
    assert!(
        conditions::check_temporal_imprecision(isys.system()).is_some(),
        "a global clock admits no shift witnesses"
    );
    let f = Formula::common(g2(), Formula::atom("five_oclock"));
    let ck = evaluate(&isys, &f).unwrap();
    assert!(!ck.is_empty(), "it is commonly known that it is 5 o'clock");
}

#[test]
fn e7_shift_witnesses_in_clockless_family() {
    // The clockless uncertain-start family has shift witnesses for many
    // (run, t) pairs — the discrete trace of Proposition 15.
    let isys = uncertain_start_builder(5, false).unwrap().build();
    let sys = isys.system();
    let mut found = 0usize;
    for (_, run) in sys.runs() {
        for t in 1..=run.horizon() {
            for (i, j) in [(0usize, 1usize), (1, 0)] {
                if conditions::shift_witness(sys, run, t, hm_kripke_agent(i), hm_kripke_agent(j))
                    .is_some()
                {
                    found += 1;
                }
            }
        }
    }
    assert!(found >= 40, "expected many shift witnesses, found {found}");
}

fn hm_kripke_agent(i: usize) -> halpern_moses::kripke::AgentId {
    halpern_moses::kripke::AgentId::new(i)
}
