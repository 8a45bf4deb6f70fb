//! Experiments E15 (fact discovery/publication), E17 (knowledge-based
//! protocols), E18 (simultaneous agreement) — cross-crate checks beyond
//! the module tests.

use halpern_moses::core::agreement::{
    agreement_builder, agreement_system, check_safety, ck_onset_in_clean_run, decision_of,
    AgreementSpec, Reduction,
};
use halpern_moses::core::discovery::{
    deadlock_system, discovery_trajectory, has_deadlock, publication_stamp,
};
use halpern_moses::core::kbp::{knows_own_state_rule, KnowledgeProtocol, Turns};
use halpern_moses::core::puzzles::muddy::MuddyChildren;
use halpern_moses::kripke::{AgentGroup, AgentId, WorldSet};
use halpern_moses::limits::Budget;
use halpern_moses::logic::{evaluate, Formula};

#[test]
fn e15_every_cyclic_graph_is_discovered_no_acyclic_one_is() {
    let isys = deadlock_system(3, 12).unwrap();
    let mut cyclic = 0;
    let mut acyclic = 0;
    for (_, run) in isys.system().runs() {
        let targets: Vec<u64> = run.procs().map(|p| p.initial_state()).collect();
        let traj = discovery_trajectory(&isys, &targets).unwrap();
        if has_deadlock(&targets) {
            cyclic += 1;
            assert!(
                traj.s_onset.is_some(),
                "cyclic graph {targets:?} undiscovered"
            );
            assert!(
                traj.e_onset.is_some(),
                "cyclic graph {targets:?} unpublished"
            );
        } else {
            acyclic += 1;
            assert_eq!(traj.s_onset, None, "false positive on {targets:?}");
        }
    }
    assert!(cyclic >= 5, "expected several deadlocked graphs");
    assert!(acyclic >= 5, "expected several live graphs");
}

#[test]
fn e15_publication_reaches_ct_for_every_deadlock() {
    let isys = deadlock_system(3, 12).unwrap();
    for (_, run) in isys.system().runs() {
        let targets: Vec<u64> = run.procs().map(|p| p.initial_state()).collect();
        if has_deadlock(&targets) {
            let stamp = publication_stamp(&isys, &targets).unwrap();
            assert!(stamp.is_some(), "no C^T stamp for {targets:?}");
        }
    }
}

#[test]
fn e17_kbp_agrees_with_direct_simulation_for_all_masks() {
    for n in 2..=5usize {
        let p = MuddyChildren::new(n);
        let sets: Vec<WorldSet> = (0..n).map(|i| p.muddy_set(i)).collect();
        let protocol =
            KnowledgeProtocol::new(p.model(), Turns::Simultaneous, knows_own_state_rule(sets));
        for mask in 1..(1u64 << n) {
            let kbp = protocol.run(p.world(mask), Some(&p.m_set()), n + 2);
            let direct = p.run_with_announcement(mask);
            assert_eq!(
                kbp.first_positive_round(),
                direct.first_yes_round(),
                "n={n} mask={mask:b}"
            );
            for (q, round) in direct.answers.iter().enumerate() {
                let kbp_round: Vec<bool> =
                    kbp.actions[q].iter().map(|a| a.unwrap_or(false)).collect();
                assert_eq!(&kbp_round, round, "n={n} mask={mask:b} round={q}");
            }
        }
    }
}

#[test]
fn e17_round_robin_always_terminates_with_someone_knowing() {
    // Sequential answers: information accumulates with every reply, and
    // within 2n rounds someone can always prove their state.
    let n = 4;
    let p = MuddyChildren::new(n);
    let sets: Vec<WorldSet> = (0..n).map(|i| p.muddy_set(i)).collect();
    let protocol = KnowledgeProtocol::new(p.model(), Turns::RoundRobin, knows_own_state_rule(sets));
    for mask in 1..(1u64 << n) {
        let trace = protocol.run(p.world(mask), Some(&p.m_set()), 2 * n);
        assert!(
            trace.first_positive_round().is_some(),
            "mask={mask:b} nobody ever knew"
        );
    }
}

#[test]
fn e18_safety_and_ck_shape() {
    let spec = AgreementSpec { n: 3, f: 1 };
    let system = agreement_system(spec, Reduction::Naive, &Budget::unlimited()).unwrap();
    let report = check_safety(&system);
    assert_eq!(report.agreement_violations, 0);
    assert_eq!(report.validity_violations, 0);
    assert_eq!(report.runs, 200);
    // CK of the decision value at the end of round f+1 in every clean
    // run with a zero input.
    let isys = agreement_builder(spec, Reduction::Naive, &Budget::unlimited())
        .unwrap()
        .build();
    for inputs in 0..8u64 {
        if inputs == 0b111 {
            continue; // min is 1; the `min0` fact is false
        }
        let onset = ck_onset_in_clean_run(&isys, inputs).unwrap();
        assert_eq!(onset, Some(3), "inputs={inputs:03b}");
    }
}

#[test]
fn e18_nonfaulty_decisions_match_in_every_run() {
    let system = agreement_system(
        AgreementSpec { n: 3, f: 1 },
        Reduction::Naive,
        &Budget::unlimited(),
    )
    .unwrap();
    for (_, run) in system.runs() {
        let decisions: Vec<u64> = (0..3)
            .filter_map(|i| decision_of(run, AgentId::new(i)))
            .collect();
        assert!(decisions.len() >= 2, "{}: at most one crash", run.name());
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "{}", run.name());
    }
}

#[test]
fn e18_no_ck_before_decision_round_anywhere() {
    let isys = agreement_builder(
        AgreementSpec { n: 3, f: 1 },
        Reduction::Naive,
        &Budget::unlimited(),
    )
    .unwrap()
    .build();
    let g = AgentGroup::all(3);
    let ck = evaluate(&isys, &Formula::common(g, Formula::atom("min0"))).unwrap();
    for (rid, run) in isys.system().runs() {
        for t in 0..=2u64 {
            assert!(
                !ck.contains(isys.world(rid, t)),
                "{} t={t}: CK before the end of round f+1",
                run.name()
            );
        }
    }
}
