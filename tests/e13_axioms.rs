//! Experiment E13: the logic of knowledge (paper Section 6).
//!
//! Property-based verification over random S5 models of:
//! - Proposition 1: `K_i`, `D_G`, `C_G` have the S5 properties;
//! - the fixed-point axiom C1 and induction rule C2 for `C_G`;
//! - Lemma 2's tri-equivalence;
//! - Lemma 3 (via Lemma 2): points sharing a member's history agree on
//!   `C_G φ`.

use halpern_moses::kripke::{random_model, AgentGroup, AgentId, RandomModelSpec};
use halpern_moses::logic::axioms::{
    check_fixed_point_axiom, check_induction_rule, check_lemma2, check_s5, sample_sets, ModalOp,
};
use halpern_moses::logic::{evaluate, Frame};
use proptest::prelude::*;

fn spec_from(seed: u64) -> RandomModelSpec {
    RandomModelSpec {
        num_agents: 2 + (seed % 3) as usize,
        num_worlds: 3 + (seed % 29) as usize,
        num_atoms: 2,
        max_blocks: 1 + (seed % 6) as usize,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn proposition1_s5_for_k_d_c(seed in 0u64..100_000) {
        let m = random_model(seed, spec_from(seed));
        let suite = sample_sets(&m, &["q0", "q1"], 5, seed ^ 0x5EED);
        let g = AgentGroup::all(m.num_agents());
        for op in [
            ModalOp::Knows(AgentId::new(0)),
            ModalOp::Knows(AgentId::new(m.num_agents() - 1)),
            ModalOp::Distributed(g.clone()),
            ModalOp::Common(g),
        ] {
            let rep = check_s5(&m, &op, &suite);
            prop_assert!(rep.is_s5(), "{op:?}: {rep:?}");
        }
        // Subgroup common knowledge is S5 too.
        if m.num_agents() > 2 {
            let sub = AgentGroup::new([AgentId::new(0), AgentId::new(1)]);
            let rep = check_s5(&m, &ModalOp::Common(sub), &suite);
            prop_assert!(rep.is_s5());
        }
    }

    #[test]
    fn c1_c2_lemma2(seed in 0u64..100_000) {
        let m = random_model(seed, spec_from(seed.rotate_left(13)));
        let suite = sample_sets(&m, &["q0", "q1"], 6, seed ^ 0xF00D);
        let g = AgentGroup::all(m.num_agents());
        let c = ModalOp::Common(g.clone());
        prop_assert_eq!(check_fixed_point_axiom(&m, &c, &suite), None);
        prop_assert_eq!(check_induction_rule(&m, &c, &suite), None);
        prop_assert_eq!(check_lemma2(&m, &g, &suite), None);
    }

    #[test]
    fn lemma3_ck_constant_on_member_classes(seed in 0u64..100_000) {
        // If a member of G cannot distinguish two worlds, C_G φ agrees on
        // them (Lemma 3).
        let m = random_model(seed, spec_from(seed.rotate_left(29)));
        let g = AgentGroup::all(m.num_agents());
        let fact = Frame::atom_set(&m, "q0").unwrap();
        let ck = m.common_knowledge(&g, &fact);
        for i in g.iter() {
            let part = m.partition(i);
            for block in part.blocks() {
                let vals: Vec<bool> = block
                    .iter()
                    .map(|&w| ck.contains(hm_kripke::WorldId::new(w as usize)))
                    .collect();
                prop_assert!(
                    vals.windows(2).all(|p| p[0] == p[1]),
                    "agent {i} block disagrees on C"
                );
            }
        }
    }

    #[test]
    fn ck_two_characterisations_agree(seed in 0u64..100_000) {
        let m = random_model(seed, spec_from(seed.rotate_left(47)));
        let g = AgentGroup::all(m.num_agents());
        let fact = Frame::atom_set(&m, "q1").unwrap();
        prop_assert_eq!(
            m.common_knowledge(&g, &fact),
            m.common_knowledge_gfp(&g, &fact)
        );
    }

    #[test]
    fn knowledge_monotone_in_view_refinement(seed in 0u64..100_000) {
        // An agent with a finer partition knows at least as much: the
        // complete-history interpretation is the informative extreme
        // (Section 6).
        let m = random_model(seed, spec_from(seed.rotate_left(55)));
        let fact = Frame::atom_set(&m, "q0").unwrap();
        let coarse = m.partition(AgentId::new(0));
        let fine = coarse.meet(m.partition(AgentId::new(1 % m.num_agents())));
        prop_assert!(coarse.knowledge(&fact).is_subset(&fine.knowledge(&fact)));
    }
}

#[test]
fn simultaneity_corollary_of_lemma2() {
    // When C_G φ flips between consecutive points of a run, every member
    // of G's history must change (the paper's discussion after Lemma 2).
    use halpern_moses::core::attain::uncertain_start_builder;
    use halpern_moses::logic::Formula;
    use halpern_moses::runs::conditions::histories_equal;

    let isys = uncertain_start_builder(8, true).unwrap().build();
    let g = AgentGroup::all(2);
    let ck = evaluate(
        &isys,
        &Formula::common(g.clone(), Formula::atom("five_oclock")),
    )
    .unwrap();
    for (rid, run) in isys.system().runs() {
        for t in 1..=run.horizon() {
            let before = ck.contains(isys.world(rid, t - 1));
            let after = ck.contains(isys.world(rid, t));
            if before != after {
                for i in g.iter() {
                    assert!(
                        !histories_equal(run, run, i, t - 1) || {
                            // compare the two times within the same run
                            use halpern_moses::runs::complete_history_key;
                            complete_history_key(run.proc(i), t - 1)
                                != complete_history_key(run.proc(i), t)
                        },
                        "{rid} t={t}: CK flipped but {i}'s history did not change"
                    );
                }
            }
        }
    }
}
