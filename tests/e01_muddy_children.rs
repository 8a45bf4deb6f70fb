//! Experiment E1: the muddy children puzzle (paper Section 2).
//!
//! Paper claims, checked exhaustively for n up to 7 (128 initial
//! situations at the top size):
//! 1. With the father's announcement and k muddy children, the first
//!    k−1 questions are answered "no" by everyone, and at question k
//!    exactly the muddy children answer "yes".
//! 2. Without the announcement, every question is answered "no" forever.
//! 3. Before the announcement E^{k−1} m holds and E^k m does not.
//! 4. After the announcement m is common knowledge.

use halpern_moses::core::puzzles::muddy::MuddyChildren;
use halpern_moses::kripke::Restriction;

#[test]
fn full_claim_up_to_seven_children() {
    for n in 1..=7usize {
        let p = MuddyChildren::new(n);
        for mask in 1..(1u64 << n) {
            let k = mask.count_ones() as usize;
            let t = p.run_with_announcement(mask);
            assert_eq!(t.first_yes_round(), Some(k), "n={n} mask={mask:b}");
            let muddy: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            assert_eq!(t.yes_children(k), muddy, "n={n} mask={mask:b}");
            for q in 1..k {
                assert!(
                    t.answers[q - 1].iter().all(|&a| !a),
                    "n={n} mask={mask:b} round {q} should be all-no"
                );
            }
        }
    }
}

#[test]
fn silence_without_announcement_up_to_six() {
    for n in 1..=6usize {
        let p = MuddyChildren::new(n);
        for mask in 0..(1u64 << n) {
            assert_eq!(
                p.run_without_announcement(mask).first_yes_round(),
                None,
                "n={n} mask={mask:b}"
            );
        }
    }
}

#[test]
fn e_levels_match_popcount_minus_one() {
    for n in 2..=6usize {
        let p = MuddyChildren::new(n);
        for mask in 1..(1u64 << n) {
            let k = mask.count_ones() as usize;
            assert_eq!(
                p.e_level_before_announcement(mask, n + 2),
                k - 1,
                "n={n} mask={mask:b}"
            );
        }
    }
}

#[test]
fn announcement_produces_common_knowledge_of_m() {
    for n in 2..=6usize {
        let p = MuddyChildren::new(n);
        // Before: C m nowhere (the k=1 worlds chain everything to 0).
        assert!(p
            .model()
            .common_knowledge(&p.group(), &p.m_set())
            .is_empty());
        // After: C m everywhere surviving.
        let mut r = Restriction::new(p.model());
        r.announce(&p.m_set()).unwrap();
        let (after, _) = r.to_model();
        assert_eq!(after.num_worlds(), r.alive().count());
        let m_after = after.atom_set(after.atom_id("m").unwrap());
        assert!(after.common_knowledge(&p.group(), &m_after).is_full());
    }
}

#[test]
fn clean_children_learn_at_round_k_plus_one() {
    // After the muddy children say yes at round k, the clean ones can
    // infer their own state at round k+1.
    for n in 2..=5usize {
        let p = MuddyChildren::new(n);
        for mask in 1..(1u64 << n) {
            let k = mask.count_ones() as usize;
            if k == n {
                continue; // nobody clean
            }
            let t = p.run_with_announcement(mask);
            let all: Vec<usize> = (0..n).collect();
            assert_eq!(t.yes_children(k + 1), all, "n={n} mask={mask:b}");
        }
    }
}
