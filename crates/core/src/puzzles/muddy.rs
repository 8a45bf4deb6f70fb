//! The muddy children puzzle (Section 2).
//!
//! `n` children, `k` of them muddy; each sees every forehead but its own.
//! The father may announce `m` = "at least one of you is muddy", then
//! repeatedly asks "can any of you prove you have mud on your head?", all
//! children answering simultaneously and truthfully.
//!
//! The paper's claims, reproduced by experiment E1:
//!
//! - With the announcement, the first `k−1` questions are answered "no"
//!   and at question `k` exactly the muddy children answer "yes".
//! - Without the announcement, every question is answered "no", forever —
//!   even though for `k > 1` every child already *knows* `m`.
//! - Before the father speaks, `E^{k−1} m` holds but `E^k m` does not
//!   (Section 3); after he speaks, `C m` holds.

use hm_kripke::{
    AgentGroup, AgentId, AtomId, KripkeModel, ModelBuilder, Restriction, WorldId, WorldSet,
};

/// The muddy-children Kripke model: worlds are muddiness bit-vectors
/// (world `w` has child `i` muddy iff bit `i` of `w` is set); child `i`'s
/// view is every bit except its own.
///
/// # Examples
///
/// ```
/// use hm_core::puzzles::muddy::MuddyChildren;
/// let p = MuddyChildren::new(3);
/// let trace = p.run_with_announcement(0b101); // children 0 and 2 muddy
/// assert_eq!(trace.first_yes_round(), Some(2));
/// assert_eq!(trace.yes_children(2), vec![0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct MuddyChildren {
    n: usize,
    model: KripkeModel,
    m_atom: AtomId,
    muddy_atoms: Vec<AtomId>,
}

/// What happened in the rounds of one instance of the puzzle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The actual world (muddiness mask).
    pub actual: u64,
    /// `answers[q][i]`: child `i`'s answer to question `q+1` ("yes" =
    /// child can prove whether it is muddy).
    pub answers: Vec<Vec<bool>>,
}

impl Trace {
    /// The first round (1-based) in which some child answers "yes", if
    /// any.
    pub fn first_yes_round(&self) -> Option<usize> {
        self.answers
            .iter()
            .position(|round| round.iter().any(|&a| a))
            .map(|q| q + 1)
    }

    /// The children answering "yes" in the given 1-based round.
    ///
    /// # Panics
    ///
    /// Panics if the round was not recorded.
    pub fn yes_children(&self, round: usize) -> Vec<usize> {
        self.answers[round - 1]
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
            .collect()
    }
}

impl MuddyChildren {
    /// Builds the `n`-children model (`2^n` worlds).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 16` (world count `2^n` is deliberately
    /// capped; the experiments use `n ≤ 12`).
    pub fn new(n: usize) -> Self {
        assert!((1..=16).contains(&n), "n must be in 1..=16");
        let mut b = ModelBuilder::new(n);
        for w in 0..(1u64 << n) {
            b.add_world(format!("{w:0width$b}", width = n));
        }
        let m_atom = b.atom("m");
        for w in 1..(1u64 << n) {
            b.set_atom(m_atom, WorldId::new(w as usize), true);
        }
        let muddy_atoms: Vec<AtomId> = (0..n)
            .map(|i| {
                let a = b.atom(format!("muddy{i}"));
                for w in 0..(1u64 << n) {
                    if w & (1 << i) != 0 {
                        b.set_atom(a, WorldId::new(w as usize), true);
                    }
                }
                a
            })
            .collect();
        for i in 0..n {
            let mask = !(1u64 << i);
            b.set_partition_by_key(AgentId::new(i), move |w| (w.index() as u64) & mask);
        }
        MuddyChildren {
            n,
            model: b.build(),
            m_atom,
            muddy_atoms,
        }
    }

    /// Number of children.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The underlying Kripke model.
    pub fn model(&self) -> &KripkeModel {
        &self.model
    }

    /// The atom `m` ("at least one muddy forehead").
    pub fn m_set(&self) -> WorldSet {
        self.model.atom_set(self.m_atom)
    }

    /// The atom "child `i` is muddy".
    pub fn muddy_set(&self, i: usize) -> WorldSet {
        self.model.atom_set(self.muddy_atoms[i])
    }

    /// The world id for a muddiness mask.
    pub fn world(&self, mask: u64) -> WorldId {
        assert!(mask < (1u64 << self.n), "mask out of range");
        WorldId::new(mask as usize)
    }

    /// The set of worlds where child `i` can *prove* its own state: it
    /// knows it is muddy or knows it is clean (relative to `r`).
    fn can_answer(&self, r: &Restriction<'_>, i: usize) -> WorldSet {
        let muddy = self.muddy_set(i);
        let knows_muddy = r.knowledge(AgentId::new(i), &muddy);
        let knows_clean = r.knowledge(AgentId::new(i), &muddy.complement());
        knows_muddy.union(&knows_clean)
    }

    /// Runs the puzzle at `actual`, with the father's announcement of `m`
    /// first. Records `n + 2` rounds of questions.
    ///
    /// # Panics
    ///
    /// Panics if `actual` has no muddy child (the announcement would be
    /// false) — the paper assumes `k ≥ 1`.
    pub fn run_with_announcement(&self, actual: u64) -> Trace {
        assert!(actual != 0, "the father's announcement requires k >= 1");
        self.run_inner(actual, true, self.n + 2)
    }

    /// Runs the puzzle at `actual` **without** the initial announcement.
    pub fn run_without_announcement(&self, actual: u64) -> Trace {
        self.run_inner(actual, false, self.n + 2)
    }

    fn run_inner(&self, actual: u64, announce_m: bool, rounds: usize) -> Trace {
        assert!(actual < (1u64 << self.n), "actual out of range");
        let mut r = Restriction::new(&self.model);
        if announce_m {
            r.announce(&self.m_set()).expect("m holds somewhere");
        }
        let actual_w = self.world(actual);
        let mut answers = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            // All children answer simultaneously.
            let can: Vec<WorldSet> = (0..self.n).map(|i| self.can_answer(&r, i)).collect();
            answers.push((0..self.n).map(|i| can[i].contains(actual_w)).collect());
            // The answers become public: each child's yes/no eliminates
            // the worlds where that child would have answered otherwise.
            let mut surviving = r.alive().clone();
            for can_i in &can {
                let said_yes = can_i.contains(actual_w);
                if said_yes {
                    surviving.intersect_with(can_i);
                } else {
                    surviving.intersect_with(&can_i.complement());
                }
            }
            // The actual world always survives its own announcements.
            r.announce(&surviving).expect("actual world survives");
        }
        Trace { actual, answers }
    }

    /// The model after the father's announcement of `m` and
    /// `silent_rounds` unanimous-"no" rounds — the frame right before
    /// question `silent_rounds + 1`. After `j` unanimous "no"s the
    /// surviving worlds are exactly those with at least `j + 1` muddy
    /// children, so `silent_rounds = n - 1` leaves only the all-muddy
    /// world. Atoms (`m`, `muddy{i}`) carry over to the restriction.
    ///
    /// This is the frame the `hm-engine` registry serves for
    /// `muddy:n=…,dirty=k` (with `silent_rounds = k - 1`).
    ///
    /// # Panics
    ///
    /// Panics if `silent_rounds >= n` (the announcement sequence would
    /// be inconsistent: no world survives).
    pub fn announced_model(&self, silent_rounds: usize) -> KripkeModel {
        assert!(
            silent_rounds < self.n,
            "after {silent_rounds} unanimous-no rounds no world would survive"
        );
        let mut r = Restriction::new(&self.model);
        r.announce(&self.m_set()).expect("some world has mud");
        for _ in 0..silent_rounds {
            let mut surviving = r.alive().clone();
            for i in 0..self.n {
                surviving.intersect_with(&self.can_answer(&r, i).complement());
            }
            r.announce(&surviving).expect("a deeper-mud world survives");
        }
        r.to_model().0
    }

    /// The group of all children.
    pub fn group(&self) -> AgentGroup {
        AgentGroup::all(self.n)
    }

    /// Largest `j` such that `E^j m` holds at `actual` before any
    /// announcement (0 if even `E m` fails); capped at `cap`.
    pub fn e_level_before_announcement(&self, actual: u64, cap: usize) -> usize {
        let g = self.group();
        let mut cur = self.m_set();
        for j in 0..cap {
            cur = self.model.everyone_set(&g, &cur);
            if !cur.contains(self.world(actual)) {
                return j;
            }
        }
        cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_claim_with_announcement_all_k() {
        // For n ≤ 5 and every non-empty muddiness mask: first "yes" at
        // round k = popcount(mask), by exactly the muddy children.
        for n in 1..=5usize {
            let p = MuddyChildren::new(n);
            for mask in 1..(1u64 << n) {
                let k = mask.count_ones() as usize;
                let t = p.run_with_announcement(mask);
                assert_eq!(t.first_yes_round(), Some(k), "n={n} mask={mask:b}");
                let muddy: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
                assert_eq!(t.yes_children(k), muddy, "n={n} mask={mask:b}");
                // Earlier rounds: unanimous "no".
                for q in 1..k {
                    assert!(t.answers[q - 1].iter().all(|&a| !a));
                }
            }
        }
    }

    #[test]
    fn paper_claim_without_announcement_nobody_ever_knows() {
        for n in 2..=5usize {
            let p = MuddyChildren::new(n);
            for mask in 0..(1u64 << n) {
                let t = p.run_without_announcement(mask);
                assert_eq!(t.first_yes_round(), None, "n={n} mask={mask:b}");
            }
        }
    }

    #[test]
    fn n1_without_announcement_child_cannot_know() {
        // Even alone, without the announcement the single muddy child sees
        // nobody muddy and cannot conclude anything.
        let p = MuddyChildren::new(1);
        let t = p.run_without_announcement(0b1);
        assert_eq!(t.first_yes_round(), None);
    }

    #[test]
    fn clean_children_learn_one_round_later() {
        // n=3, two muddy: muddy pair answers yes at round 2, the clean
        // child at round 3.
        let p = MuddyChildren::new(3);
        let t = p.run_with_announcement(0b011);
        assert_eq!(t.yes_children(2), vec![0, 1]);
        assert_eq!(t.yes_children(3), vec![0, 1, 2]);
    }

    #[test]
    fn e_levels_before_announcement() {
        // Section 3: with k muddy children, E^{k−1} m holds and E^k m
        // fails (before the announcement).
        let p = MuddyChildren::new(4);
        for mask in 1..(1u64 << 4) {
            let k = mask.count_ones() as usize;
            assert_eq!(
                p.e_level_before_announcement(mask, 6),
                k - 1,
                "mask={mask:b}"
            );
        }
    }

    #[test]
    fn announcement_makes_m_common_knowledge() {
        let p = MuddyChildren::new(3);
        let mut r = Restriction::new(p.model());
        r.announce(&p.m_set()).unwrap();
        let (after, _) = r.to_model();
        let m_after = after.atom_set(after.atom_id("m").unwrap());
        let c = after.common_knowledge(&p.group(), &m_after);
        assert!(c.is_full(), "C m holds at every surviving world");
        // Before: C m holds nowhere.
        let c0 = p.model().common_knowledge(&p.group(), &p.m_set());
        assert!(c0.is_empty());
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn announcement_with_no_muddy_child_panics() {
        MuddyChildren::new(2).run_with_announcement(0);
    }
}
