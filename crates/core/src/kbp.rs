//! Knowledge-based protocols (Section 14, after Halpern–Fagin \[HF85\]).
//!
//! A *knowledge-based protocol* prescribes actions as a function of the
//! agent's **knowledge** rather than of its raw local state: "answer yes
//! iff you know whether you are muddy". Its semantics is circular on its
//! face — the knowledge is evaluated in the system generated by running
//! the very protocol — but for protocols whose actions are *public* and
//! synchronous the circle closes round by round: the knowledge tests of
//! round `q` are evaluated in the model restricted by the announcements
//! of rounds `< q`, and the round's action profile is then itself
//! publicly announced.
//!
//! [`KnowledgeProtocol`] implements this runner over a Kripke
//! [`Restriction`]; the muddy children (experiment E17) and the
//! sequential-answer variant of \[MDH86\] are instances.

use hm_kripke::{AgentId, KripkeModel, Restriction, WorldId, WorldSet};

/// One agent's action rule: a knowledge test evaluated against the
/// current restriction, returning the set of (surviving) worlds where the
/// agent's action bit is 1.
///
/// The returned set must be measurable in the agent's partition
/// (knowledge-based rules are by construction); the runner debug-asserts
/// this.
pub type KnowledgeRule = Box<dyn Fn(&Restriction<'_>, AgentId) -> WorldSet>;

/// How the agents take turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Turns {
    /// All agents act simultaneously each round (the father's repeated
    /// question).
    Simultaneous,
    /// One agent per round, in cyclic order starting from agent 0 — the
    /// \[MDH86\]-style variant, where the order of answers carries
    /// information.
    RoundRobin,
}

/// A public-action knowledge-based protocol over a Kripke model.
pub struct KnowledgeProtocol<'a> {
    model: &'a KripkeModel,
    rule: KnowledgeRule,
    turns: Turns,
}

/// The record of one run of a knowledge-based protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KbpTrace {
    /// `actions[q]` is the action profile of round `q+1`:
    /// `actions[q][i] = Some(bit)` if agent `i` acted this round.
    pub actions: Vec<Vec<Option<bool>>>,
    /// Worlds still considered possible after each round.
    pub surviving: Vec<usize>,
}

impl KbpTrace {
    /// The first round (1-based) in which some agent's action bit is 1.
    pub fn first_positive_round(&self) -> Option<usize> {
        self.actions
            .iter()
            .position(|round| round.contains(&Some(true)))
            .map(|q| q + 1)
    }

    /// Agents whose action bit is 1 in the given 1-based round.
    pub fn positive_agents(&self, round: usize) -> Vec<usize> {
        self.actions[round - 1]
            .iter()
            .enumerate()
            .filter_map(|(i, a)| (*a == Some(true)).then_some(i))
            .collect()
    }
}

impl<'a> KnowledgeProtocol<'a> {
    /// Creates a protocol from an action rule.
    pub fn new(model: &'a KripkeModel, turns: Turns, rule: KnowledgeRule) -> Self {
        KnowledgeProtocol { model, rule, turns }
    }

    /// Runs `rounds` rounds at the actual world `actual`, optionally
    /// announcing `initial` (the father's statement) first.
    ///
    /// Each round: the acting agents' rules are evaluated against the
    /// current restriction; their action bits at `actual` become public
    /// (worlds where an acting agent would have acted differently are
    /// eliminated).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is inconsistent with `actual`, or if a rule
    /// returns a set that splits one of the acting agent's
    /// indistinguishability classes (not a knowledge-based rule).
    pub fn run(&self, actual: WorldId, initial: Option<&WorldSet>, rounds: usize) -> KbpTrace {
        let mut r = Restriction::new(self.model);
        if let Some(init) = initial {
            r.announce(init).expect("initial announcement consistent");
            assert!(
                r.alive().contains(actual),
                "actual world contradicts the initial announcement"
            );
        }
        let n = self.model.num_agents();
        let mut trace = KbpTrace {
            actions: Vec::with_capacity(rounds),
            surviving: Vec::with_capacity(rounds),
        };
        for q in 0..rounds {
            let actors: Vec<usize> = match self.turns {
                Turns::Simultaneous => (0..n).collect(),
                Turns::RoundRobin => vec![q % n],
            };
            let mut profile = vec![None; n];
            let mut surviving = r.alive().clone();
            for &i in &actors {
                let agent = AgentId::new(i);
                let positive = (self.rule)(&r, agent);
                debug_assert!(
                    measurable(&r, agent, &positive),
                    "rule output splits agent {i}'s information set"
                );
                let bit = positive.contains(actual);
                profile[i] = Some(bit);
                if bit {
                    surviving.intersect_with(&positive);
                } else {
                    surviving.intersect_with(&positive.complement());
                }
            }
            trace.actions.push(profile);
            r.announce(&surviving).expect("actual world survives");
            trace.surviving.push(r.alive().count());
        }
        trace
    }
}

/// `true` iff `set` does not split any of agent `i`'s
/// indistinguishability classes *within the surviving worlds*.
fn measurable(r: &Restriction<'_>, i: AgentId, set: &WorldSet) -> bool {
    r.knowledge(i, set) == r.alive().intersection(set)
}

/// The muddy-children rule: "act (say yes) iff you know whether you are
/// muddy" — the knowledge test `K_i muddy_i ∨ K_i ¬muddy_i` of
/// experiment E1, now phrased as a knowledge-based protocol.
pub fn knows_own_state_rule(muddy_sets: Vec<WorldSet>) -> KnowledgeRule {
    Box::new(move |r: &Restriction<'_>, i: AgentId| {
        let muddy = &muddy_sets[i.index()];
        let knows_muddy = r.knowledge(i, muddy);
        let knows_clean = r.knowledge(i, &muddy.complement());
        knows_muddy.union(&knows_clean)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::puzzles::muddy::MuddyChildren;

    fn muddy_kbp(n: usize) -> (MuddyChildren, Vec<WorldSet>) {
        let p = MuddyChildren::new(n);
        let sets: Vec<WorldSet> = (0..n).map(|i| p.muddy_set(i)).collect();
        (p, sets)
    }

    #[test]
    fn kbp_reproduces_the_muddy_children_trace() {
        for n in 1..=4usize {
            let (p, sets) = muddy_kbp(n);
            let protocol =
                KnowledgeProtocol::new(p.model(), Turns::Simultaneous, knows_own_state_rule(sets));
            for mask in 1..(1u64 << n) {
                let k = mask.count_ones() as usize;
                let trace = protocol.run(p.world(mask), Some(&p.m_set()), n + 2);
                assert_eq!(trace.first_positive_round(), Some(k), "n={n} mask={mask:b}");
                let muddy: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
                assert_eq!(trace.positive_agents(k), muddy);
                // Cross-check against the direct E1 implementation.
                let direct = p.run_with_announcement(mask);
                assert_eq!(trace.first_positive_round(), direct.first_yes_round());
            }
        }
    }

    #[test]
    fn kbp_without_announcement_never_fires() {
        let (p, sets) = muddy_kbp(3);
        let protocol =
            KnowledgeProtocol::new(p.model(), Turns::Simultaneous, knows_own_state_rule(sets));
        for mask in 0..8u64 {
            let trace = protocol.run(p.world(mask), None, 6);
            assert_eq!(trace.first_positive_round(), None, "mask={mask:b}");
        }
    }

    #[test]
    fn sequential_answers_change_the_dynamics() {
        // \[MDH86\]-style: children answer one at a time. With children 0
        // and 1 muddy (n = 3), child 0 says "no"; child 1, having heard
        // it, now knows it is muddy (if it were clean, 0 would have seen
        // no mud and known). The "yes" comes strictly earlier in agent
        // count than in the simultaneous variant.
        let (p, sets) = muddy_kbp(3);
        let protocol =
            KnowledgeProtocol::new(p.model(), Turns::RoundRobin, knows_own_state_rule(sets));
        let trace = protocol.run(p.world(0b011), Some(&p.m_set()), 6);
        // Round 1: child 0 answers no. Round 2: child 1 answers yes.
        assert_eq!(trace.actions[0][0], Some(false));
        assert_eq!(trace.actions[1][1], Some(true));
        assert_eq!(trace.first_positive_round(), Some(2));
    }

    #[test]
    fn surviving_counts_shrink_monotonically() {
        let (p, sets) = muddy_kbp(4);
        let protocol =
            KnowledgeProtocol::new(p.model(), Turns::Simultaneous, knows_own_state_rule(sets));
        let trace = protocol.run(p.world(0b0111), Some(&p.m_set()), 6);
        for w in trace.surviving.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "contradicts")]
    fn inconsistent_actual_world_panics() {
        let (p, sets) = muddy_kbp(2);
        let protocol =
            KnowledgeProtocol::new(p.model(), Turns::Simultaneous, knows_own_state_rule(sets));
        // Announce m but put the actual world at "nobody muddy".
        protocol.run(p.world(0), Some(&p.m_set()), 2);
    }
}
