//! Internal knowledge consistency (Section 13).
//!
//! An *epistemic interpretation* assigns each processor a set of believed
//! facts as a function of its history; it is a *knowledge* interpretation
//! when beliefs are always true. Section 13 observes that an
//! interpretation that is **not** knowledge-consistent may still be
//! *internally* knowledge consistent: there is a subsystem `R′ ⊆ R` on
//! which it is a knowledge interpretation, and every history occurring in
//! `R` also occurs in `R′` — so no processor can ever observe evidence
//! against the pretence.
//!
//! This module represents single-fact belief assignments as world sets and
//! decides the three properties: history-measurability, knowledge
//! consistency, and internal knowledge consistency (by subsystem search
//! or against a provided subsystem).

use hm_kripke::{AgentId, WorldSet};
use hm_logic::Frame;
use hm_runs::{InterpretedSystem, RunId};

/// A point predicate over `(run, t)` used to express one agent's beliefs.
pub type BeliefPred = Box<dyn Fn(hm_runs::Run<'_>, u64) -> bool>;

/// A belief assignment for one fact: for each agent, the set of points at
/// which the agent believes the fact.
#[derive(Debug, Clone)]
pub struct BeliefAssignment {
    /// `believes[i]` is the set of points where agent `i` believes.
    pub believes: Vec<WorldSet>,
}

impl BeliefAssignment {
    /// Builds an assignment from per-agent predicates over `(run, t)`.
    pub fn from_predicates(isys: &InterpretedSystem, preds: &[BeliefPred]) -> Self {
        let mut believes = Vec::with_capacity(preds.len());
        for pred in preds {
            let mut set = WorldSet::empty(isys.model().num_worlds());
            for (rid, run) in isys.system().runs() {
                for t in 0..=run.horizon() {
                    if pred(run, t) {
                        set.insert(isys.world(rid, t));
                    }
                }
            }
            believes.push(set);
        }
        BeliefAssignment { believes }
    }
}

/// `true` iff agent `i`'s belief set is a function of its history: it
/// never splits an indistinguishability class (required of any epistemic
/// interpretation).
pub fn history_measurable(isys: &InterpretedSystem, i: AgentId, believes: &WorldSet) -> bool {
    let part = isys.model().partition(i);
    part.blocks().all(|block| {
        let mut it = block
            .iter()
            .map(|&w| believes.contains(hm_kripke::WorldId::new(w as usize)));
        match it.next() {
            None => true,
            Some(first) => it.all(|b| b == first),
        }
    })
}

/// `true` iff the assignment is *knowledge consistent* on the whole
/// system: wherever an agent believes the fact, the fact holds.
pub fn knowledge_consistent(beliefs: &BeliefAssignment, fact: &WorldSet) -> bool {
    beliefs.believes.iter().all(|b| b.is_subset(fact))
}

/// Outcome of an internal-knowledge-consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IkcOutcome {
    /// Internally consistent, witnessed by this subsystem (set of runs).
    Consistent(Vec<RunId>),
    /// Not internally consistent: no subsystem works.
    Inconsistent,
}

/// Checks internal knowledge consistency *against a candidate subsystem*
/// `sub`: (1) restricted to `sub`'s points, every belief is true; (2)
/// every agent view occurring anywhere in the system also occurs at some
/// point of `sub`.
pub fn internally_consistent_with(
    isys: &InterpretedSystem,
    beliefs: &BeliefAssignment,
    fact: &WorldSet,
    sub: &[RunId],
) -> bool {
    let mut sub_points = WorldSet::empty(isys.model().num_worlds());
    for &rid in sub {
        sub_points.union_with(&isys.run_points(rid));
    }
    // (1) Beliefs true on the subsystem.
    for b in &beliefs.believes {
        if !b.intersection(&sub_points).is_subset(fact) {
            return false;
        }
    }
    // (2) View coverage: every block of every agent partition meets sub.
    for i in 0..isys.model().num_agents() {
        let part = isys.model().partition(AgentId::new(i));
        for block in part.blocks() {
            let covered = block
                .iter()
                .any(|&w| sub_points.contains(hm_kripke::WorldId::new(w as usize)));
            if !covered {
                return false;
            }
        }
    }
    true
}

/// Searches all subsystems (subsets of runs, smallest first by cardinality
/// order of the bitmask) for an internal-consistency witness. Exponential
/// in the number of runs — intended for the small systems of the
/// experiments.
pub fn find_internally_consistent_subsystem(
    isys: &InterpretedSystem,
    beliefs: &BeliefAssignment,
    fact: &WorldSet,
) -> IkcOutcome {
    let n = isys.system().num_runs();
    assert!(n <= 20, "subsystem search is exponential; keep runs ≤ 20");
    for mask in 1u32..(1u32 << n) {
        let sub: Vec<RunId> = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(RunId::from)
            .collect();
        if internally_consistent_with(isys, beliefs, fact, &sub) {
            return IkcOutcome::Consistent(sub);
        }
    }
    IkcOutcome::Inconsistent
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_runs::{CompleteHistory, Event, Message, RunBuilder, SystemBuilder};

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    /// The eager R2–D2 interpretation of Section 8: the message takes 0
    /// or 1 ticks; R2 comes to believe "we are both aware of m" as soon
    /// as it has sent, D2 as soon as it has received. The send time
    /// varies across runs (the last slot has no slow variant so every
    /// receive time D2 can observe also occurs in some instant-delivery
    /// run — no wrap-around at the family's edge).
    fn eager_setup() -> (InterpretedSystem, BeliefAssignment, WorldSet) {
        let msg = Message::tagged(1);
        let horizon = 6;
        let mut runs = SystemBuilder::new();
        fn base(runs: &mut SystemBuilder, name: String, horizon: u64) -> RunBuilder<'_> {
            runs.run(name, 2, horizon)
                .wake(a(0), 0, 0)
                .wake(a(1), 0, 0)
                .perfect_clock(a(0), 0)
                .perfect_clock(a(1), 0)
        }
        for send_at in 0..=3u64 {
            base(&mut runs, format!("fast{send_at}"), horizon)
                .event(a(0), send_at, Event::Send { to: a(1), msg })
                .event(a(1), send_at, Event::Recv { from: a(0), msg })
                .finish();
            if send_at < 3 {
                base(&mut runs, format!("slow{send_at}"), horizon)
                    .event(a(0), send_at, Event::Send { to: a(1), msg })
                    .event(a(1), send_at + 1, Event::Recv { from: a(0), msg })
                    .finish();
            }
        }
        let isys = InterpretedSystem::builder(runs.build(), CompleteHistory)
            .fact("both_aware", |run, t| {
                // Both processors have the message event in their
                // *history* (events strictly before t).
                run.proc(a(0)).events_before(t).count() > 0
                    && run.proc(a(1)).events_before(t).count() > 0
            })
            .build();
        let fact = hm_logic::Frame::atom_set(&isys, "both_aware").unwrap();
        let beliefs = BeliefAssignment::from_predicates(
            &isys,
            &[
                // R2 believes once its send is in its history.
                Box::new(|run: hm_runs::Run<'_>, t: u64| {
                    run.proc(a(0)).events_before(t).count() > 0
                }),
                // D2 believes once its receive is in its history.
                Box::new(|run: hm_runs::Run<'_>, t: u64| {
                    run.proc(a(1)).events_before(t).count() > 0
                }),
            ],
        );
        (isys, beliefs, fact)
    }

    #[test]
    fn eager_beliefs_are_history_measurable() {
        let (isys, beliefs, _) = eager_setup();
        for (i, b) in beliefs.believes.iter().enumerate() {
            assert!(history_measurable(&isys, a(i), b), "agent {i}");
        }
    }

    #[test]
    fn eager_beliefs_are_not_knowledge_consistent() {
        // In the slow run at t=2, R2 believes (sent at 1) but D2 has not
        // yet observed the message, so the fact fails.
        let (_isys, beliefs, fact) = eager_setup();
        assert!(!knowledge_consistent(&beliefs, &fact));
    }

    #[test]
    fn eager_beliefs_are_internally_consistent_via_fast_subsystem() {
        let (isys, beliefs, fact) = eager_setup();
        // Candidate subsystem R′: the instant-delivery runs.
        let fasts: Vec<RunId> = (0..=3)
            .map(|j| isys.system().run_by_name(&format!("fast{j}")).unwrap())
            .collect();
        assert!(internally_consistent_with(&isys, &beliefs, &fact, &fasts));
        // And the subsystem search finds some witness.
        match find_internally_consistent_subsystem(&isys, &beliefs, &fact) {
            IkcOutcome::Consistent(sub) => assert!(!sub.is_empty()),
            IkcOutcome::Inconsistent => panic!("expected consistency"),
        }
    }

    #[test]
    fn slow_subsystem_alone_fails_coverage_or_truth() {
        let (isys, beliefs, fact) = eager_setup();
        let slows: Vec<RunId> = (0..3)
            .map(|j| isys.system().run_by_name(&format!("slow{j}")).unwrap())
            .collect();
        assert!(!internally_consistent_with(&isys, &beliefs, &fact, &slows));
    }

    #[test]
    fn non_measurable_beliefs_detected() {
        let (isys, _, _) = eager_setup();
        // A belief set containing a single point of a larger class.
        let w = isys.world(RunId::from(0), 0);
        let single = WorldSet::singleton(isys.model().num_worlds(), w);
        // At t=0 both runs look identical to p0, so {that one point}
        // splits a class.
        assert!(!history_measurable(&isys, a(0), &single));
    }
}
