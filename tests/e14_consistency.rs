//! Experiment E14: internal knowledge consistency (paper Section 13).
//!
//! The "eager" epistemic interpretation — acting as if common knowledge
//! held the moment the message is sent/received — is not knowledge
//! consistent, but it *is* internally knowledge consistent: the
//! instant-delivery subsystem makes all beliefs true and realises every
//! observable history.

use halpern_moses::core::consistency::{
    find_internally_consistent_subsystem, history_measurable, internally_consistent_with,
    knowledge_consistent, BeliefAssignment, IkcOutcome,
};
use halpern_moses::kripke::{AgentId, WorldSet};
use halpern_moses::logic::Frame;
use halpern_moses::runs::{
    CompleteHistory, Event, InterpretedSystem, Message, RunId, SystemBuilder,
};

fn a(i: usize) -> AgentId {
    AgentId::new(i)
}

/// A send-time family with fast (delay 0) and slow (delay 1) variants;
/// the last slot is fast-only so slow receive times are covered.
fn family(slots: u64) -> InterpretedSystem {
    let msg = Message::tagged(1);
    let horizon = slots + 3;
    let mut runs = SystemBuilder::new();
    for s in 0..=slots {
        let delays: &[(&str, u64)] = if s < slots {
            &[("fast", 0), ("slow", 1)]
        } else {
            &[("fast", 0)]
        };
        for &(speed, delay) in delays {
            runs.run(format_args!("{speed}{s}"), 2, horizon)
                .wake(a(0), 0, 0)
                .wake(a(1), 0, 0)
                .perfect_clock(a(0), 0)
                .perfect_clock(a(1), 0)
                .event(a(0), s, Event::Send { to: a(1), msg })
                .event(a(1), s + delay, Event::Recv { from: a(0), msg })
                .finish();
        }
    }
    InterpretedSystem::builder(runs.build(), CompleteHistory)
        .fact("both_aware", |run, t| {
            run.proc(a(0)).events_before(t).count() > 0
                && run.proc(a(1)).events_before(t).count() > 0
        })
        .build()
}

fn eager_beliefs(isys: &InterpretedSystem) -> BeliefAssignment {
    BeliefAssignment::from_predicates(
        isys,
        &[
            Box::new(|run: halpern_moses::runs::Run<'_>, t: u64| {
                run.proc(a(0)).events_before(t).count() > 0
            }),
            Box::new(|run: halpern_moses::runs::Run<'_>, t: u64| {
                run.proc(a(1)).events_before(t).count() > 0
            }),
        ],
    )
}

#[test]
fn eager_interpretation_full_story() {
    for slots in [2u64, 4] {
        let isys = family(slots);
        let beliefs = eager_beliefs(&isys);
        let fact = Frame::atom_set(&isys, "both_aware").unwrap();
        // Measurable, not knowledge consistent, internally consistent.
        for i in 0..2 {
            assert!(history_measurable(&isys, a(i), &beliefs.believes[i]));
        }
        assert!(!knowledge_consistent(&beliefs, &fact), "slots={slots}");
        let fasts: Vec<RunId> = (0..=slots)
            .map(|s| isys.system().run_by_name(&format!("fast{s}")).unwrap())
            .collect();
        assert!(
            internally_consistent_with(&isys, &beliefs, &fact, &fasts),
            "slots={slots}"
        );
        match find_internally_consistent_subsystem(&isys, &beliefs, &fact) {
            IkcOutcome::Consistent(_) => {}
            IkcOutcome::Inconsistent => panic!("search missed the witness"),
        }
    }
}

#[test]
fn truthful_beliefs_are_trivially_internally_consistent() {
    let isys = family(2);
    let fact = Frame::atom_set(&isys, "both_aware").unwrap();
    // Believing exactly when the fact is known is knowledge consistent,
    // hence internally consistent with the FULL system.
    let k0 = isys.model().knowledge(a(0), &fact);
    let k1 = isys.model().knowledge(a(1), &fact);
    let beliefs = BeliefAssignment {
        believes: vec![k0, k1],
    };
    assert!(knowledge_consistent(&beliefs, &fact));
    let all: Vec<RunId> = isys.system().runs().map(|(id, _)| id).collect();
    assert!(internally_consistent_with(&isys, &beliefs, &fact, &all));
}

#[test]
fn globally_false_belief_is_not_internally_consistent() {
    let isys = family(2);
    // Believing a fact that holds nowhere can't be rescued by any
    // subsystem (beliefs are non-empty and coverage forces them in).
    let empty_fact = WorldSet::empty(isys.model().num_worlds());
    let beliefs = eager_beliefs(&isys);
    assert_eq!(
        find_internally_consistent_subsystem(&isys, &beliefs, &empty_fact),
        IkcOutcome::Inconsistent
    );
}
