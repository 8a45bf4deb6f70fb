//! Experiment E16: the spectrum of view-based interpretations
//! (paper Section 6).
//!
//! - The single-view `Λ` interpretation collapses the hierarchy: every
//!   system-valid fact is common knowledge.
//! - A bounded "local state" view can forget; the complete-history view
//!   never does (`K_i φ ⊃ □ K_i once(φ)` is valid under complete
//!   history).
//! - The complete-history interpretation is the finest: it yields at
//!   least as much knowledge as any other view.

use halpern_moses::kripke::{AgentGroup, AgentId};
use halpern_moses::logic::{evaluate, Formula, Frame};
use halpern_moses::runs::{
    last_event_view, ClockOnly, CompleteHistory, Event, InterpretedSystem, Message, SharedLambda,
    System, SystemBuilder, ViewFunction, ViewInterner,
};

fn a(i: usize) -> AgentId {
    AgentId::new(i)
}

fn add_msg_runs(runs: &mut SystemBuilder) {
    let msg = Message::tagged(1);
    // Two sends of the same message vs one send vs none.
    runs.run("twice", 2, 4)
        .wake(a(0), 0, 0)
        .wake(a(1), 0, 0)
        .event(a(0), 1, Event::Send { to: a(1), msg })
        .event(a(0), 2, Event::Send { to: a(1), msg })
        .finish();
    runs.run("once", 2, 4)
        .wake(a(0), 0, 0)
        .wake(a(1), 0, 0)
        .event(a(0), 1, Event::Send { to: a(1), msg })
        .finish();
    runs.run("never", 2, 4)
        .wake(a(0), 0, 0)
        .wake(a(1), 0, 0)
        .finish();
}

fn msg_runs() -> System {
    let mut runs = SystemBuilder::new();
    add_msg_runs(&mut runs);
    runs.build()
}

fn facts(b: halpern_moses::runs::InterpretedSystemBuilder) -> InterpretedSystem {
    b.fact("sent_twice", |run, t| {
        run.proc(a(0))
            .events_before(t + 1)
            .filter(|e| matches!(e.event, Event::Send { .. }))
            .count()
            >= 2
    })
    .fact("sent", |run, t| {
        run.proc(a(0))
            .events_before(t + 1)
            .any(|e| matches!(e.event, Event::Send { .. }))
    })
    .build()
}

#[test]
fn lambda_view_collapses_everything_valid_to_common_knowledge() {
    let isys = facts(InterpretedSystem::builder(msg_runs(), SharedLambda));
    let g = AgentGroup::all(2);
    // `sent -> sent` is valid, so it is common knowledge under Λ.
    let f = Formula::common(
        g,
        Formula::implies(Formula::atom("sent"), Formula::atom("sent")),
    );
    assert!(evaluate(&isys, &f).unwrap().is_full());
    // And nothing contingent is even known: K_0 sent fails everywhere.
    let k = Formula::knows(a(0), Formula::atom("sent"));
    assert!(evaluate(&isys, &k).unwrap().is_empty());
}

#[test]
fn complete_history_never_forgets() {
    let isys = facts(InterpretedSystem::builder(msg_runs(), CompleteHistory));
    // K0 sent ⊃ □ K0 once(sent) — once known, the sender knows it ever
    // after (complete histories only grow).
    let f = Formula::implies(
        Formula::knows(a(0), Formula::atom("sent")),
        Formula::always(Formula::knows(a(0), Formula::once(Formula::atom("sent")))),
    );
    assert!(evaluate(&isys, &f).unwrap().is_full());
}

#[test]
fn last_event_view_forgets_the_count() {
    let full = facts(InterpretedSystem::builder(msg_runs(), CompleteHistory));
    let forgetful = facts(InterpretedSystem::builder(msg_runs(), last_event_view()));
    let k_twice = Formula::knows(a(0), Formula::atom("sent_twice"));
    // Under complete history the sender knows it sent twice…
    let twice_run = full.system().run_by_name("twice").unwrap();
    assert!(evaluate(&full, &k_twice)
        .unwrap()
        .contains(full.world(twice_run, 3)));
    // …under the last-event view it cannot tell two sends from one.
    let twice_run = forgetful.system().run_by_name("twice").unwrap();
    assert!(!evaluate(&forgetful, &k_twice)
        .unwrap()
        .contains(forgetful.world(twice_run, 3)));
}

#[test]
fn interned_view_ids_pin_the_vec_encodings() {
    // The hot path interns scratch-buffer encodings into dense ids; the
    // cold path materialises `Vec<u64>` keys. Two points must get the same
    // id iff their keys are equal — for every view in the spectrum, over a
    // system mixing clocks, wake times and event histories.
    let mut runs = SystemBuilder::new();
    add_msg_runs(&mut runs);
    runs.run("clocked", 2, 4)
        .wake(a(0), 1, 3)
        .wake(a(1), 0, 0)
        .clock_readings(a(0), vec![0, 5, 5, 6, 8])
        .clock_readings(a(1), vec![2, 3, 3, 3, 9])
        .event(
            a(0),
            2,
            Event::Send {
                to: a(1),
                msg: Message::tagged(4),
            },
        )
        .finish();
    let sys = runs.build();
    let views: Vec<Box<dyn ViewFunction>> = vec![
        Box::new(CompleteHistory),
        Box::new(SharedLambda),
        Box::new(ClockOnly),
        Box::new(last_event_view()),
    ];
    for view in &views {
        for agent in [a(0), a(1)] {
            let mut interner = ViewInterner::new();
            let mut scratch = Vec::new();
            let mut ids = Vec::new();
            let mut keys = Vec::new();
            for (_, r) in sys.runs() {
                for t in 0..=r.horizon() {
                    scratch.clear();
                    view.encode_view(r, agent, t, &mut scratch);
                    let id = interner.intern(&scratch);
                    assert_eq!(
                        interner.get(id),
                        &scratch[..],
                        "interner must store the encoding verbatim"
                    );
                    ids.push(id);
                    keys.push(view.view_key(r, agent, t));
                    assert_eq!(
                        keys.last().unwrap(),
                        &scratch,
                        "view_key and encode_view must agree ({})",
                        view.name()
                    );
                }
            }
            for i in 0..ids.len() {
                for j in 0..ids.len() {
                    assert_eq!(
                        ids[i] == ids[j],
                        keys[i] == keys[j],
                        "view {} agent {agent}: points {i},{j} disagree",
                        view.name()
                    );
                }
            }
        }
    }
}

#[test]
fn complete_history_knows_at_least_as_much_as_any_view() {
    // For every atom and agent: knowledge under a coarser view is a
    // subset of knowledge under complete history.
    let full = facts(InterpretedSystem::builder(msg_runs(), CompleteHistory));
    for coarse in [
        facts(InterpretedSystem::builder(msg_runs(), SharedLambda)),
        facts(InterpretedSystem::builder(msg_runs(), last_event_view())),
    ] {
        for atom in ["sent", "sent_twice"] {
            let set_full = Frame::atom_set(&full, atom).unwrap();
            let set_coarse = Frame::atom_set(&coarse, atom).unwrap();
            assert_eq!(set_full, set_coarse, "same facts, same worlds");
            for i in 0..2 {
                let k_coarse = coarse.model().knowledge(a(i), &set_coarse);
                let k_full = full.model().knowledge(a(i), &set_full);
                assert!(
                    k_coarse.is_subset(&k_full),
                    "view {} atom {atom} agent {i}",
                    coarse.view_name()
                );
            }
        }
    }
}
