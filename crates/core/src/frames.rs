//! Small didactic frames (Sections 6 and 13) used by experiments E14
//! and E16 and served by the `hm-engine` scenario registry.
//!
//! Unlike the protocol frames of `hm-netsim`, these two are hand-built
//! run sets: the point is the *interpretation* (belief assignments in
//! E14, view functions in E16), not the protocol dynamics, so the runs
//! are written out directly.

use hm_kripke::AgentId;
use hm_runs::{
    last_event_view, CompleteHistory, Event, InterpretedSystem, InterpretedSystemBuilder, Message,
    Run, SharedLambda, SystemBuilder,
};

/// The Section 13 internal-knowledge-consistency frame: one message
/// from p0 to p1, sent at time `s ∈ 0..=3`, delivered either instantly
/// (`fast{s}`) or one tick later (`slow{s}`, for `s < 3`), horizon 6.
/// The fact `both_aware` holds once both processors have an event in
/// their history.
///
/// The eager belief assignment ("I believe `both_aware` as soon as I
/// have an event") is *not* knowledge-consistent on this system, but
/// restricting to the instant-delivery runs makes it internally
/// consistent — the E14 claim.
pub fn consistency_builder() -> InterpretedSystemBuilder {
    let a = |i: usize| AgentId::new(i);
    let msg = Message::tagged(1);
    let mut runs = SystemBuilder::new();
    for s in 0..=3u64 {
        let delays: &[(&str, u64)] = if s < 3 {
            &[("fast", 0), ("slow", 1)]
        } else {
            &[("fast", 0)]
        };
        for &(speed, delay) in delays {
            runs.run(format_args!("{speed}{s}"), 2, 6)
                .wake(a(0), 0, 0)
                .wake(a(1), 0, 0)
                .perfect_clock(a(0), 0)
                .perfect_clock(a(1), 0)
                .event(a(0), s, Event::Send { to: a(1), msg })
                .event(a(1), s + delay, Event::Recv { from: a(0), msg })
                .finish();
        }
    }
    InterpretedSystem::builder(runs.build(), CompleteHistory).fact("both_aware", |run, t| {
        run.proc(AgentId::new(0)).events_before(t).count() > 0
            && run.proc(AgentId::new(1)).events_before(t).count() > 0
    })
}

/// Which view function interprets the [`two_send_views_builder`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewKind {
    /// Complete history (Section 6's finest view — knows the most).
    CompleteHistory,
    /// Only the most recent event survives.
    LastEvent,
    /// The shared-λ view: every point looks alike (knows only valid
    /// facts).
    SharedLambda,
}

/// The Section 6 view-comparison frame: two runs over horizon 4 — p0
/// sends to p1 twice (`twice`) or once (`once`) — interpreted under the
/// chosen view function, with the fact `sent_twice`. Finer views know
/// more: `K0 sent_twice` holds at the most points under complete
/// history, fewer under last-event, none under shared λ — the E16
/// ordering.
pub fn two_send_views_builder(view: ViewKind) -> InterpretedSystemBuilder {
    let a = |i: usize| AgentId::new(i);
    let msg = Message::tagged(1);
    let mut runs = SystemBuilder::new();
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
    let system = runs.build();
    let builder = match view {
        ViewKind::CompleteHistory => InterpretedSystem::builder(system, CompleteHistory),
        ViewKind::LastEvent => InterpretedSystem::builder(system, last_event_view()),
        ViewKind::SharedLambda => InterpretedSystem::builder(system, SharedLambda),
    };
    builder.fact("sent_twice", |run: Run<'_>, t: u64| {
        run.proc(AgentId::new(0))
            .events_before(t + 1)
            .filter(|e| matches!(e.event, Event::Send { .. }))
            .count()
            >= 2
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_logic::{evaluate, Formula};

    #[test]
    fn consistency_frame_shape() {
        let isys = consistency_builder().build();
        assert_eq!(isys.system().num_runs(), 7, "4 fast + 3 slow");
        let aware = evaluate(&isys, &Formula::atom("both_aware")).unwrap();
        assert!(!aware.is_empty() && !aware.is_full());
    }

    #[test]
    fn finer_views_know_more() {
        let k = Formula::knows(AgentId::new(0), Formula::atom("sent_twice"));
        let count = |view: ViewKind| {
            evaluate(&two_send_views_builder(view).build(), &k)
                .unwrap()
                .count()
        };
        let full = count(ViewKind::CompleteHistory);
        let last = count(ViewKind::LastEvent);
        let lambda = count(ViewKind::SharedLambda);
        assert!(
            full >= last && last >= lambda,
            "{full} >= {last} >= {lambda}"
        );
        assert!(full > 0);
        assert_eq!(lambda, 0, "the lambda view knows only valid facts");
    }
}
