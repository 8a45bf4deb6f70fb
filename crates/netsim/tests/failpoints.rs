//! Fault injection at the enumeration entry, `netsim::enumerate`
//! (requires the `failpoints` cargo feature).
//!
//! `FailScenario::setup` holds a process-global lock, so these tests
//! serialize against each other (and against any other failpoint test
//! in this binary).

#![cfg(feature = "failpoints")]

use hm_kripke::AgentId;
use hm_limits::failpoints::{Action, ExhaustKind, FailScenario};
use hm_limits::{Budget, Limits, Phase, Resource};
use hm_netsim::Command;
use hm_netsim::{
    enumerate_runs, EnumerateError, Enumeration, ExecutionSpec, FnProtocol, LocalView,
    LossyFixedDelay,
};
use hm_runs::Message;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MSGS: usize = 8;

/// p0 fires a burst of lossy messages: 2^MSGS branches.
fn burst() -> impl hm_netsim::JointProtocol {
    FnProtocol::new("burst", move |v: &LocalView<'_>| {
        if v.me.index() == 0 && v.sent().count() < MSGS {
            vec![Command::Send {
                to: AgentId::new(1),
                msg: Message::new(1, v.sent().count() as u64),
            }]
        } else {
            Vec::new()
        }
    })
}

/// The burst fixture, enumerated under `budget`.
fn enumerate(budget: &Budget) -> Result<Enumeration, EnumerateError> {
    let adversary = LossyFixedDelay { delay: 1 };
    let spec = ExecutionSpec::simple(2, MSGS as u64 + 2);
    enumerate_runs(&burst(), &adversary, &[spec], budget)
}

fn ceiling() -> Budget {
    Limits::none().max_runs(1 << 12).budget()
}

#[test]
fn exhaustion_is_a_typed_error() {
    let sc = FailScenario::setup();
    sc.configure("netsim::enumerate", Action::Exhaust(ExhaustKind::Deadline));
    let err = enumerate(&ceiling()).unwrap_err();
    match err {
        EnumerateError::Limit(e) => {
            assert_eq!(e.resource, Resource::Deadline);
            assert_eq!(e.phase, Phase::Enumerate);
        }
        other => panic!("expected Limit, got {other:?}"),
    }
}

#[test]
fn cancellation_is_a_typed_error() {
    let sc = FailScenario::setup();
    sc.configure("netsim::enumerate", Action::Cancel);
    let err = enumerate(&ceiling()).unwrap_err();
    match err {
        EnumerateError::Limit(e) => assert_eq!(e.resource, Resource::Cancelled),
        other => panic!("expected Limit, got {other:?}"),
    }
}

/// Enumeration runs on the caller's thread, so an injected panic unwinds
/// to the caller with its payload intact (`hm serve` contains it as a
/// 500; see hm-serve's failpoint suite).
#[test]
fn injected_panic_unwinds_to_the_caller() {
    let sc = FailScenario::setup();
    sc.configure("netsim::enumerate", Action::Panic);
    let payload = catch_unwind(AssertUnwindSafe(|| enumerate(&ceiling()))).unwrap_err();
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains("netsim::enumerate"), "{message}");
    assert!(message.contains("injected panic"), "{message}");
}

#[test]
fn cleared_failpoint_restores_normal_enumeration() {
    let sc = FailScenario::setup();
    sc.configure("netsim::enumerate", Action::Panic);
    assert!(catch_unwind(AssertUnwindSafe(|| enumerate(&ceiling()))).is_err());
    sc.clear("netsim::enumerate");
    let e = enumerate(&Budget::unlimited()).expect("failpoint gone, enumeration recovers");
    assert_eq!(e.num_runs(), 1 << MSGS);
    assert!(!e.truncated);
}
