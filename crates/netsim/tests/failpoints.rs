//! Fault injection inside the parallel enumeration workers (requires
//! the `failpoints` cargo feature). The container running CI may report
//! a single core, which would route the parallel driver through its
//! sequential fallback — `HM_NETSIM_THREADS` pins real workers.
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

const MSGS: usize = 8;

/// p0 fires a burst of lossy messages: 2^MSGS branches, plenty of
/// independent tasks for the splitter to hand to workers.
fn burst() -> impl hm_netsim::JointProtocol + Sync {
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

fn spec() -> ExecutionSpec {
    ExecutionSpec::simple(2, MSGS as u64 + 2)
}

/// The burst fixture, enumerated on parallel workers under `budget`.
fn enumerate_parallel(budget: &Budget) -> Result<Enumeration, EnumerateError> {
    let adversary = LossyFixedDelay { delay: 1 };
    enumerate_runs(&burst(), &adversary, &[spec()], budget, true)
}

fn ceiling() -> Budget {
    Limits::none().max_runs(1 << 12).budget()
}

fn force_workers() {
    std::env::set_var("HM_NETSIM_THREADS", "2");
}

#[test]
fn worker_exhaustion_is_a_typed_error() {
    let sc = FailScenario::setup();
    force_workers();
    sc.configure("netsim::worker", Action::Exhaust(ExhaustKind::Deadline));
    let err = enumerate_parallel(&ceiling()).unwrap_err();
    match err {
        EnumerateError::Limit(e) => {
            assert_eq!(e.resource, Resource::Deadline);
            assert_eq!(e.phase, Phase::Enumerate);
        }
        other => panic!("expected Limit, got {other:?}"),
    }
}

#[test]
fn worker_cancellation_is_a_typed_error() {
    let sc = FailScenario::setup();
    force_workers();
    sc.configure("netsim::worker", Action::Cancel);
    let err = enumerate_parallel(&ceiling()).unwrap_err();
    match err {
        EnumerateError::Limit(e) => assert_eq!(e.resource, Resource::Cancelled),
        other => panic!("expected Limit, got {other:?}"),
    }
}

#[test]
fn worker_death_is_contained_as_a_typed_error() {
    let sc = FailScenario::setup();
    force_workers();
    sc.configure("netsim::worker", Action::Panic);
    let err = enumerate_parallel(&ceiling()).unwrap_err();
    match err {
        EnumerateError::WorkerPanic { message } => {
            assert!(message.contains("injected panic"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
}

#[test]
fn cleared_failpoint_restores_normal_enumeration() {
    let sc = FailScenario::setup();
    force_workers();
    sc.configure("netsim::worker", Action::Panic);
    assert!(enumerate_parallel(&ceiling()).is_err());
    sc.clear("netsim::worker");
    let e = enumerate_parallel(&Budget::unlimited()).expect("failpoint gone, enumeration recovers");
    assert_eq!(e.num_runs(), 1 << MSGS);
    assert!(!e.truncated);
}
