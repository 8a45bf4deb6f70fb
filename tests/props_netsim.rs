//! Property-based tests of the simulator: determinism, exhaustiveness,
//! and structural invariants of enumerated systems.

use halpern_moses::kripke::AgentId;
use halpern_moses::limits::Limits;
use halpern_moses::netsim::{
    enumerate_runs, Adversary, Command, EnumerateError, ExecutionSpec, FnProtocol, JointProtocol,
    LocalView, LossyFixedDelay, SynchronousDelay, UnboundedDelay,
};
use halpern_moses::runs::conditions::extends;
use halpern_moses::runs::Event;
use halpern_moses::runs::{Message, Run, System};
use proptest::prelude::*;

/// Every run of one spec under a bare run ceiling.
fn runs_of(
    protocol: &dyn JointProtocol,
    adversary: &dyn Adversary,
    spec: &ExecutionSpec,
    max_runs: u64,
) -> Result<System, EnumerateError> {
    let budget = Limits::none().max_runs(max_runs).budget();
    enumerate_runs(protocol, adversary, std::slice::from_ref(spec), &budget)?.into_system()
}

/// The runs of `sys`, in order.
fn all_runs(sys: &System) -> Vec<Run<'_>> {
    sys.runs().map(|(_, r)| r).collect()
}

/// p0 sends `count` messages, one per tick, starting at its first step.
fn burst(count: usize) -> impl JointProtocol {
    FnProtocol::new("burst", move |v: &LocalView<'_>| {
        if v.me.index() == 0 && v.sent().count() < count {
            vec![Command::Send {
                to: AgentId::new(1),
                msg: Message::new(1, v.sent().count() as u64),
            }]
        } else {
            Vec::new()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lossy_enumeration_counts_are_exact(count in 1usize..4, horizon in 4u64..8) {
        // Each of the `count` messages is independently delivered or
        // lost: exactly 2^count runs (every send happens regardless,
        // since the sender never reacts to the outcome).
        let sys = runs_of(
            &burst(count),
            &LossyFixedDelay { delay: 1 },
            &ExecutionSpec::simple(2, horizon),
            1 << 12,
        )
        .unwrap();
    let runs = all_runs(&sys);
        prop_assert_eq!(runs.len(), 1 << count);
        // All runs share the sender's event sequence.
        for r in &runs {
            let sends = r.proc(AgentId::new(0)).events().len();
            prop_assert_eq!(sends, count);
        }
    }

    #[test]
    fn unbounded_delay_runs_partition_by_schedule(horizon in 3u64..7) {
        // One message, delays 1..=horizon or lost: horizon+1 runs.
        let sys = runs_of(
            &burst(1),
            &UnboundedDelay { min_delay: 1 },
            &ExecutionSpec::simple(2, horizon),
            1 << 12,
        )
        .unwrap();
    let runs = all_runs(&sys);
        prop_assert_eq!(runs.len(), horizon as usize + 1);
        // Exactly one run per delivery time; delivery times distinct.
        let mut times: Vec<Option<u64>> = runs
            .iter()
            .map(|r| {
                r.proc(AgentId::new(1))
                    .events()
                    .iter()
                    .find(|e| e.event.is_recv())
                    .map(|e| e.time)
            })
            .collect();
        times.sort();
        times.dedup();
        prop_assert_eq!(times.len(), horizon as usize + 1);
    }

    #[test]
    fn deterministic_protocols_yield_identical_reruns(count in 1usize..3, horizon in 3u64..7) {
        let spec = ExecutionSpec::simple(2, horizon);
        let a = runs_of(&burst(count), &LossyFixedDelay { delay: 1 }, &spec, 1024).unwrap();
        let b = runs_of(&burst(count), &LossyFixedDelay { delay: 1 }, &spec, 1024).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn runs_agree_until_first_divergent_delivery(horizon in 4u64..8) {
        // Any two enumerated runs extend each other up to (just before)
        // the first time their delivery schedules differ.
        let sys = runs_of(
            &burst(2),
            &LossyFixedDelay { delay: 1 },
            &ExecutionSpec::simple(2, horizon),
            1024,
        )
        .unwrap();
    let runs = all_runs(&sys);
        for &x in &runs {
            for &y in &runs {
                let recvs = |r: Run<'_>| -> Vec<u64> {
                    r.proc(AgentId::new(1))
                        .events()
                        .iter()
                        .filter(|e| e.event.is_recv())
                        .map(|e| e.time)
                        .collect()
                };
                let (rx, ry) = (recvs(x), recvs(y));
                let diverge = rx
                    .iter()
                    .zip(ry.iter())
                    .position(|(a, b)| a != b)
                    .map(|i| rx[i].min(ry[i]))
                    .unwrap_or_else(|| {
                        rx.len()
                            .min(ry.len())
                            .checked_sub(0)
                            .map(|i| {
                                rx.get(i).copied().or(ry.get(i).copied()).unwrap_or(horizon)
                            })
                            .unwrap_or(horizon)
                    });
                prop_assert!(extends(x, y, diverge), "{} vs {}", x.name(), y.name());
            }
        }
    }

    #[test]
    fn synchronous_delivery_is_reliable_and_unique(horizon in 4u64..9) {
        let sys = runs_of(
            &burst(2),
            &SynchronousDelay { delay: 2 },
            &ExecutionSpec::simple(2, horizon),
            64,
        )
        .unwrap();
    let runs = all_runs(&sys);
        prop_assert_eq!(runs.len(), 1, "no adversarial choice remains");
        let r = &runs[0];
        for e in r.proc(AgentId::new(1)).events() {
            if let Event::Recv { .. } = e.event {
                // Delivered exactly 2 after the matching send.
                let matching_send = r
                    .proc(AgentId::new(0))
                    .events()
                    .iter()
                    .find(|s| matches!((s.event, e.event), (
                        Event::Send { msg: a, .. },
                        Event::Recv { msg: b, .. },
                    ) if a == b))
                    .unwrap();
                prop_assert_eq!(e.time, matching_send.time + 2);
            }
        }
    }
}
