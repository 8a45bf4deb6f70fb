//! Fact discovery and fact publication (Section 3).
//!
//! "One is *fact discovery* — the act of changing the state of knowledge
//! of a fact φ from being distributed knowledge to levels of explicit
//! knowledge … An example of fact discovery is the detection of global
//! properties of a system, such as deadlock. … An example of fact
//! publication is the introduction of a new communication convention."
//!
//! This module stages both on a concrete substrate: `n` processes with a
//! wait-for edge each (a global wait-for graph nobody sees in full), a
//! Chandy–Misra–Haas-style probe protocol that *discovers* a deadlock
//! (D → S), and a detector broadcast that *publishes* it (S → E → C^T,
//! timestamped common knowledge — plain C being unattainable, Section 8).

use hm_kripke::{AgentGroup, AgentId, WorldSet};
use hm_limits::Limits;
use hm_logic::{evaluate, EvalError, Formula};
use hm_netsim::{
    enumerate_runs, Clocks, Command, EnumerateError, ExecutionSpec, FnProtocol, LocalView,
    SynchronousDelay,
};
use hm_runs::{CompleteHistory, Event, InterpretedSystem, Message};

/// Message tag for deadlock probes (`data` = probe origin).
pub const TAG_PROBE: u32 = 10;
/// Message tag for the detector's "deadlock!" broadcast.
pub const TAG_ALARM: u32 = 11;
/// Action code recorded when a process detects a deadlock through itself.
pub const ACT_DETECT: u32 = 200;

/// Initial-state encoding: `i < n` means "blocked waiting on process i";
/// `i = n` means "not blocked".
fn wait_target(state: u64, n: usize) -> Option<usize> {
    let s = state as usize;
    (s < n).then_some(s)
}

/// `true` iff the wait-for graph (one out-edge per blocked process) has a
/// cycle.
pub fn has_deadlock(targets: &[u64]) -> bool {
    let n = targets.len();
    for start in 0..n {
        let mut seen = vec![false; n];
        let mut cur = start;
        loop {
            match wait_target(targets[cur], n) {
                None => break,
                Some(next) => {
                    if next == start {
                        return true;
                    }
                    if seen[next] {
                        break;
                    }
                    seen[next] = true;
                    cur = next;
                }
            }
        }
    }
    false
}

/// Builds the deadlock-detection system: all `4^n / …` wait-for graphs
/// (each process blocked on one of the others or free) under the probe
/// protocol, with a reliable 1-tick network and a global clock.
///
/// Protocol: a blocked process launches a probe carrying its identity; a
/// blocked process forwards each distinct probe origin to its own target
/// once; a process receiving its own probe back records
/// [`ACT_DETECT`] and broadcasts [`TAG_ALARM`] to everyone.
///
/// # Errors
///
/// Propagates [`EnumerateError`].
pub fn deadlock_system(n: usize, horizon: u64) -> Result<InterpretedSystem, EnumerateError> {
    Ok(deadlock_builder(n, horizon)?.build())
}

/// The un-built form of [`deadlock_system`], for callers that set build
/// options (the `hm-engine` scenario registry).
///
/// # Panics
///
/// Panics unless `2 <= n <= 4`.
///
/// # Errors
///
/// Propagates [`EnumerateError`].
pub fn deadlock_builder(
    n: usize,
    horizon: u64,
) -> Result<hm_runs::InterpretedSystemBuilder, EnumerateError> {
    assert!(
        (2..=4).contains(&n),
        "deadlock demo sized for 2..=4 processes"
    );
    let protocol = FnProtocol::new("probe", move |v: &LocalView<'_>| {
        let n = v.num_procs;
        let me = v.me.index();
        let mut cmds = Vec::new();
        let my_target = wait_target(v.initial_state, n);
        // Launch my own probe once, if blocked.
        if let Some(target) = my_target {
            let launched = v
                .sent()
                .any(|(_, m)| m.tag == TAG_PROBE && m.data == me as u64);
            if !launched {
                cmds.push(Command::Send {
                    to: AgentId::new(target),
                    msg: Message::new(TAG_PROBE, me as u64),
                });
            }
        }
        for (_, m) in v.received() {
            if m.tag != TAG_PROBE {
                continue;
            }
            let origin = m.data as usize;
            if origin == me {
                // My probe came back: deadlock through me.
                if !v.has_acted(ACT_DETECT) {
                    cmds.push(Command::Act {
                        action: ACT_DETECT,
                        data: 0,
                    });
                    for other in 0..n {
                        if other != me {
                            cmds.push(Command::Send {
                                to: AgentId::new(other),
                                msg: Message::new(TAG_ALARM, me as u64),
                            });
                        }
                    }
                }
            } else if let Some(target) = my_target {
                // Forward each foreign origin once.
                let forwarded = v
                    .sent()
                    .any(|(_, s)| s.tag == TAG_PROBE && s.data == origin as u64);
                if !forwarded {
                    cmds.push(Command::Send {
                        to: AgentId::new(target),
                        msg: Message::new(TAG_PROBE, origin as u64),
                    });
                }
            }
        }
        cmds
    });
    // One spec per wait-for graph.
    let mut specs = Vec::new();
    let options = (n + 1) as u64;
    let mut graph = vec![0u64; n];
    loop {
        // Skip self-waits (encoded state == own index): meaningless.
        if graph.iter().enumerate().all(|(i, &t)| t as usize != i) {
            let label: String = graph.iter().map(|t| t.to_string()).collect();
            specs.push(
                ExecutionSpec::simple(n, horizon)
                    .with_initial_states(graph.clone())
                    .with_clocks(Clocks::Offset(vec![0; n]))
                    .with_label(format!("g{label}")),
            );
        }
        // Next graph in lexicographic order.
        let mut i = 0;
        loop {
            if i == n {
                break;
            }
            graph[i] += 1;
            if graph[i] < options {
                break;
            }
            graph[i] = 0;
            i += 1;
        }
        if i == n {
            break;
        }
    }
    let budget = Limits::none().max_runs(8192).budget();
    let adversary = SynchronousDelay { delay: 1 };
    let sys = enumerate_runs(&protocol, &adversary, &specs, &budget)?.into_system()?;
    Ok(InterpretedSystem::builder(sys, CompleteHistory)
        .fact("deadlock", |run, _t| {
            let targets: Vec<u64> = run.procs().map(|p| p.initial_state()).collect();
            has_deadlock(&targets)
        })
        .fact("detected", |run, t| {
            run.procs().any(|p| {
                p.events().iter().any(|e| {
                    e.time < t
                        && matches!(e.event, Event::Act { action, .. } if action == ACT_DETECT)
                })
            })
        }))
}

/// The knowledge-level trajectory of the fact `deadlock` at a given run:
/// for each time, which levels among `D, S, E` hold (common knowledge is
/// reported separately via `C^T`, plain `C` being unattainable here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryTrajectory {
    /// First time `D_G deadlock` holds in the run (expected: 0).
    pub d_onset: Option<u64>,
    /// First time `S_G deadlock` holds (the discovery).
    pub s_onset: Option<u64>,
    /// First time `E_G deadlock` holds (after publication).
    pub e_onset: Option<u64>,
}

/// Computes the `D → S → E` trajectory of `deadlock` for the run named
/// by the wait-for graph `targets`.
///
/// # Panics
///
/// Panics if no run matches `targets`.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn discovery_trajectory(
    isys: &InterpretedSystem,
    targets: &[u64],
) -> Result<DiscoveryTrajectory, EvalError> {
    let (rid, run) = isys
        .system()
        .runs()
        .find(|(_, r)| {
            r.procs()
                .map(|p| p.initial_state())
                .eq(targets.iter().copied())
        })
        .expect("no run with the requested wait-for graph");
    let g = AgentGroup::all(isys.system().num_procs());
    let fact = Formula::atom("deadlock");
    let first = |set: &WorldSet| (0..=run.horizon()).find(|&t| set.contains(isys.world(rid, t)));
    let d = evaluate(isys, &Formula::distributed(g.clone(), fact.clone()))?;
    let s = evaluate(isys, &Formula::someone(g.clone(), fact.clone()))?;
    let e = evaluate(isys, &Formula::everyone(g, fact))?;
    Ok(DiscoveryTrajectory {
        d_onset: first(&d),
        s_onset: first(&s),
        e_onset: first(&e),
    })
}

/// The publication state: the first clock stamp `T` (searched up to the
/// horizon) for which `C^T_G deadlock` holds at the run named by
/// `targets`, i.e. the timestamp at which the convention "we all know of
/// the deadlock as of time T" becomes publishable.
///
/// # Panics
///
/// Panics if no run matches `targets`.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn publication_stamp(
    isys: &InterpretedSystem,
    targets: &[u64],
) -> Result<Option<u64>, EvalError> {
    let (rid, run) = isys
        .system()
        .runs()
        .find(|(_, r)| {
            r.procs()
                .map(|p| p.initial_state())
                .eq(targets.iter().copied())
        })
        .expect("no run with the requested wait-for graph");
    let g = AgentGroup::all(isys.system().num_procs());
    for stamp in 0..=run.horizon() {
        let f = Formula::common_ts(g.clone(), stamp, Formula::atom("deadlock"));
        let set = evaluate(isys, &f)?;
        if set.contains(isys.world(rid, run.horizon())) {
            return Ok(Some(stamp));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_predicate() {
        // 3 processes: 0→1, 1→2, 2→0 is a cycle; 0→1, 1→2, 2 free is not.
        assert!(has_deadlock(&[1, 2, 0]));
        assert!(!has_deadlock(&[1, 2, 3]));
        // Two-cycle with a free third process.
        assert!(has_deadlock(&[1, 0, 3]));
        // Nobody blocked.
        assert!(!has_deadlock(&[3, 3, 3]));
    }

    #[test]
    fn discovery_climbs_the_hierarchy() {
        let isys = deadlock_system(3, 12).unwrap();
        // Asymmetric graph 0↔1 with 2 free: the cycle members discover
        // the deadlock from each other's probes; the bystander learns
        // only from the alarm broadcast — so S strictly precedes E.
        // (In the symmetric 3-cycle all processes detect simultaneously
        // and S and E coincide.)
        let traj = discovery_trajectory(&isys, &[1, 0, 3]).unwrap();
        assert_eq!(traj.d_onset, Some(0), "distributed from the start");
        let s = traj.s_onset.expect("discovery must happen");
        assert!(s > 0, "no single process knows at time 0");
        let e = traj.e_onset.expect("publication must happen");
        assert!(e > s, "E follows S after the alarm broadcast");
    }

    #[test]
    fn no_deadlock_is_never_discovered() {
        let isys = deadlock_system(3, 12).unwrap();
        let traj = discovery_trajectory(&isys, &[1, 2, 3]).unwrap();
        // The fact is false in this run, so no knowledge levels of it
        // can hold at its points (knowledge axiom).
        assert_eq!(traj.s_onset, None);
        assert_eq!(traj.e_onset, None);
    }

    #[test]
    fn publication_attains_timestamped_common_knowledge() {
        let isys = deadlock_system(3, 12).unwrap();
        let stamp = publication_stamp(&isys, &[1, 2, 0]).unwrap();
        let t = stamp.expect("C^T deadlock should be attained");
        // …but never before the alarm could have landed everywhere.
        let traj = discovery_trajectory(&isys, &[1, 2, 0]).unwrap();
        assert!(t >= traj.e_onset.unwrap());
        // Plain common knowledge, by contrast, is attainable here only
        // because the clock is global; sanity-check that C^T implies the
        // E-level at the stamp.
    }

    #[test]
    fn detection_requires_a_cycle_through_the_detector() {
        let isys = deadlock_system(3, 12).unwrap();
        // 0→1, 1→0 cycle, 2 free: only 0 and 1 can detect.
        let (_, run) = isys
            .system()
            .runs()
            .find(|(_, r)| r.procs().map(|p| p.initial_state()).eq([1u64, 0, 3]))
            .unwrap();
        let detectors: Vec<usize> = (0..3)
            .filter(|&i| {
                run.proc(AgentId::new(i))
                    .events()
                    .iter()
                    .any(|e| matches!(e.event, Event::Act { action, .. } if action == ACT_DETECT))
            })
            .collect();
        assert!(!detectors.is_empty());
        assert!(!detectors.contains(&2));
    }
}
