//! System-level hypotheses of the paper's theorems, as executable checks.
//!
//! Theorems 5, 7 and 8 of Halpern–Moses quantify over systems satisfying
//! structural conditions — *communication not guaranteed* (NG1 + NG2),
//! *unbounded message delivery* (NG1′ + NG2), and *temporal imprecision*.
//! On a finite enumerated system these conditions are decidable; this
//! module implements them so experiments can first *verify the hypothesis*
//! and then check the theorem's conclusion.

use crate::run::{ProcRecord, Run};
use crate::system::{RunId, System};
use crate::view::encode_complete_history;
use hm_kripke::AgentId;
use std::cell::RefCell;

thread_local! {
    /// Scratch pair for history comparisons: the NG checkers compare
    /// histories inside O(runs² × horizon²) loops, so a per-call key
    /// allocation is the dominant cost.
    static HISTORY_BUFS: RefCell<(Vec<u64>, Vec<u64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `h(pa, ta) == h(pb, tb)` under the complete-history encoding, comparing
/// through reused thread-local scratch buffers (no allocation after the
/// first call).
fn history_keys_equal(pa: ProcRecord<'_>, ta: u64, pb: ProcRecord<'_>, tb: u64) -> bool {
    HISTORY_BUFS.with(|bufs| {
        let (a, b) = &mut *bufs.borrow_mut();
        a.clear();
        b.clear();
        encode_complete_history(pa, ta, a);
        encode_complete_history(pb, tb, b);
        a == b
    })
}

/// `true` iff `h(p_i, ra, t) = h(p_i, rb, t)` under the complete-history
/// interpretation (Section 5's history equality).
pub fn histories_equal(ra: Run<'_>, rb: Run<'_>, i: AgentId, t: u64) -> bool {
    history_keys_equal(ra.proc(i), t, rb.proc(i), t)
}

/// `true` iff `rb` *extends* the point `(ra, t)`: every processor has the
/// same history in both runs at every `t' ≤ t` (Section 5). The relation
/// is symmetric in the two runs.
pub fn extends(ra: Run<'_>, rb: Run<'_>, t: u64) -> bool {
    let n = ra.num_procs().min(rb.num_procs());
    (0..n).all(|i| {
        let i = AgentId::new(i);
        (0..=t).all(|u| histories_equal(ra, rb, i, u))
    })
}

/// Memoised prefix-agreement over all run pairs of a system: for each
/// ordered pair `(a, b)` and processor `i`, the number of initial times
/// `u = 0, 1, …` at which `h(p_i, a, u) = h(p_i, b, u)` — so "`p_i`'s
/// histories agree at every `u ≤ t`" is the O(1) test `upto > t`.
///
/// The NG checkers ask exactly these questions inside
/// O(runs² × horizon²) loops; without the table every ask replays the
/// [`extends`] prefix scan, which dominates their cost (b05). Scans stop
/// at the first mismatch or at the pair's smaller horizon, so the whole
/// table costs what a single full `extends` sweep per pair does.
struct AgreementTable {
    num_runs: usize,
    num_procs: usize,
    /// `upto[(a * num_runs + b) * num_procs + i]`.
    upto: Vec<u64>,
    /// `min_upto[a * num_runs + b]` = min over processors.
    min_upto: Vec<u64>,
}

impl AgreementTable {
    fn new(system: &System) -> Self {
        let nr = system.num_runs();
        let np = system.num_procs();
        let mut upto = vec![0u64; nr * nr * np];
        let mut min_upto = vec![0u64; nr * nr];
        for (ia, ra) in system.runs() {
            for (ib, rb) in system.runs() {
                // The scan runs to the *outer* run's horizon, exactly as
                // the checkers' `extends(ra, rb, t)` calls did: `rb` may
                // be shorter and still agree at every `u ≤ t` (clockless
                // histories are well-defined past a run's horizon).
                // That makes the table ordered, not symmetric.
                let cap = ra.horizon() + 1;
                let mut min_len = u64::MAX;
                for i in 0..np {
                    let len = if ia == ib {
                        cap
                    } else {
                        let (pa, pb) = (ra.proc(AgentId::new(i)), rb.proc(AgentId::new(i)));
                        (0..cap)
                            .take_while(|&u| history_keys_equal(pa, u, pb, u))
                            .count() as u64
                    };
                    upto[(ia.index() * nr + ib.index()) * np + i] = len;
                    min_len = min_len.min(len);
                }
                min_upto[ia.index() * nr + ib.index()] = min_len;
            }
        }
        AgreementTable {
            num_runs: nr,
            num_procs: np,
            upto,
            min_upto,
        }
    }

    /// `h(p_i, a, u) = h(p_i, b, u)` for every `u ≤ t`.
    fn agrees(&self, a: RunId, b: RunId, i: usize, t: u64) -> bool {
        self.upto[(a.index() * self.num_runs + b.index()) * self.num_procs + i] > t
    }

    /// [`extends`]`(a, b, t)`.
    fn extends(&self, a: RunId, b: RunId, t: u64) -> bool {
        self.min_upto[a.index() * self.num_runs + b.index()] > t
    }
}

/// Per-run sorted receive times (`recvs[proc]`), for O(log) "no message
/// received in `[from, to]`" interval queries.
struct RecvTimes {
    by_proc: Vec<Vec<u64>>,
}

impl RecvTimes {
    fn new(run: Run<'_>) -> Self {
        RecvTimes {
            by_proc: run
                .procs()
                .map(|p| {
                    p.events()
                        .iter()
                        .filter(|e| e.event.is_recv())
                        .map(|e| e.time)
                        .collect()
                })
                .collect(),
        }
    }

    /// `true` iff processor `i` receives nothing in the closed interval.
    fn quiet(&self, i: usize, from: u64, to: u64) -> bool {
        let times = &self.by_proc[i];
        times.partition_point(|&t| t < from) == times.partition_point(|&t| t <= to)
    }

    /// `true` iff no processor receives anything in the closed interval.
    fn all_quiet(&self, from: u64, to: u64) -> bool {
        (0..self.by_proc.len()).all(|i| self.quiet(i, from, to))
    }
}

/// A violation of one of the NG conditions, for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Run at which the condition fails.
    pub run: RunId,
    /// Time at which the condition fails.
    pub time: u64,
    /// Description of the missing witness.
    pub reason: String,
}

/// Checks NG1: for every run `r` and time `t`, some run `r'` extends
/// `(r, t)`, has the same initial configuration and clock readings, and
/// has no messages received at or after `t`.
///
/// Returns the first violation, or `None` if the condition holds (on this
/// finite truncation).
pub fn check_ng1(system: &System) -> Option<Violation> {
    let agree = AgreementTable::new(system);
    for (id, r) in system.runs() {
        for t in 0..=r.horizon() {
            let found = system.runs().any(|(id2, r2)| {
                r.same_initial_config_and_clocks(r2)
                    && agree.extends(id, id2, t)
                    && r2.silent_from(t)
            });
            if !found {
                return Some(Violation {
                    run: id,
                    time: t,
                    reason: "no silent extension with matching configuration".into(),
                });
            }
        }
    }
    None
}

/// Checks NG1′ (unbounded message delivery): for every run `r` and times
/// `t ≤ u`, some run `r'` extends `(r, t)`, has the same initial
/// configuration and clock readings, and has no messages received in
/// `[t, u]`.
pub fn check_ng1_prime(system: &System) -> Option<Violation> {
    let agree = AgreementTable::new(system);
    let recvs: Vec<RecvTimes> = system.runs().map(|(_, r)| RecvTimes::new(r)).collect();
    for (id, r) in system.runs() {
        for t in 0..=r.horizon() {
            for u in t..=r.horizon() {
                let found = system.runs().any(|(id2, r2)| {
                    r.same_initial_config_and_clocks(r2)
                        && agree.extends(id, id2, t)
                        && recvs[id2.index()].all_quiet(t, u)
                });
                if !found {
                    return Some(Violation {
                        run: id,
                        time: t,
                        reason: format!("no extension silent on [{t},{u}]"),
                    });
                }
            }
        }
    }
    None
}

/// Checks NG2: whenever processor `p_i` receives no messages in the open
/// interval `(t', t)` of run `r`, there is a run `r'` extending `(r, t')`
/// with the same initial configuration and clock readings, in which
/// `p_i`'s history agrees with `r` up to `t`, and no other processor
/// receives a message in `[t', t)`.
pub fn check_ng2(system: &System) -> Option<Violation> {
    let agree = AgreementTable::new(system);
    let recvs: Vec<RecvTimes> = system.runs().map(|(_, r)| RecvTimes::new(r)).collect();
    for (id, r) in system.runs() {
        for i in 0..system.num_procs() {
            for tp in 0..=r.horizon() {
                for t in tp..=r.horizon() {
                    // Hypothesis: p_i receives nothing in the open (t', t).
                    if t > tp + 1 && !recvs[id.index()].quiet(i, tp + 1, t - 1) {
                        continue;
                    }
                    let found = system.runs().any(|(id2, r2)| {
                        r.same_initial_config_and_clocks(r2)
                            && agree.extends(id, id2, tp)
                            && agree.agrees(id, id2, i, t)
                            && (0..system.num_procs()).all(|j| {
                                // Half-open [t', t): closed [t', t-1].
                                j == i || t == tp || recvs[id2.index()].quiet(j, tp, t - 1)
                            })
                    });
                    if !found {
                        return Some(Violation {
                            run: id,
                            time: t,
                            reason: format!("NG2 witness missing for p{i} on ({tp},{t})"),
                        });
                    }
                }
            }
        }
    }
    None
}

/// Checks the discrete form of *temporal imprecision* (Appendix B): for
/// every run `r`, time `t > 0`, and ordered pair of distinct processors
/// `(p_i, p_j)`, there is a run `r'` in which `p_i` runs one tick late —
/// or one tick early — relative to `r` while `p_j` is unshifted: for all
/// `t' < t`, either `h(p_i, r, t') = h(p_i, r', t'+1)` or
/// `h(p_i, r, t'+1) = h(p_i, r', t')`, with `h(p_j, r, t') = h(p_j, r', t')`
/// in both cases.
///
/// The paper's continuous-time definition uses only the "late" direction,
/// quantified over all `δ' ∈ [0, δ)`; in discrete time the smallest shift
/// is a whole tick, and a run whose laggard already wakes latest has no
/// later variant, so we accept the early direction too — either
/// orientation supports the two-edge downward walk of Lemma 14
/// (`(r,t) → (r',t−1) → (r,t−1)`), which is all the imprecision
/// hypothesis is used for.
///
/// Returns the first `(run, t, i, j)` with no witness, or `None`.
pub fn check_temporal_imprecision(system: &System) -> Option<Violation> {
    for (id, r) in system.runs() {
        for t in 1..=r.horizon() {
            for i in 0..system.num_procs() {
                for j in 0..system.num_procs() {
                    if i == j {
                        continue;
                    }
                    if shift_witness(system, r, t, AgentId::new(i), AgentId::new(j)).is_none() {
                        return Some(Violation {
                            run: id,
                            time: t,
                            reason: format!("no 1-tick shift witness for (p{i}, p{j})"),
                        });
                    }
                }
            }
        }
    }
    None
}

/// Finds a run `r'` witnessing a one-tick shift (late or early) of `p_i`
/// against `p_j` before time `t` (see [`check_temporal_imprecision`]).
pub fn shift_witness(
    system: &System,
    r: Run<'_>,
    t: u64,
    pi: AgentId,
    pj: AgentId,
) -> Option<RunId> {
    let late = |r2: Run<'_>| {
        (0..t).all(|u| {
            u < r2.horizon()
                && history_keys_equal(r.proc(pi), u, r2.proc(pi), u + 1)
                && histories_equal(r, r2, pj, u)
        })
    };
    let early = |r2: Run<'_>| {
        (0..t).all(|u| {
            u < r.horizon()
                && history_keys_equal(r.proc(pi), u + 1, r2.proc(pi), u)
                && histories_equal(r, r2, pj, u)
        })
    };
    system
        .runs()
        .find(|&(_, r2)| late(r2) || early(r2))
        .map(|(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Message};
    use crate::run::RunBuilder;
    use crate::system::SystemBuilder;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    fn send(to: usize, tag: u32) -> Event {
        Event::Send {
            to: a(to),
            msg: Message::tagged(tag),
        }
    }

    fn recv(from: usize, tag: u32) -> Event {
        Event::Recv {
            from: a(from),
            msg: Message::tagged(tag),
        }
    }

    fn base<'b>(sb: &'b mut SystemBuilder, name: &str, horizon: u64) -> RunBuilder<'b> {
        sb.run(name, 2, horizon).wake(a(0), 0, 0).wake(a(1), 0, 0)
    }

    /// quiet, send-but-lost, and delivered-at-2 runs of one message.
    fn loss_family(sb: &mut SystemBuilder) {
        base(sb, "quiet", 3).finish();
        base(sb, "lost", 3).event(a(0), 1, send(1, 1)).finish();
        base(sb, "deliver", 3)
            .event(a(0), 1, send(1, 1))
            .event(a(1), 2, recv(0, 1))
            .finish();
    }

    #[test]
    fn extends_and_history_equality() {
        // Same prefix through t=1; diverge at t=2 (delivery vs loss).
        let mut sb = SystemBuilder::new();
        base(&mut sb, "deliver", 3)
            .event(a(0), 1, send(1, 1))
            .event(a(1), 2, recv(0, 1))
            .finish();
        base(&mut sb, "lose", 3).event(a(0), 1, send(1, 1)).finish();
        let sys = sb.build();
        let (r1, r2) = (sys.run(RunId(0)), sys.run(RunId(1)));
        // Histories at t exclude events at t, so they agree up to t=2.
        assert!(extends(r1, r2, 2));
        assert!(!extends(r1, r2, 3));
        assert!(histories_equal(r1, r2, a(0), 3), "sender can't tell");
        assert!(!histories_equal(r1, r2, a(1), 3));
    }

    #[test]
    fn ng1_holds_with_silent_twins() {
        // System: quiet run + send-but-lost run + delivered run.
        let mut sb = SystemBuilder::new();
        loss_family(&mut sb);
        assert_eq!(check_ng1(&sb.build()), None);
    }

    #[test]
    fn ng1_fails_when_delivery_is_forced() {
        // Only the delivered run exists: at t ≤ 2 there is no silent
        // extension.
        let mut sb = SystemBuilder::new();
        base(&mut sb, "deliver", 3)
            .event(a(0), 1, send(1, 1))
            .event(a(1), 2, recv(0, 1))
            .finish();
        let v = check_ng1(&sb.build()).expect("NG1 must fail");
        assert!(v.time <= 2);
    }

    #[test]
    fn temporal_imprecision_of_shifted_family() {
        // Family of runs where p1's wake is shifted arbitrarily: every
        // one-tick shift of either processor has a witness. With no clocks
        // and no events, histories are wake-dependent only... here both
        // always awake from 0, so histories are constant and any run
        // witnesses any shift.
        let mut sb = SystemBuilder::new();
        base(&mut sb, "r0", 3).finish();
        base(&mut sb, "r1", 3).finish();
        assert_eq!(check_temporal_imprecision(&sb.build()), None);
    }

    #[test]
    fn temporal_imprecision_fails_with_global_clock() {
        // Perfect shared clocks pin real time: a one-tick shift of p0
        // would need clock readings that don't exist in any run.
        let mut sb = SystemBuilder::new();
        base(&mut sb, "r0", 3)
            .perfect_clock(a(0), 0)
            .perfect_clock(a(1), 0)
            .finish();
        let v = check_temporal_imprecision(&sb.build());
        assert!(v.is_some(), "global clock kills temporal imprecision");
    }

    #[test]
    fn ng2_on_loss_closed_family() {
        // All four delivery outcomes of one message exist — NG2's witness
        // (suppress deliveries to others, keep p_i's view) is available.
        let mut sb = SystemBuilder::new();
        loss_family(&mut sb);
        assert_eq!(check_ng2(&sb.build()), None);
    }

    #[test]
    fn ng1_accepts_shorter_silent_witnesses() {
        // The witness run may be *shorter* than the run under test: the
        // agreement table must scan to the outer run's horizon (clockless
        // histories are well-defined past a run's horizon), exactly as
        // the unmemoised `extends` scan did.
        let mut sb = SystemBuilder::new();
        base(&mut sb, "long", 5)
            .event(a(0), 1, send(1, 1))
            .event(a(1), 4, recv(0, 1))
            .finish();
        base(&mut sb, "short", 3)
            .event(a(0), 1, send(1, 1))
            .finish();
        let sys = sb.build();
        let (long, short) = (sys.run(RunId(0)), sys.run(RunId(1)));
        // Unmemoised reference: `short` extends (long, 4) and is silent.
        assert!(extends(long, short, 4) && short.silent_from(4));
        assert_eq!(check_ng1(&sys), None);
    }

    #[test]
    fn ng1_prime_with_delay_family() {
        // Message sent at 1 can be delivered at 2, 3, or never — delivery
        // delayable past any u, so NG1' holds on this truncation.
        let mut sb = SystemBuilder::new();
        base(&mut sb, "quiet", 3).finish();
        base(&mut sb, "lost", 3).event(a(0), 1, send(1, 1)).finish();
        for d in [2, 3] {
            base(&mut sb, &format!("d{d}"), 3)
                .event(a(0), 1, send(1, 1))
                .event(a(1), d, recv(0, 1))
                .finish();
        }
        assert_eq!(check_ng1_prime(&sb.build()), None);
    }
}
