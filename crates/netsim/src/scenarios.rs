//! The paper's worked examples as executable systems.
//!
//! - [`generals_system`]: the coordinated-attack handshake of Section 4
//!   (messenger takes an hour or is captured).
//! - [`generals_attack_system`]: a parametric family of attack rules used
//!   to corroborate Corollary 6 by exhaustive sweep.
//! - [`r2d2`]: the R2–D2 channel of Section 8 in its three variants —
//!   uncertain delay (no common knowledge, ε-ladder), exact delay, and
//!   timestamped message (common knowledge at `t_S + ε`).
//! - [`ok_protocol_system`]: the Section 11 example in which *successful*
//!   communication prevents `C^ε ψ`.

use crate::adversary::{InstantOrLostWindow, LossyFixedDelay};
use crate::executor::{enumerate_runs, Clocks, EnumerateError, ExecutionSpec};
use crate::protocol::{Command, FnProtocol, LocalView};
use hm_kripke::AgentId;
use hm_limits::{Budget, Limits};
use hm_runs::{Event, Message, Run, RunId, System, SystemBuilder};

/// Message tag used by the generals' messenger.
pub const TAG_DISPATCH: u32 = 1;
/// Action code for "attack".
pub const ACT_ATTACK: u32 = 100;
/// Message tag for the R2–D2 message `m`.
pub const TAG_M: u32 = 2;
/// Message tag for the OK protocol.
pub const TAG_OK: u32 = 3;

/// General A (p0) and General B (p1) run the acknowledgement handshake of
/// Section 4: if A *wants to attack* (its initial state is 1 — the
/// problem states the divisions "do not initially have plans", so A's
/// desire is an external input, enumerated as a second initial
/// configuration), A dispatches the messenger; each delivered message
/// prompts the recipient to send the next acknowledgement. The messenger
/// takes `1` tick per trip or is captured ([`LossyFixedDelay`]).
///
/// The resulting system has the silent no-intent run plus one intent run
/// per number of delivered messages `d = 0, 1, …` up to what the horizon
/// allows.
///
/// One budget spans both intent configurations, so a run ceiling bounds
/// the *total* (see [`enumerate_runs`]).
///
/// # Errors
///
/// Propagates [`EnumerateError`]: budget exhaustion (the run count is
/// linear in the horizon), or a partial budget that admitted zero runs.
pub fn generals_system(horizon: u64, budget: &Budget) -> Result<System, EnumerateError> {
    let adversary = LossyFixedDelay { delay: 1 };
    enumerate_runs(
        &handshake_protocol(),
        &adversary,
        &intent_specs(horizon),
        budget,
    )?
    .into_system()
}

/// The two initial configurations of the generals' problem: A does not
/// (`intent0`) or does (`intent1`) want to attack.
fn intent_specs(horizon: u64) -> Vec<ExecutionSpec> {
    (0..=1u64)
        .map(|intent| {
            ExecutionSpec::simple(2, horizon)
                .with_initial_states(vec![intent, 0])
                .with_label(format!("intent{intent}"))
        })
        .collect()
}

/// The handshake rule: A sends message `k` when it wants to attack and
/// all its previous messages have been answered; B answers each incoming
/// message once.
fn handshake_protocol() -> impl crate::protocol::JointProtocol {
    FnProtocol::new("handshake", |v: &LocalView<'_>| {
        let sent = v.sent().count();
        let received = v.received().count();
        let initiate = match v.me.index() {
            // A: first message if it wants to attack, then one per ack.
            0 => v.initial_state == 1 && sent == received,
            // B: one reply per unanswered incoming message.
            1 => received == sent + 1,
            _ => false,
        };
        if initiate {
            let peer = AgentId::new(1 - v.me.index());
            vec![Command::Send {
                to: peer,
                msg: Message::new(TAG_DISPATCH, (sent + received) as u64),
            }]
        } else {
            Vec::new()
        }
    })
}

/// The handshake extended with a (deliberately naive) attack rule: general
/// `i` attacks once it has received at least `threshold[i]` messages
/// (attacking at most once). A threshold of 0 attacks at wake-up.
///
/// Used to sweep a protocol family for Corollary 6: every member either
/// has a run where exactly one general attacks (unsafe) or never attacks.
///
/// # Errors
///
/// Propagates [`EnumerateError`].
pub fn generals_attack_system(
    horizon: u64,
    threshold_a: usize,
    threshold_b: usize,
) -> Result<System, EnumerateError> {
    let protocol = FnProtocol::new("handshake-attack", move |v: &LocalView<'_>| {
        let mut cmds = Vec::new();
        let sent = v.sent().count();
        let received = v.received().count();
        let initiate = match v.me.index() {
            0 => v.initial_state == 1 && sent == received,
            1 => received == sent + 1,
            _ => false,
        };
        if initiate {
            let peer = AgentId::new(1 - v.me.index());
            cmds.push(Command::Send {
                to: peer,
                msg: Message::new(TAG_DISPATCH, (sent + received) as u64),
            });
        }
        let threshold = if v.me.index() == 0 {
            threshold_a
        } else {
            threshold_b
        };
        if received >= threshold && !v.has_acted(ACT_ATTACK) {
            cmds.push(Command::Act {
                action: ACT_ATTACK,
                data: 0,
            });
        }
        cmds
    });
    let budget = Limits::none().max_runs(4096).budget();
    let adversary = LossyFixedDelay { delay: 1 };
    enumerate_runs(&protocol, &adversary, &intent_specs(horizon), &budget)?.into_system()
}

/// `true` iff processor `i` attacks somewhere in `run`.
pub fn attacks_in(run: Run<'_>, i: AgentId) -> bool {
    run.proc(i)
        .events()
        .iter()
        .any(|e| matches!(e.event, Event::Act { action, .. } if action == ACT_ATTACK))
}

/// Channel variant for the R2–D2 construction of Section 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum R2d2Mode {
    /// Message takes 0 or ε: common knowledge never attained; each level
    /// of `K_R K_D` costs ε (the paper's main example).
    Uncertain,
    /// Message takes exactly ε: `sent(m)` becomes common knowledge at
    /// `t_S + ε`.
    Exact,
    /// Message takes 0 or ε but carries its send time: common knowledge of
    /// `sent(m′)` at `t_S + ε`.
    Timestamped,
}

/// The R2–D2 system: sender R2 (p0) and receiver D2 (p1) share a perfect
/// global clock; a single message is sent at one of the times `j·ε`
/// for `j = 0..pre+post`, with delivery delay per [`R2d2Mode`]. The *focus*
/// send time is `t_S = pre·ε`, with `pre` slack runs on each side so the
/// indistinguishability chain is not clipped at the focus (size `pre`
/// strictly greater than the modal depth you inspect).
#[derive(Debug, Clone)]
pub struct R2d2 {
    /// The system of runs.
    pub system: System,
    /// The delay bound ε (ticks).
    pub eps: u64,
    /// The focus send time `t_S`.
    pub ts: u64,
    /// Run where the focus message takes the full ε ("r′" in the paper);
    /// `None` in [`R2d2Mode::Exact`]... no — Exact keeps only slow runs, so
    /// this is always present.
    pub focus_slow: RunId,
    /// Run where the focus message arrives instantly ("r" in the paper);
    /// `None` in [`R2d2Mode::Exact`].
    pub focus_fast: Option<RunId>,
}

/// Builds the R2–D2 system. `pre` and `post` are the number of ε-slots
/// before and after the focus send time.
pub fn r2d2(eps: u64, pre: usize, post: usize, mode: R2d2Mode) -> R2d2 {
    assert!(eps >= 1, "ε must be at least one tick");
    let slots = pre + post + 1;
    let horizon = (slots as u64 + 1) * eps;
    let mut runs = SystemBuilder::new();
    let mut focus_slow = None;
    let mut focus_fast = None;
    for j in 0..slots {
        let send_at = j as u64 * eps;
        let payload = match mode {
            R2d2Mode::Timestamped => send_at,
            _ => 0,
        };
        let msg = Message::new(TAG_M, payload);
        let mut mk = |name: String, deliver_at: u64| -> RunId {
            runs.run(name, 2, horizon)
                .wake(AgentId::new(0), 0, 0)
                .wake(AgentId::new(1), 0, 0)
                .perfect_clock(AgentId::new(0), 0)
                .perfect_clock(AgentId::new(1), 0)
                .event(
                    AgentId::new(0),
                    send_at,
                    Event::Send {
                        to: AgentId::new(1),
                        msg,
                    },
                )
                .event(
                    AgentId::new(1),
                    deliver_at,
                    Event::Recv {
                        from: AgentId::new(0),
                        msg,
                    },
                )
                .finish()
        };
        if mode != R2d2Mode::Exact {
            let fast = mk(format!("r{j}_fast"), send_at);
            if j == pre {
                focus_fast = Some(fast);
            }
        }
        let slow = mk(format!("r{j}_slow"), send_at + eps);
        if j == pre {
            focus_slow = Some(slow);
        }
    }
    R2d2 {
        system: runs.build(),
        eps,
        ts: pre as u64 * eps,
        focus_slow: focus_slow.expect("focus slot exists"),
        focus_fast,
    }
}

/// The Section 11 OK-protocol: R2 and D2 have perfectly synchronised
/// clocks; each sends "OK" at time 0, and at each time `k ≥ 1` sends "OK"
/// iff it has received `k` OK-messages so far. Delivery is instantaneous
/// or the message is lost — "delivered within one time unit" at our tick
/// granularity — with losses confined to the window
/// `[0, horizon − 2]` ([`InstantOrLostWindow`]) so that every loss is
/// detected by both processors inside the truncated run, as it is in the
/// paper's infinite runs.
///
/// The fact ψ = "it is time `k ≥ 1` and some message sent at or before
/// `k−1` was not delivered instantly" satisfies `ψ ⊃ C^1 ψ`: *failed*
/// communication creates ε-common knowledge that communication failed.
///
/// # Panics
///
/// Panics if `horizon < 2`.
///
/// # Errors
///
/// Propagates [`EnumerateError`].
pub fn ok_protocol_system(horizon: u64) -> Result<System, EnumerateError> {
    assert!(horizon >= 2, "OK protocol needs horizon >= 2");
    let protocol = FnProtocol::new("ok", move |v: &LocalView<'_>| {
        let clock = v.clock.expect("OK protocol runs with clocks");
        let k = clock as usize;
        let received = v.count_received_tag(TAG_OK);
        if received >= k {
            let peer = AgentId::new(1 - v.me.index());
            vec![Command::Send {
                to: peer,
                msg: Message::new(TAG_OK, clock),
            }]
        } else {
            Vec::new()
        }
    });
    let spec = ExecutionSpec::simple(2, horizon).with_clocks(Clocks::Offset(vec![0, 0]));
    let adversary = InstantOrLostWindow {
        lossy_until: horizon - 2,
    };
    let budget = Limits::none().max_runs(65536).budget();
    enumerate_runs(&protocol, &adversary, &[spec], &budget)?.into_system()
}

/// The ψ of the OK-protocol example: at `(run, t)`, some message sent at
/// time `≤ t−1` was never delivered (under [`InstantOrLostWindow`], "not
/// delivered instantly" and "lost" coincide).
pub fn ok_psi(run: Run<'_>, t: u64) -> bool {
    if t == 0 {
        return false;
    }
    for (i, p) in run.procs().enumerate() {
        let recipient = run.proc(AgentId::new(1 - i));
        for e in p.events() {
            if let Event::Send { msg, .. } = e.event {
                if e.time < t {
                    let delivered = recipient.events().iter().any(|r| {
                        matches!(r.event, Event::Recv { msg: m2, .. } if m2 == msg)
                            && r.time == e.time
                    });
                    if !delivered {
                        return true;
                    }
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    #[test]
    fn generals_runs_are_indexed_by_deliveries() {
        // A round trip costs two ticks: transit (1) plus the tick at which
        // the receive enters the recipient's history. The k-th delivery
        // lands at time 2k−1, so horizon 6 admits 0..=3 deliveries, one
        // run each.
        let sys = generals_system(6, &Budget::unlimited()).unwrap();
        let mut counts: Vec<usize> = sys
            .runs()
            .map(|(_, r)| r.deliveries_before(r.horizon() + 1))
            .collect();
        counts.sort_unstable();
        // The extra 0 is the no-intent silent run.
        assert_eq!(counts, vec![0, 0, 1, 2, 3]);
    }

    #[test]
    fn generals_run_ceiling_spans_both_intents() {
        let specs = intent_specs(12);
        let adversary = LossyFixedDelay { delay: 1 };
        let enumerate = |limits: &Limits| {
            enumerate_runs(&handshake_protocol(), &adversary, &specs, &limits.budget())
        };
        let full = enumerate(&Limits::none()).unwrap();
        assert_eq!(full.num_runs(), 1 + 7, "silent run plus d = 0..=6");
        assert!(!full.truncated);
        // One ceiling spans both intents: 3 runs admits the silent
        // intent0 run and stops inside intent1.
        let strict = Limits::none().max_runs(3);
        assert!(matches!(
            enumerate(&strict),
            Err(EnumerateError::Limit(e)) if e.limit == 3
        ));
        let e = enumerate(&strict.allow_partial(true)).unwrap();
        assert!(e.truncated);
        assert_eq!(e.num_runs(), 3);
        let sys = e.into_system().unwrap();
        assert!(sys.run(RunId(0)).name().starts_with("intent0"));
    }

    #[test]
    fn generals_attack_unsafe_when_thresholds_low() {
        // B attacks after 1 message, A after 1: in the run where only the
        // first message is delivered, B... wait B gets msg 1 → attacks; A
        // never gets the ack → A needs 1 received: never attacks. Unsafe.
        let sys = generals_attack_system(4, 1, 1).unwrap();
        let unsafe_run = sys
            .runs()
            .find(|&(_, r)| attacks_in(r, a(1)) && !attacks_in(r, a(0)));
        assert!(unsafe_run.is_some(), "must contain a lone-attacker run");
    }

    #[test]
    fn r2d2_uncertain_structure() {
        let r = r2d2(2, 2, 2, R2d2Mode::Uncertain);
        assert_eq!(r.system.num_runs(), 10, "fast+slow per slot");
        assert_eq!(r.ts, 4);
        let slow = r.system.run(r.focus_slow);
        assert_eq!(slow.proc(a(1)).events()[0].time, r.ts + r.eps);
        let fast = r.system.run(r.focus_fast.unwrap());
        assert_eq!(fast.proc(a(1)).events()[0].time, r.ts);
    }

    #[test]
    fn r2d2_exact_has_only_slow_runs() {
        let r = r2d2(2, 1, 1, R2d2Mode::Exact);
        assert_eq!(r.system.num_runs(), 3);
        assert!(r.focus_fast.is_none());
    }

    #[test]
    fn r2d2_timestamped_carries_send_time() {
        let r = r2d2(3, 1, 1, R2d2Mode::Timestamped);
        let slow = r.system.run(r.focus_slow);
        match slow.proc(a(0)).events()[0].event {
            Event::Send { msg, .. } => assert_eq!(msg.data, r.ts),
            other => panic!("expected send, got {other}"),
        }
    }

    #[test]
    fn ok_protocol_all_delivered_run_exists_and_is_quietest() {
        let sys = ok_protocol_system(4).unwrap();
        // There is a run where ψ never holds (all delivered)...
        let perfect = sys
            .runs()
            .find(|&(_, r)| (0..=r.horizon()).all(|t| !ok_psi(r, t)));
        assert!(perfect.is_some());
        // ... and a run where everything is lost, where ψ holds from t=1.
        let broken = sys
            .runs()
            .find(|(_, r)| r.deliveries_before(r.horizon() + 1) == 0)
            .map(|(_, r)| r)
            .expect("all-lost run");
        assert!(ok_psi(broken, 1));
        assert!(!ok_psi(broken, 0));
    }

    #[test]
    fn ok_protocol_stops_after_loss() {
        let sys = ok_protocol_system(4).unwrap();
        // In the all-lost run, each proc sends at t=0 and then (receiving
        // nothing) never again.
        let (_, broken) = sys
            .runs()
            .find(|(_, r)| r.deliveries_before(r.horizon() + 1) == 0)
            .expect("all-lost run");
        for i in 0..2 {
            let sends = broken
                .proc(a(i))
                .events()
                .iter()
                .filter(|e| matches!(e.event, Event::Send { .. }))
                .count();
            assert_eq!(sends, 1, "p{i} sends only the initial OK");
        }
    }
}
