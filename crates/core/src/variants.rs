//! ε-common, eventual, and timestamped common knowledge (Sections 11–12).
//!
//! Executable forms of the claims about the attainable variants:
//!
//! - the temporal hierarchy `C ⊃ C^{ε₁} ⊃ C^{ε₂} ⊃ C^◇` for `ε₁ ≤ ε₂`
//!   ([`check_variant_hierarchy`]);
//! - Theorem 9 ([`check_theorem9`]): if `C^ε φ` (`C^◇ φ`) fails throughout
//!   the message-free run, it fails everywhere — but, unlike Theorem 5,
//!   successful communication *can* prevent it (the OK-protocol example,
//!   [`ok_builder`]);
//! - Theorem 11 ([`check_theorem11`]): asynchronous channels cannot yield
//!   ε-common knowledge;
//! - the fixed point / infinite conjunction gap ([`conjunction_gap`]);
//! - Theorem 12 ([`check_theorem12a`] and friends): how `C^T` relates to
//!   `C`, `C^ε`, `C^◇` depending on clock behaviour, on a skewed-clock
//!   broadcast system ([`skewed_broadcast_builder`]).

use hm_kripke::{AgentGroup, AgentId, WorldId, WorldSet};
use hm_limits::Limits;
use hm_logic::{evaluate, EvalError, Formula, F};
use hm_netsim::scenarios::{ok_protocol_system, ok_psi, TAG_OK};
use hm_netsim::{
    enumerate_runs, Clocks, Command, EnumerateError, ExecutionSpec, FnProtocol, LocalView,
    SynchronousDelay,
};
use hm_runs::{CompleteHistory, InterpretedSystem, Message, RunId};

/// Checks the temporal hierarchy `C ⊆ C^{ε₁} ⊆ … ⊆ C^{εₙ} ⊆ C^◇` for an
/// ascending list of ε values. Returns the first violated inclusion as
/// `(index, world)`, where index 0 is `C ⊆ C^{ε₁}` and the last index is
/// `C^{εₙ} ⊆ C^◇`.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn check_variant_hierarchy(
    isys: &InterpretedSystem,
    g: &AgentGroup,
    fact: &F,
    eps_list: &[u64],
) -> Result<Option<(usize, WorldId)>, EvalError> {
    let mut chain: Vec<WorldSet> = Vec::with_capacity(eps_list.len() + 2);
    chain.push(evaluate(isys, &Formula::common(g.clone(), fact.clone()))?);
    for &e in eps_list {
        chain.push(evaluate(
            isys,
            &Formula::common_eps(g.clone(), e, fact.clone()),
        )?);
    }
    chain.push(evaluate(
        isys,
        &Formula::common_ev(g.clone(), fact.clone()),
    )?);
    for (i, w) in chain.windows(2).enumerate() {
        if let Some(world) = w[0].difference(&w[1]).first() {
            return Ok(Some((i, world)));
        }
    }
    Ok(None)
}

/// Theorem 9 checker for `C^ε` (and, with `eps = None`, for `C^◇`): if the
/// variant fails at *every* point of every message-free run `r⁻`, then it
/// fails at every point of every run with the same initial configuration
/// and clocks as some `r⁻`.
///
/// Returns `Ok(None)` if the conclusion holds (or the hypothesis fails —
/// reported as `Err`-free `Some`-less with `hypothesis_held = false` in
/// [`Theorem9Outcome`]).
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn check_theorem9(
    isys: &InterpretedSystem,
    g: &AgentGroup,
    fact: &F,
    eps: Option<u64>,
) -> Result<Theorem9Outcome, EvalError> {
    let variant = match eps {
        Some(e) => Formula::common_eps(g.clone(), e, fact.clone()),
        None => Formula::common_ev(g.clone(), fact.clone()),
    };
    let holds = evaluate(isys, &variant)?;
    // Message-free runs.
    let silent: Vec<RunId> = isys
        .system()
        .runs()
        .filter(|(_, r)| r.deliveries_before(r.horizon() + 1) == 0)
        .map(|(id, _)| id)
        .collect();
    let hypothesis_held = silent.iter().all(|&rid| {
        (0..=isys.system().run(rid).horizon()).all(|t| !holds.contains(isys.world(rid, t)))
    });
    if !hypothesis_held {
        return Ok(Theorem9Outcome {
            hypothesis_held: false,
            violation: None,
        });
    }
    // Conclusion: no same-config run has the variant anywhere.
    for &sid in &silent {
        let s = isys.system().run(sid);
        for (rid, run) in isys.system().runs() {
            if !run.same_initial_config_and_clocks(s) {
                continue;
            }
            for t in 0..=run.horizon() {
                if holds.contains(isys.world(rid, t)) {
                    return Ok(Theorem9Outcome {
                        hypothesis_held: true,
                        violation: Some((rid, t)),
                    });
                }
            }
        }
    }
    Ok(Theorem9Outcome {
        hypothesis_held: true,
        violation: None,
    })
}

/// Result of [`check_theorem9`] / [`check_theorem11`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Theorem9Outcome {
    /// Whether the theorem's hypothesis (variant fails throughout the
    /// message-free runs) actually held on this system.
    pub hypothesis_held: bool,
    /// A `(run, time)` where the variant holds despite the hypothesis —
    /// `None` means the theorem's conclusion is confirmed.
    pub violation: Option<(RunId, u64)>,
}

/// Theorem 11 checker: in a system with unbounded delivery times, if
/// `C^ε φ` fails at `(r⁻, t)` for a run `r⁻` silent on `[0, t+ε)`, then it
/// fails at `(r, t)` for every same-configuration run `r`. Same outcome
/// shape as Theorem 9.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn check_theorem11(
    isys: &InterpretedSystem,
    g: &AgentGroup,
    fact: &F,
    eps: u64,
) -> Result<Theorem9Outcome, EvalError> {
    let variant = Formula::common_eps(g.clone(), eps, fact.clone());
    let holds = evaluate(isys, &variant)?;
    let mut hypothesis_held = true;
    for (sid, s) in isys.system().runs() {
        for t in 0..=s.horizon() {
            // r⁻ must be silent through [0, t+ε).
            let quiet_bound = (t + eps).min(s.horizon() + 1);
            if s.deliveries_before(quiet_bound) != 0 {
                continue;
            }
            if holds.contains(isys.world(sid, t)) {
                hypothesis_held = false;
                continue;
            }
            for (rid, run) in isys.system().runs() {
                if !run.same_initial_config_and_clocks(s) || t > run.horizon() {
                    continue;
                }
                if holds.contains(isys.world(rid, t)) {
                    return Ok(Theorem9Outcome {
                        hypothesis_held,
                        violation: Some((rid, t)),
                    });
                }
            }
        }
    }
    Ok(Theorem9Outcome {
        hypothesis_held,
        violation: None,
    })
}

/// Measures the fixed-point vs infinite-conjunction gap for `C^◇`
/// (Section 11's final example): returns, per run, the largest
/// `k ≤ k_max` with `(E^◇)^k fact` holding at time 0, together with
/// whether `C^◇ fact` holds there. A run with high `k` and no `C^◇` is
/// the paper's counterexample shape.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn conjunction_gap(
    isys: &InterpretedSystem,
    g: &AgentGroup,
    fact: &F,
    k_max: usize,
) -> Result<Vec<(RunId, usize, bool)>, EvalError> {
    let cev = evaluate(isys, &Formula::common_ev(g.clone(), fact.clone()))?;
    // Iterated E^◇ denotations.
    let mut iterates = Vec::with_capacity(k_max);
    let mut cur = (**fact).clone().arc();
    for _ in 0..k_max {
        cur = Formula::everyone_ev(g.clone(), cur);
        iterates.push(evaluate(isys, &cur)?);
    }
    let mut out = Vec::new();
    for (rid, _) in isys.system().runs() {
        let w0 = isys.world(rid, 0);
        let mut depth = 0;
        for (k, set) in iterates.iter().enumerate() {
            if set.contains(w0) {
                depth = k + 1;
            } else {
                break;
            }
        }
        out.push((rid, depth, cev.contains(w0)));
    }
    Ok(out)
}

/// The OK-protocol system of Section 11, interpreted with the fact `psi`
/// ("it is time `k ≥ 1` and some message sent at or before `k−1` was not
/// delivered instantly") and `ok_sent`; `.build()` materialises it.
///
/// # Errors
///
/// Propagates [`EnumerateError`].
pub fn ok_builder(horizon: u64) -> Result<hm_runs::InterpretedSystemBuilder, EnumerateError> {
    let sys = ok_protocol_system(horizon)?;
    Ok(InterpretedSystem::builder(sys, CompleteHistory)
        .fact("psi", ok_psi)
        .fact("ok_sent", |run, t| {
            run.proc(AgentId::new(0))
                .events_before(t + 1)
                .any(|e| matches!(e.event, hm_runs::Event::Send { msg, .. } if msg.tag == TAG_OK))
        }))
}

/// A two-processor broadcast with skewed clocks, for Theorem 12:
/// p0 sends `v` to p1 when its clock reads 1; delivery takes exactly one
/// tick; p1's clock runs `d` ticks ahead for `d ∈ 0..=skew` (one run per
/// skew value). The fact `sent_v` is stable; `.build()` materialises
/// the interpretation.
///
/// # Errors
///
/// Propagates [`EnumerateError`].
pub fn skewed_broadcast_builder(
    horizon: u64,
    skew: u64,
) -> Result<hm_runs::InterpretedSystemBuilder, EnumerateError> {
    let protocol = FnProtocol::new("broadcast", |v: &LocalView<'_>| {
        if v.me.index() == 0 && v.clock == Some(1) && v.sent().count() == 0 {
            vec![Command::Send {
                to: AgentId::new(1),
                msg: Message::tagged(9),
            }]
        } else {
            Vec::new()
        }
    });
    let specs: Vec<ExecutionSpec> = (0..=skew)
        .map(|d| {
            ExecutionSpec::simple(2, horizon)
                .with_clocks(Clocks::Offset(vec![0, d]))
                .with_label(format!("skew{d}"))
        })
        .collect();
    let budget = Limits::none().max_runs(64).budget();
    let adversary = SynchronousDelay { delay: 1 };
    let sys = enumerate_runs(&protocol, &adversary, &specs, &budget)?.into_system()?;
    Ok(
        InterpretedSystem::builder(sys, CompleteHistory).fact("sent_v", |run, t| {
            run.proc(AgentId::new(0))
                .events_before(t + 1)
                .any(|e| matches!(e.event, hm_runs::Event::Send { .. }))
        }),
    )
}

/// Theorem 12(a): with identical clocks, at any point where the clock
/// reads `stamp`, `C^T ≡ C`. Returns a counterexample world if the
/// equivalence fails at such a point.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn check_theorem12a(
    isys: &InterpretedSystem,
    g: &AgentGroup,
    fact: &F,
    stamp: u64,
) -> Result<Option<WorldId>, EvalError> {
    let ct = evaluate(isys, &Formula::common_ts(g.clone(), stamp, fact.clone()))?;
    let c = evaluate(isys, &Formula::common(g.clone(), fact.clone()))?;
    Ok(at_stamp_points(isys, g, stamp)
        .into_iter()
        .find(|&w| ct.contains(w) != c.contains(w)))
}

/// Theorem 12(b): with clocks within `eps` of each other, at any point
/// where a group member's clock reads `stamp`, `C^T φ ⊃ C^ε φ`.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn check_theorem12b(
    isys: &InterpretedSystem,
    g: &AgentGroup,
    fact: &F,
    stamp: u64,
    eps: u64,
) -> Result<Option<WorldId>, EvalError> {
    let ct = evaluate(isys, &Formula::common_ts(g.clone(), stamp, fact.clone()))?;
    let ce = evaluate(isys, &Formula::common_eps(g.clone(), eps, fact.clone()))?;
    Ok(at_stamp_points(isys, g, stamp)
        .into_iter()
        .find(|&w| ct.contains(w) && !ce.contains(w)))
}

/// Theorem 12(c): if each local clock reads `stamp` at some point of every
/// run, then `C^T φ ⊃ C^◇ φ` (everywhere). Returns a counterexample
/// world, or `Err`-free `None`.
///
/// # Panics
///
/// Panics if the clock-coverage hypothesis fails (caller should pick a
/// stamp within every clock's range).
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn check_theorem12c(
    isys: &InterpretedSystem,
    g: &AgentGroup,
    fact: &F,
    stamp: u64,
) -> Result<Option<WorldId>, EvalError> {
    // Verify the hypothesis.
    for (rid, run) in isys.system().runs() {
        for i in g.iter() {
            let reads = (0..=run.horizon()).any(|t| run.proc(i).clock_at(t) == Some(stamp));
            assert!(
                reads,
                "hypothesis: {i}'s clock never reads {stamp} in {rid}"
            );
        }
    }
    let ct = evaluate(isys, &Formula::common_ts(g.clone(), stamp, fact.clone()))?;
    let cev = evaluate(isys, &Formula::common_ev(g.clone(), fact.clone()))?;
    Ok(ct.difference(&cev).first())
}

/// Worlds where some member of `g`'s clock reads `stamp`.
fn at_stamp_points(isys: &InterpretedSystem, g: &AgentGroup, stamp: u64) -> Vec<WorldId> {
    let mut out = Vec::new();
    for (rid, run) in isys.system().runs() {
        for t in 0..=run.horizon() {
            if g.iter().any(|i| run.proc(i).clock_at(t) == Some(stamp)) {
                out.push(isys.world(rid, t));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::puzzles::attack::{generals_builder, generals_unbounded_builder};
    use hm_limits::Budget;
    use hm_logic::axioms::{
        check_fixed_point_axiom, check_induction_rule, check_s5, sample_sets, ModalOp,
    };

    fn g2() -> AgentGroup {
        AgentGroup::all(2)
    }

    fn generals(horizon: u64) -> InterpretedSystem {
        generals_builder(horizon, &Budget::unlimited())
            .unwrap()
            .build()
    }

    #[test]
    fn temporal_hierarchy_on_generals() {
        let isys = generals(8);
        let fact = Formula::atom("dispatched");
        let v = check_variant_hierarchy(&isys, &g2(), &fact, &[1, 2, 4]).unwrap();
        assert_eq!(v, None, "C ⊆ Cε1 ⊆ Cε2 ⊆ C◇ must hold");
    }

    #[test]
    fn theorem9_on_generals() {
        let isys = generals(8);
        let fact = Formula::atom("dispatched");
        for eps in [Some(1), Some(2), None] {
            let out = check_theorem9(&isys, &g2(), &fact, eps).unwrap();
            assert!(out.hypothesis_held, "eps={eps:?}");
            assert_eq!(out.violation, None, "eps={eps:?}");
        }
    }

    #[test]
    fn ok_protocol_failed_communication_creates_eps_ck() {
        let isys = ok_builder(8).unwrap().build();
        let psi = Formula::atom("psi");
        let ceps = evaluate(&isys, &Formula::common_eps(g2(), 1, psi.clone())).unwrap();
        // In every run whose first loss happens at t=0 (well inside the
        // window — truncation effects live near the horizon, DESIGN.md),
        // C^1 ψ holds from t=1 on: FAILED communication creates ε-common
        // knowledge of ψ.
        let mut found_early_loss = 0;
        for (rid, run) in isys.system().runs() {
            if !ok_psi(run, 1) {
                continue;
            }
            found_early_loss += 1;
            for t in 1..=run.horizon() {
                assert!(
                    ceps.contains(isys.world(rid, t)),
                    "run {rid} t={t}: psi held but C^1 psi did not"
                );
            }
        }
        assert!(found_early_loss >= 3, "expected several early-loss runs");
        // In the all-delivered run C^1 ψ fails everywhere: SUCCESSFUL
        // communication prevents it — no analogue of Theorem 5.
        let (full_id, full) = isys
            .system()
            .runs()
            .find(|&(_, r)| (0..=r.horizon()).all(|t| !ok_psi(r, t)))
            .unwrap();
        for t in 0..=full.horizon() {
            assert!(!ceps.contains(isys.world(full_id, t)), "t={t}");
        }
        // Accordingly Theorem 9's hypothesis fails here (C^ε ψ DOES hold
        // in the message-free run).
        let out = check_theorem9(&isys, &g2(), &psi, Some(1)).unwrap();
        assert!(!out.hypothesis_held);
    }

    #[test]
    fn ceps_violates_knowledge_axiom_somewhere() {
        // Section 11: of S5, C^ε retains only A3 and R1. Exhibit an A1
        // failure: C^1 ψ holds at (lost-run, 0) where ψ itself fails.
        let isys = ok_builder(8).unwrap().build();
        let psi = Formula::atom("psi");
        let ceps = evaluate(&isys, &Formula::common_eps(g2(), 1, psi.clone())).unwrap();
        let psi_set = evaluate(&isys, &psi).unwrap();
        assert!(
            !ceps.difference(&psi_set).is_empty(),
            "C^ε φ ∧ ¬φ must be satisfiable here (knowledge axiom fails)"
        );
    }

    #[test]
    fn ceps_cev_satisfy_a3_r1_and_fixed_point() {
        let isys = generals(6);
        let suite = sample_sets(&isys, &["dispatched"], 4, 11);
        for op in [
            ModalOp::CommonEps(g2(), 1),
            ModalOp::CommonEps(g2(), 2),
            ModalOp::CommonEv(g2()),
        ] {
            let rep = check_s5(&isys, &op, &suite);
            assert!(rep.satisfies_a3_r1(), "{op:?}: {rep:?}");
            assert_eq!(check_fixed_point_axiom(&isys, &op, &suite), None);
            assert_eq!(check_induction_rule(&isys, &op, &suite), None);
        }
    }

    #[test]
    fn theorem11_on_unbounded_delay_generals() {
        // The generals under unbounded delay: C^ε unattainable.
        let isys = generals_unbounded_builder(6, &Budget::unlimited())
            .unwrap()
            .build();
        assert_eq!(
            hm_runs::conditions::check_ng1_prime(isys.system()),
            None,
            "hypothesis: unbounded delivery"
        );
        let out = check_theorem11(&isys, &g2(), &Formula::atom("sent"), 2).unwrap();
        assert!(out.hypothesis_held);
        assert_eq!(out.violation, None);
    }

    #[test]
    fn conjunction_gap_on_generals() {
        let isys = generals(8);
        let fact = Formula::atom("dispatched");
        let gaps = conjunction_gap(&isys, &g2(), &fact, 4).unwrap();
        // The 4-delivery run reaches (E^◇)^k depth ≥ 2 at t=0 yet C^◇
        // fails there — the fixed point is strictly below the conjunction.
        let deepest = gaps.iter().max_by_key(|(_, k, _)| *k).unwrap();
        assert!(deepest.1 >= 2, "expected nontrivial E^◇ depth");
        assert!(!deepest.2, "C^◇ must fail despite the conjunction depth");
    }

    #[test]
    fn theorem12_all_parts() {
        let fact = Formula::atom("sent_v");
        // (a) identical clocks: C^T ≡ C at stamp points.
        let sync = skewed_broadcast_builder(8, 0).unwrap().build();
        assert_eq!(check_theorem12a(&sync, &g2(), &fact, 4).unwrap(), None);
        // (b) clocks within ε=2: C^T ⊃ C^ε at stamp points.
        let skewed = skewed_broadcast_builder(8, 2).unwrap().build();
        assert_eq!(check_theorem12b(&skewed, &g2(), &fact, 5, 2).unwrap(), None);
        // (c) all clocks reach the stamp: C^T ⊃ C^◇ everywhere.
        assert_eq!(check_theorem12c(&skewed, &g2(), &fact, 6).unwrap(), None);
    }

    #[test]
    fn timestamped_ck_is_attained_in_phase_broadcast() {
        // The positive side (Section 12): the broadcast attains C^T of
        // `sent_v` for a late-enough stamp, even with skewed clocks.
        let isys = skewed_broadcast_builder(8, 2).unwrap().build();
        let fact = Formula::atom("sent_v");
        // p1 knows by real time 3; its clock then reads 3+d ≤ 5. Stamp 6
        // is safely after everyone knows.
        let ct = evaluate(&isys, &Formula::common_ts(g2(), 6, fact.clone())).unwrap();
        assert!(ct.is_full(), "C^T[6] sent_v should hold everywhere");
        // An early stamp fails: nobody knows at clock 1.
        let early = evaluate(&isys, &Formula::common_ts(g2(), 1, fact)).unwrap();
        assert!(early.is_empty());
    }
}
