//! The coordinated attack problem (Sections 4 and 7).
//!
//! Analyses of the generals' handshake system built by
//! [`generals_system`]:
//!
//! - the *knowledge ladder*: each delivered message adds exactly one level
//!   of interleaved knowledge `K_B m`, `K_A K_B m`, `K_B K_A K_B m`, …
//!   of the fact `m` = "A has dispatched the messenger" (experiment E3);
//! - Proposition 4: whenever a correct protocol attacks, `ψ ⊃ E ψ` is
//!   valid for ψ = "both generals are attacking", hence `ψ ⊃ C ψ` by the
//!   induction rule;
//! - Corollary 6 corroboration: a sweep over a family of threshold attack
//!   rules, each of which is either unsafe or never attacks.

use hm_kripke::{AgentGroup, AgentId, WorldSet};
use hm_limits::Budget;
use hm_logic::{evaluate, EvalCache, Formula, F};
use hm_netsim::scenarios::{attacks_in, generals_attack_system, generals_system, ACT_ATTACK};
use hm_netsim::{
    enumerate_runs, Command, EnumerateError, ExecutionSpec, FnProtocol, LocalView, UnboundedDelay,
};
use hm_runs::{
    CompleteHistory, Event, InterpretedSystem, InterpretedSystemBuilder, Message, RunId,
};

/// The generals' system ([`generals_system`]) interpreted under complete
/// history, as an un-built builder so callers (the `hm-engine` scenario
/// registry) can set build options — minimisation, in particular —
/// before materialising. The facts used by the analyses:
///
/// - `dispatched` — A has sent its first message (stable);
/// - `attacking` — both generals have the attack action in their history
///   (used with the attack-rule family).
///
/// `budget` governs run enumeration as for
/// [`hm_netsim::enumerate_runs`]; under a partial budget the underlying
/// system may be flagged truncated, which the built
/// [`InterpretedSystem`] reports via `is_partial`.
///
/// # Errors
///
/// [`EnumerateError`] on strict exhaustion, or when a partial budget
/// admitted zero runs.
pub fn generals_builder(
    horizon: u64,
    budget: &Budget,
) -> Result<InterpretedSystemBuilder, EnumerateError> {
    generals_system(horizon, budget).map(builder_with_facts)
}

/// The Theorem 7 frame (Section 7): a single would-be send from A to B
/// under **unbounded** delivery delay (NG1′ instead of NG1), one run
/// family per intent bit. The fact `sent` is "A has dispatched its
/// message" (stable). This is the `generals-unbounded` registry
/// scenario and the E5 frame. `budget` spans both intents, with the
/// semantics of [`generals_builder`].
///
/// # Errors
///
/// [`EnumerateError`] on strict exhaustion, or when a partial budget
/// admitted zero runs.
pub fn generals_unbounded_builder(
    horizon: u64,
    budget: &Budget,
) -> Result<InterpretedSystemBuilder, EnumerateError> {
    let protocol = FnProtocol::new("oneshot", |v: &LocalView<'_>| {
        if v.me.index() == 0 && v.initial_state == 1 && v.sent().count() == 0 {
            vec![Command::Send {
                to: AgentId::new(1),
                msg: Message::tagged(1),
            }]
        } else {
            Vec::new()
        }
    });
    let specs: Vec<ExecutionSpec> = (0..=1u64)
        .map(|intent| {
            ExecutionSpec::simple(2, horizon)
                .with_initial_states(vec![intent, 0])
                .with_label(format!("i{intent}"))
        })
        .collect();
    let adversary = UnboundedDelay { min_delay: 1 };
    let system = enumerate_runs(&protocol, &adversary, &specs, budget)?.into_system()?;
    Ok(
        InterpretedSystem::builder(system, CompleteHistory).fact("sent", |run, t| {
            run.proc(AgentId::new(0))
                .events_before(t + 1)
                .any(|e| matches!(e.event, Event::Send { .. }))
        }),
    )
}

/// Interprets an attack-rule system (see
/// [`generals_attack_system`]).
///
/// # Errors
///
/// Propagates [`EnumerateError`] from run enumeration.
pub fn generals_attack_interpreted(
    horizon: u64,
    threshold_a: usize,
    threshold_b: usize,
) -> Result<InterpretedSystem, EnumerateError> {
    Ok(interpret(generals_attack_system(
        horizon,
        threshold_a,
        threshold_b,
    )?))
}

fn interpret(system: hm_runs::System) -> InterpretedSystem {
    builder_with_facts(system).build()
}

fn builder_with_facts(system: hm_runs::System) -> InterpretedSystemBuilder {
    InterpretedSystem::builder(system, CompleteHistory)
        .fact("dispatched", |run, t| {
            run.proc(AgentId::new(0))
                .events_before(t + 1)
                .any(|e| matches!(e.event, Event::Send { .. }))
        })
        .fact("attacking", |run, t| {
            (0..2).all(|i| {
                run.proc(AgentId::new(i))
                    .events_before(t + 1)
                    .any(|e| matches!(e.event, Event::Act { action, .. } if action == ACT_ATTACK))
            })
        })
}

/// The interleaved knowledge-ladder formula of depth `d` for fact `m`:
/// `d = 1` is `K_B m`, `d = 2` is `K_A K_B m`, `d = 3` is `K_B K_A K_B m`,
/// and so on — the knowledge gained by the `d`-th delivered message.
fn ladder_formula(depth: usize, fact: F) -> F {
    let mut f = fact;
    for level in 1..=depth {
        // Level 1 wraps with K_B (the first message informs B); level 2
        // with K_A; alternating upward.
        let agent = if level % 2 == 1 { 1 } else { 0 };
        f = Formula::knows(AgentId::new(agent), f);
    }
    f
}

/// For the run of the generals' system with exactly `d` deliveries,
/// returns the deepest ladder level that holds at the end of the run
/// (checked up to `max_depth`). Each ladder level is compiled and bound
/// once per `cache`, however many delivery counts `d` the caller sweeps;
/// the cache must be used with this `isys` only.
///
/// # Panics
///
/// Panics if the system has no run with exactly `d` deliveries, or on an
/// evaluation error (ill-formed system).
pub fn ladder_depth_at_end(
    isys: &InterpretedSystem,
    d: usize,
    max_depth: usize,
    cache: &mut EvalCache,
) -> usize {
    let (run_id, run) = isys
        .system()
        .runs()
        .find(|(_, r)| {
            r.proc(AgentId::new(0)).initial_state() == 1
                && r.deliveries_before(r.horizon() + 1) == d
        })
        .unwrap_or_else(|| panic!("no intent run with {d} deliveries"));
    let end = run.horizon();
    let mut depth = 0;
    for cand in 1..=max_depth {
        let f = ladder_formula(cand, Formula::atom("dispatched"));
        let set = cache.eval(isys, &f).expect("well-formed");
        if set.contains(isys.world(run_id, end)) {
            depth = cand;
        } else {
            break;
        }
    }
    depth
}

/// Outcome of checking one attack rule from the threshold family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackRuleOutcome {
    /// Some run has exactly one general attacking: the rule violates the
    /// problem's safety requirement. Contains such a run.
    Unsafe(RunId),
    /// Some run with no successful communication has an attack — the rule
    /// violates the premise that "the divisions do not initially have
    /// plans for launching an attack". Contains such a run.
    AttacksWithoutPlan(RunId),
    /// No general ever attacks in any run.
    NeverAttacks,
    /// Both attack, always together, only after communication — this
    /// would contradict Corollary 6 and must never be produced.
    CoordinatedAttack,
}

/// Classifies the threshold attack rule `(t_a, t_b)` per Corollary 6: a
/// *correct* protocol must attack only simultaneously and never without
/// successful communication; the corollary says the only way to satisfy
/// both is to never attack.
///
/// # Errors
///
/// Propagates [`EnumerateError`] from run enumeration.
pub fn classify_attack_rule(
    horizon: u64,
    threshold_a: usize,
    threshold_b: usize,
) -> Result<AttackRuleOutcome, EnumerateError> {
    let sys = generals_attack_system(horizon, threshold_a, threshold_b)?;
    let a = AgentId::new(0);
    let b = AgentId::new(1);
    let mut any_attack = false;
    for (id, run) in sys.runs() {
        let at_a = attacks_in(run, a);
        let at_b = attacks_in(run, b);
        if at_a != at_b {
            return Ok(AttackRuleOutcome::Unsafe(id));
        }
        if (at_a || at_b) && run.deliveries_before(run.horizon() + 1) == 0 {
            return Ok(AttackRuleOutcome::AttacksWithoutPlan(id));
        }
        any_attack |= at_a;
    }
    Ok(if any_attack {
        AttackRuleOutcome::CoordinatedAttack
    } else {
        AttackRuleOutcome::NeverAttacks
    })
}

/// Proposition 10 corroboration: classifies a threshold attack rule
/// against the *eventual* coordination requirement — whenever one general
/// attacks, the other must attack at some (possibly later) time of the
/// same run. The paper shows even this weakening is unachievable when
/// communication is not guaranteed: every rule is unsafe, attacks without
/// a plan, or never attacks.
///
/// # Errors
///
/// Propagates [`EnumerateError`] from run enumeration.
pub fn classify_eventual_attack_rule(
    horizon: u64,
    threshold_a: usize,
    threshold_b: usize,
) -> Result<AttackRuleOutcome, EnumerateError> {
    let sys = generals_attack_system(horizon, threshold_a, threshold_b)?;
    let a = AgentId::new(0);
    let b = AgentId::new(1);
    let mut any_attack = false;
    for (id, run) in sys.runs() {
        let at_a = attacks_in(run, a);
        let at_b = attacks_in(run, b);
        // Eventual coordination: both-or-neither, with no timing demand.
        if at_a != at_b {
            return Ok(AttackRuleOutcome::Unsafe(id));
        }
        if (at_a || at_b) && run.deliveries_before(run.horizon() + 1) == 0 {
            return Ok(AttackRuleOutcome::AttacksWithoutPlan(id));
        }
        any_attack |= at_a;
    }
    Ok(if any_attack {
        AttackRuleOutcome::CoordinatedAttack
    } else {
        AttackRuleOutcome::NeverAttacks
    })
}

/// Proposition 4, checked on a *correct-by-construction* coordinated
/// system: given an interpreted system and the `attacking` fact, verifies
/// that `attacking ⊃ E_G attacking` is valid and that consequently
/// `attacking ⊃ C_G attacking` is valid (the induction-rule conclusion).
///
/// Returns `(psi_implies_e_psi, psi_implies_c_psi)` validity flags.
///
/// # Panics
///
/// Panics on evaluation errors (ill-formed system).
pub fn proposition4_check(isys: &InterpretedSystem) -> (bool, bool) {
    let g = AgentGroup::all(2);
    let psi = Formula::atom("attacking");
    let e = Formula::implies(psi.clone(), Formula::everyone(g.clone(), psi.clone()));
    let c = Formula::implies(psi.clone(), Formula::common(g, psi));
    (
        evaluate(isys, &e).expect("well-formed").is_full(),
        evaluate(isys, &c).expect("well-formed").is_full(),
    )
}

/// The set of points where `C_{A,B} dispatched` holds — Corollary 6 needs
/// it to be empty in the lossy generals' system.
///
/// # Panics
///
/// Panics on evaluation errors (ill-formed system).
pub fn common_knowledge_of_dispatch(isys: &InterpretedSystem) -> WorldSet {
    let f = Formula::common(AgentGroup::all(2), Formula::atom("dispatched"));
    evaluate(isys, &f).expect("well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_grows_one_level_per_delivery() {
        // Horizon 8 admits runs with d = 0..=4 deliveries.
        let isys = generals_builder(8, &Budget::unlimited()).unwrap().build();
        let mut cache = EvalCache::new();
        for d in 0..=4usize {
            assert_eq!(
                ladder_depth_at_end(&isys, d, 7, &mut cache),
                d,
                "after {d} deliveries the ladder has depth exactly {d}"
            );
        }
    }

    #[test]
    fn dispatch_never_common_knowledge() {
        let isys = generals_builder(8, &Budget::unlimited()).unwrap().build();
        assert!(common_knowledge_of_dispatch(&isys).is_empty());
    }

    #[test]
    fn ladder_formula_shape() {
        let f = ladder_formula(3, Formula::atom("m"));
        assert_eq!(f.to_string(), "K1 K0 K1 m");
        assert_eq!(ladder_formula(0, Formula::atom("m")).to_string(), "m");
    }

    #[test]
    fn threshold_family_is_unsafe_or_silent() {
        // Corollary 6 corroboration: every threshold rule either has a
        // lone-attacker run or never attacks.
        for ta in 0..=3usize {
            for tb in 0..=3usize {
                let out = classify_attack_rule(6, ta, tb).unwrap();
                assert!(
                    !matches!(out, AttackRuleOutcome::CoordinatedAttack),
                    "thresholds ({ta},{tb}) claim coordinated attack"
                );
            }
        }
    }

    #[test]
    fn impossible_thresholds_never_attack() {
        // Thresholds beyond any possible delivery count: nobody attacks.
        let out = classify_attack_rule(4, 9, 9).unwrap();
        assert_eq!(out, AttackRuleOutcome::NeverAttacks);
    }

    #[test]
    fn proposition10_eventual_coordination_is_no_easier() {
        // Even dropping simultaneity, every threshold rule is unsafe or
        // never attacks (Proposition 10).
        for ta in 0..=3usize {
            for tb in 0..=3usize {
                let out = classify_eventual_attack_rule(6, ta, tb).unwrap();
                assert!(
                    !matches!(out, AttackRuleOutcome::CoordinatedAttack),
                    "({ta},{tb}) eventually coordinated — contradicts Prop. 10"
                );
            }
        }
    }
}
