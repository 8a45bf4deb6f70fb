//! Experiments E8–E12: the attainable variants of common knowledge
//! (paper Sections 11–12).
//!
//! E8: the temporal hierarchy `C ⊃ C^{ε₁} ⊃ C^{ε₂} ⊃ C^◇`; C^ε/C^◇
//!     satisfy the fixed-point axiom, the induction rule, A3 and R1, but
//!     not the knowledge axiom.
//! E9: Theorem 9 and the OK-protocol (failed communication creates
//!     ε-common knowledge; successful communication prevents it).
//! E10: Theorem 11 and the fixed-point vs infinite-conjunction gap.
//! E12: Theorem 12 (a)–(c) and attainment of C^T in a skewed-clock
//!     broadcast.

use halpern_moses::core::puzzles::attack::generals_builder;
use halpern_moses::core::variants::{
    check_theorem12a, check_theorem12b, check_theorem12c, check_theorem9, check_variant_hierarchy,
    conjunction_gap, ok_builder, skewed_broadcast_builder,
};
use halpern_moses::kripke::AgentGroup;
use halpern_moses::limits::{Budget, Limits};
use halpern_moses::logic::axioms::{
    check_fixed_point_axiom, check_induction_rule, check_s5, sample_sets, ModalOp,
};
use halpern_moses::logic::{evaluate, EvalCache, Formula};
use halpern_moses::netsim::scenarios::ok_psi;
use halpern_moses::runs::InterpretedSystem;

fn g2() -> AgentGroup {
    AgentGroup::all(2)
}

/// The generals' system at `horizon`, interpreted.
fn generals(horizon: u64) -> InterpretedSystem {
    generals_builder(horizon, &Budget::unlimited())
        .unwrap()
        .build()
}

#[test]
fn e8_temporal_hierarchy_chain_valid() {
    let isys = generals(8);
    let fact = Formula::atom("dispatched");
    assert_eq!(
        check_variant_hierarchy(&isys, &g2(), &fact, &[1, 2, 3]).unwrap(),
        None
    );
}

#[test]
fn e8_cev_strictly_weaker_than_ceps() {
    // A reliable asynchronous channel (delivery guaranteed, delay
    // unbounded) attains C^◇ sent but not C^ε sent — the separation the
    // paper draws between Theorem 11 and eventual common knowledge.
    use halpern_moses::kripke::AgentId;
    use halpern_moses::netsim::{
        enumerate_runs, Adversary, Command, ExecutionSpec, FnProtocol, LocalView, Outcome,
    };
    use halpern_moses::runs::{CompleteHistory, Message};

    /// Guaranteed delivery, unbounded delay. Delivery is capped at
    /// horizon − 1 so the receive enters the recipient's history inside
    /// the window (in the paper's infinite runs every delivery is
    /// eventually comprehended; a last-tick delivery in a truncation is
    /// not, which would spuriously unravel C^◇ — see DESIGN.md).
    struct GuaranteedUnbounded;
    impl Adversary for GuaranteedUnbounded {
        fn outcomes(
            &self,
            _k: usize,
            sent_at: u64,
            _f: AgentId,
            _t: AgentId,
            _m: &Message,
            horizon: u64,
        ) -> Vec<Outcome> {
            (sent_at + 1..horizon).map(Outcome::Delivered).collect()
        }
    }

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
            ExecutionSpec::simple(2, 6)
                .with_initial_states(vec![intent, 0])
                .with_label(format!("i{intent}"))
        })
        .collect();
    let budget = Limits::none().max_runs(512).budget();
    let system = enumerate_runs(&protocol, &GuaranteedUnbounded, &specs, &budget)
        .unwrap()
        .into_system()
        .unwrap();
    let isys = InterpretedSystem::builder(system, CompleteHistory)
        .fact("sent", |run, t| {
            run.proc(AgentId::new(0))
                .events_before(t + 1)
                .any(|e| matches!(e.event, halpern_moses::runs::Event::Send { .. }))
        })
        .build();
    let fact = Formula::atom("sent");
    let cev = evaluate(&isys, &Formula::common_ev(g2(), fact.clone())).unwrap();
    let ceps = evaluate(&isys, &Formula::common_eps(g2(), 1, fact)).unwrap();
    assert!(!cev.is_empty(), "C^◇ sent attained on the reliable channel");
    assert!(ceps.is_empty(), "C^1 sent still unattainable (Theorem 11)");
    assert!(ceps.is_subset(&cev));
}

#[test]
fn e8_ceps_strictly_weaker_than_c() {
    // The R2–D2 channel: C^ε(sent) is attained on receipt while plain C
    // never is (inside the window) — "ε-common knowledge is strictly
    // weaker than common knowledge".
    use halpern_moses::core::puzzles::r2d2::{ck_sent, r2d2_parts};
    use halpern_moses::netsim::scenarios::R2d2Mode;
    let (eps, pre, post) = (2u64, 4usize, 4usize);
    let (builder, meta) = r2d2_parts(eps, pre, post, R2d2Mode::Uncertain);
    let isys = builder.build();
    let fact = Formula::atom("sent");
    let ceps = evaluate(&isys, &Formula::common_eps(g2(), eps, fact)).unwrap();
    let c = ck_sent(&isys, &mut EvalCache::new()).unwrap();
    let last_send = (pre + post) as u64 * eps;
    // C^ε holds at the focus run shortly after the send…
    let focus = meta.focus_slow;
    let hit = (0..last_send).any(|t| ceps.contains(isys.world(focus, t)));
    assert!(hit, "C^ε sent should be attained in the window");
    // …where C never does.
    for t in 0..last_send {
        assert!(!c.contains(isys.world(focus, t)));
    }
}

#[test]
fn e8_s5_profile_of_variants() {
    let isys = generals(6);
    let suite = sample_sets(&isys, &["dispatched"], 5, 77);
    for op in [
        ModalOp::CommonEps(g2(), 1),
        ModalOp::CommonEv(g2()),
        ModalOp::CommonTs(g2(), 3),
    ] {
        let rep = check_s5(&isys, &op, &suite);
        assert!(rep.satisfies_a3_r1(), "{op:?}: {rep:?}");
        assert_eq!(check_fixed_point_axiom(&isys, &op, &suite), None, "{op:?}");
        assert_eq!(check_induction_rule(&isys, &op, &suite), None, "{op:?}");
    }
}

#[test]
fn e9_theorem9_for_eps_and_ev() {
    let isys = generals(8);
    let fact = Formula::atom("dispatched");
    for eps in [Some(1), Some(3), None] {
        let out = check_theorem9(&isys, &g2(), &fact, eps).unwrap();
        assert!(out.hypothesis_held, "{eps:?}");
        assert_eq!(out.violation, None, "{eps:?}");
    }
}

#[test]
fn e9_ok_protocol_shape() {
    let isys = ok_builder(8).unwrap().build();
    let psi = Formula::atom("psi");
    let ceps = evaluate(&isys, &Formula::common_eps(g2(), 1, psi.clone())).unwrap();
    // ψ ⊃ C^1 ψ at every point of every early-loss run.
    for (rid, run) in isys.system().runs() {
        if !ok_psi(run, 1) {
            continue;
        }
        for t in 1..=run.horizon() {
            assert!(ceps.contains(isys.world(rid, t)), "{rid} t={t}");
        }
    }
    // The all-delivered run never has C^1 ψ: Theorem 5 has no analogue.
    let (full, run) = isys
        .system()
        .runs()
        .find(|&(_, r)| (0..=r.horizon()).all(|t| !ok_psi(r, t)))
        .unwrap();
    for t in 0..=run.horizon() {
        assert!(!ceps.contains(isys.world(full, t)));
    }
    // And the knowledge axiom fails: C^1 ψ ∧ ¬ψ at (lost-run, 0).
    let psi_set = evaluate(&isys, &psi).unwrap();
    assert!(!ceps.difference(&psi_set).is_empty());
}

#[test]
fn e10_conjunction_gap() {
    let isys = generals(10);
    let fact = Formula::atom("dispatched");
    let gaps = conjunction_gap(&isys, &g2(), &fact, 5).unwrap();
    let max_depth = gaps.iter().map(|(_, k, _)| *k).max().unwrap();
    assert!(max_depth >= 2, "deep (E^◇)^k levels are attainable");
    for (rid, depth, cev) in &gaps {
        if *depth >= 2 {
            assert!(!cev, "{rid}: C^◇ must fail despite (E^◇)^{depth}");
        }
    }
}

#[test]
fn e12_theorem12_parts_and_attainment() {
    let fact = Formula::atom("sent_v");
    // (a) identical clocks.
    let sync = skewed_broadcast_builder(10, 0).unwrap().build();
    for stamp in [3u64, 5, 8] {
        assert_eq!(
            check_theorem12a(&sync, &g2(), &fact, stamp).unwrap(),
            None,
            "stamp={stamp}"
        );
    }
    // (b) skew ≤ ε.
    for skew in [1u64, 2] {
        let isys = skewed_broadcast_builder(10, skew).unwrap().build();
        for stamp in [4u64, 6] {
            assert_eq!(
                check_theorem12b(&isys, &g2(), &fact, stamp, skew).unwrap(),
                None,
                "skew={skew} stamp={stamp}"
            );
        }
    }
    // (c) all clocks reach the stamp.
    let isys = skewed_broadcast_builder(10, 2).unwrap().build();
    assert_eq!(check_theorem12c(&isys, &g2(), &fact, 7).unwrap(), None);
    // Attainment: C^T for a late stamp, empty for an early one.
    let late = evaluate(&isys, &Formula::common_ts(g2(), 7, fact.clone())).unwrap();
    assert!(late.is_full());
    let early = evaluate(&isys, &Formula::common_ts(g2(), 1, fact)).unwrap();
    assert!(early.is_empty());
}

#[test]
fn e12_weak_converse_shape() {
    // With identical clocks, C and C^T[stamp] agree at stamp points for
    // EVERY stamp — so whenever C is attained, the processors could set a
    // common timestamp (the paper's weak converse).
    let sync = skewed_broadcast_builder(10, 0).unwrap().build();
    let fact = Formula::atom("sent_v");
    let c = evaluate(&sync, &Formula::common(g2(), fact.clone())).unwrap();
    assert!(!c.is_empty(), "C is attainable with a global clock");
    for stamp in 0..=9u64 {
        assert_eq!(check_theorem12a(&sync, &g2(), &fact, stamp).unwrap(), None);
    }
}

#[test]
fn e8_eeps_phi_and_not_phi_satisfiable() {
    // Section 11: "it is not hard to construct an example in which
    // E^ε φ ∧ E^ε ¬φ holds" — because the two witnesses may sit at
    // different points of the ε-interval. One clocked processor that
    // knows φ at t=1 and ¬φ at t=2 does it with ε = 1.
    use halpern_moses::kripke::AgentId;
    use halpern_moses::runs::{CompleteHistory, InterpretedSystem, SystemBuilder};
    let mut runs = SystemBuilder::new();
    runs.run("r", 2, 3)
        .wake(AgentId::new(0), 0, 0)
        .wake(AgentId::new(1), 0, 0)
        .perfect_clock(AgentId::new(0), 0)
        .perfect_clock(AgentId::new(1), 0)
        .finish();
    let isys = InterpretedSystem::builder(runs.build(), CompleteHistory)
        .fact("phi", |_r, t| t == 1)
        .build();
    let both = Formula::and([
        Formula::everyone_eps(g2(), 1, Formula::atom("phi")),
        Formula::everyone_eps(g2(), 1, Formula::not(Formula::atom("phi"))),
    ]);
    let holds = evaluate(&isys, &both).unwrap();
    assert!(
        !holds.is_empty(),
        "E^1 phi ∧ E^1 ¬phi should be satisfiable (consequence closure fails)"
    );
}
