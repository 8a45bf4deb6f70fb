//! The experiment driver: regenerates the paper-shaped series for every
//! experiment E1–E18 (see DESIGN.md for the index and EXPERIMENTS.md for
//! the recorded outputs).
//!
//! Reached as `cargo run -p hm-bench --bin experiments [-- E1 E6 …]` or
//! `hm exp E1 E6 …` (no names = run everything). Output is
//! deterministic.
//!
//! Every frame is constructed through the `hm-engine` pipeline — by
//! registry spec string (`Engine::for_scenario("uncertain-start:…")`)
//! wherever the frame is registry-served, by
//! `Engine::from_system(..)` where the analysis also needs scenario
//! metadata the registry does not carry (the R2–D2 focus-run ids) — and
//! direct formula evaluations go through `Session` queries: one
//! compiled evaluation path for the whole driver. Analyses that
//! quantify below the formula level (run sweeps, NG conditions, safety
//! checks, puzzle dynamics) consume the session's interpreted system or
//! model.

use hm_core::agreement::{
    agreement_system, check_safety, ck_onset_in_clean_run, AgreementSpec, Reduction,
};
use hm_core::attain::{
    check_ck_run_constant, check_ck_twin_invariance, check_proposition13, ck_set,
    initial_point_reachable_everywhere,
};
use hm_core::consistency::{
    find_internally_consistent_subsystem, knowledge_consistent, BeliefAssignment, IkcOutcome,
};
use hm_core::discovery::{discovery_trajectory, has_deadlock, publication_stamp};
use hm_core::hierarchy::hierarchy;
use hm_core::kbp::{knows_own_state_rule, KnowledgeProtocol, Turns};
use hm_core::puzzles::attack::{classify_attack_rule, ladder_depth_at_end, AttackRuleOutcome};
use hm_core::puzzles::muddy::MuddyChildren;
use hm_core::puzzles::r2d2::{ck_sent, first_time, ladder_onsets, r2d2_parts};
use hm_core::variants::{
    check_theorem12a, check_theorem12b, check_theorem12c, check_theorem9, check_variant_hierarchy,
    conjunction_gap,
};
use hm_engine::{Engine, EngineError, Limits, Query, Session};
use hm_kripke::{AgentGroup, AgentId, WorldSet};
use hm_logic::axioms::{
    check_fixed_point_axiom, check_induction_rule, check_lemma2, check_s5, sample_sets, ModalOp,
};
use hm_logic::{EvalCache, Formula, Frame, F};
use hm_netsim::scenarios::{ok_psi, R2d2Mode};
use hm_runs::{conditions, InterpretedSystem};

/// The experiment names, in driver order.
pub const NAMES: [&str; 18] = [
    "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15",
    "E16", "E17", "E18",
];

/// One experiment body: prints its table, builds frames under the
/// given limits.
type Experiment = fn(&Limits) -> Result<(), EngineError>;

/// Why [`run`] stopped.
#[derive(Debug)]
pub enum ExperimentError {
    /// A requested name is none of [`NAMES`]; nothing was run.
    Unknown {
        /// The requested name.
        name: String,
        /// The experiment name closest by edit distance, if any is
        /// close enough to be a plausible typo.
        suggestion: Option<String>,
    },
    /// An experiment's engine build or query failed.
    Engine(EngineError),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Unknown { name, suggestion } => {
                write!(f, "unknown experiment `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " — did you mean `{s}`?")?;
                }
                write!(f, " (experiments: E1–E18)")
            }
            ExperimentError::Engine(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<EngineError> for ExperimentError {
    fn from(e: EngineError) -> Self {
        ExperimentError::Engine(e)
    }
}

/// Runs the requested experiments (all of them when `requested` is
/// empty), printing each series under a `==== En ====` header.
///
/// Every engine build is governed by `limits` (pass
/// [`Limits::none()`] for the classic ungoverned driver). The deadline
/// is re-anchored per build, so a `--timeout` bounds each frame
/// construction, not the whole sweep.
///
/// # Errors
///
/// [`ExperimentError::Unknown`] for the first requested name that is no
/// experiment, before anything runs; otherwise the first
/// [`EngineError`] an experiment hits — in particular
/// [`EngineError::LimitExceeded`] when a resource budget fires.
pub fn run(requested: &[String], limits: &Limits) -> Result<(), ExperimentError> {
    if let Some(name) = requested.iter().find(|r| !NAMES.contains(&r.as_str())) {
        return Err(ExperimentError::Unknown {
            name: name.clone(),
            suggestion: hm_engine::nearest_name(name, &NAMES),
        });
    }
    let want = |name: &str| requested.is_empty() || requested.iter().any(|r| r == name);

    let experiments: &[(&str, Experiment)] = &[
        ("E1", e1),
        ("E2", e2),
        ("E3", e3),
        ("E4", e4),
        ("E5", e5),
        ("E6", e6),
        ("E7", e7),
        ("E8", e8),
        ("E9", e9),
        ("E10", e10),
        ("E11", e11),
        ("E12", e12),
        ("E13", e13),
        ("E14", e14),
        ("E15", e15),
        ("E16", e16),
        ("E17", e17),
        ("E18", e18),
    ];
    for (name, run) in experiments {
        if want(name) {
            println!("==== {name} ====");
            run(limits)?;
            println!();
        }
    }
    Ok(())
}

fn g2() -> AgentGroup {
    AgentGroup::all(2)
}

/// A registry engine with the driver's resource limits attached.
fn governed(spec: impl Into<String>, limits: &Limits) -> Engine {
    Engine::for_scenario(spec).limits(limits.clone())
}

/// The generals' scenario through the engine.
fn generals_session(horizon: u64, limits: &Limits) -> Result<Session, EngineError> {
    governed("generals", limits).horizon(horizon).build()
}

/// The session's interpreted system (every experiment frame has runs).
fn isys(session: &Session) -> &InterpretedSystem {
    session.interpreted().expect("run-structured session")
}

/// Satisfying set of a formula, via the session's compiled-query cache.
fn sat(session: &Session, f: &F) -> Result<WorldSet, EngineError> {
    session.satisfying(&Query::new(f.clone()))
}

fn e1(_limits: &Limits) -> Result<(), EngineError> {
    println!("muddy children: first all-yes round vs k (paper: round k)");
    println!(
        "n\\k {}",
        (1..=8).map(|k| format!("{k:>3}")).collect::<String>()
    );
    for n in 2..=8usize {
        let p = MuddyChildren::new(n);
        let mut row = format!("{n:>2}  ");
        for k in 1..=n {
            let mask = (1u64 << k) - 1;
            let t = p.run_with_announcement(mask);
            row.push_str(&format!("{:>3}", t.first_yes_round().unwrap()));
        }
        println!("{row}");
    }
    let p = MuddyChildren::new(6);
    let silent = (0..64u64).all(|m| p.run_without_announcement(m).first_yes_round().is_none());
    println!(
        "without announcement, any yes ever (n=6, all masks): {}",
        !silent
    );
    Ok(())
}

fn e2(_limits: &Limits) -> Result<(), EngineError> {
    let p = MuddyChildren::new(6);
    let h = hierarchy(p.model(), &p.group(), &p.m_set(), 5);
    println!("hierarchy denotation sizes on muddy children n=6 (fact m):");
    for (level, set) in &h.levels {
        println!("  |{level:>4}| = {:>3}", set.count());
    }
    println!("inclusions hold: {}", h.inclusions_hold());
    let strict = h
        .strictness_witnesses()
        .iter()
        .map(|w| if w.is_some() { "<" } else { "=" })
        .collect::<Vec<_>>()
        .join(" ");
    println!("adjacent relations (weak side first): {strict}");
    Ok(())
}

fn e3(limits: &Limits) -> Result<(), EngineError> {
    let session = generals_session(10, limits)?;
    println!("generals: interleaved knowledge depth after d deliveries (paper: depth = d)");
    // One cache across the delivery sweep: ladder level `cand` is compiled
    // and bound once, not once per `d`.
    let mut cache = EvalCache::new();
    for d in 0..=5usize {
        println!(
            "  d = {d}: depth {}",
            ladder_depth_at_end(isys(&session), d, 9, &mut cache)
        );
    }
    Ok(())
}

fn e4(limits: &Limits) -> Result<(), EngineError> {
    let session = generals_session(8, limits)?;
    println!(
        "NG1 holds: {}, NG2 holds: {}",
        conditions::check_ng1(session.system().unwrap()).is_none(),
        conditions::check_ng2(session.system().unwrap()).is_none()
    );
    let fact = Formula::atom("dispatched");
    println!(
        "Theorem 5 twin-invariance violations: {}",
        check_ck_twin_invariance(isys(&session), &g2(), &fact)
            .unwrap()
            .len()
    );
    println!(
        "C(dispatched) points: {} (paper: 0)",
        ck_set(isys(&session), &g2(), &fact).unwrap().count()
    );
    println!(
        "Proposition 13 violations: {}",
        check_proposition13(isys(&session), &g2(), &fact)
            .unwrap()
            .len()
    );
    println!("Corollary 6 sweep (thresholds 0..=3 x 0..=3):");
    let mut unsafe_ct = 0;
    let mut inadmissible = 0;
    let mut silent = 0;
    for ta in 0..=3usize {
        for tb in 0..=3usize {
            match classify_attack_rule(8, ta, tb).unwrap() {
                AttackRuleOutcome::Unsafe(_) => unsafe_ct += 1,
                AttackRuleOutcome::AttacksWithoutPlan(_) => inadmissible += 1,
                AttackRuleOutcome::NeverAttacks => silent += 1,
                AttackRuleOutcome::CoordinatedAttack => {
                    println!("  !! coordinated attack at ({ta},{tb}) — contradiction!")
                }
            }
        }
    }
    println!(
        "  unsafe: {unsafe_ct}, attacks-without-plan: {inadmissible}, never-attacks: {silent}, coordinated: 0"
    );
    Ok(())
}

fn e5(limits: &Limits) -> Result<(), EngineError> {
    // Theorem 7 under unbounded delivery.
    let session = governed("generals-unbounded:horizon=7", limits).build()?;
    println!(
        "NG1' holds: {}, NG2 holds: {}",
        conditions::check_ng1_prime(session.system().unwrap()).is_none(),
        conditions::check_ng2(session.system().unwrap()).is_none()
    );
    let fact = Formula::atom("sent");
    println!(
        "Theorem 7 twin-invariance violations: {} | C(sent) points: {} (paper: 0)",
        check_ck_twin_invariance(isys(&session), &g2(), &fact)
            .unwrap()
            .len(),
        ck_set(isys(&session), &g2(), &fact).unwrap().count()
    );
    Ok(())
}

fn e6(limits: &Limits) -> Result<(), EngineError> {
    for eps in [2u64, 3] {
        let (builder, meta) = r2d2_parts(eps, 4, 4, R2d2Mode::Uncertain);
        let session = Engine::from_system(builder)
            .limits(limits.clone())
            .build()?;
        // Caches are frame-tied: each session gets its own.
        let mut cache = EvalCache::new();
        let onsets = ladder_onsets(isys(&session), &meta, 3, &mut cache).unwrap();
        let ts = meta.ts;
        print!("eps={eps}: t_S={ts}, (K_R K_D)^k onsets:");
        for (k, o) in onsets.iter().enumerate() {
            print!(" k={k}:{}", o.map_or("never".into(), |t| t.to_string()));
        }
        println!("  (paper: t_S + k*eps, +1 comprehension tick)");
    }
    let (builder, _meta) = r2d2_parts(2, 4, 4, R2d2Mode::Uncertain);
    let session = Engine::from_system(builder)
        .limits(limits.clone())
        .build()?;
    let mut cache = EvalCache::new();
    let ck = ck_sent(isys(&session), &mut cache).unwrap();
    let last_send = 8 * 2;
    let in_window: usize = session
        .system()
        .unwrap()
        .runs()
        .map(|(rid, run)| {
            (0..last_send.min(run.horizon() + 1))
                .filter(|&t| ck.contains(isys(&session).world(rid, t)))
                .count()
        })
        .sum();
    println!("C(sent) in-window points (uncertain): {in_window} (paper: 0)");
    for (mode, atom) in [
        (R2d2Mode::Exact, "sent"),
        (R2d2Mode::Timestamped, "sent_focus"),
    ] {
        let (builder, meta) = r2d2_parts(2, 3, 3, mode);
        let session = Engine::from_system(builder)
            .limits(limits.clone())
            .build()?;
        let mut cache = EvalCache::new();
        let f = Formula::common(g2(), Formula::atom(atom));
        let onset = first_time(isys(&session), meta.focus_slow, &f, &mut cache).unwrap();
        println!(
            "{mode:?}: C onset {:?} (paper: t_S + eps = {})",
            onset,
            meta.ts + meta.eps
        );
    }
    Ok(())
}

fn e7(limits: &Limits) -> Result<(), EngineError> {
    let session = governed("uncertain-start:horizon=6", limits).build()?;
    let all_reachable = session
        .system()
        .unwrap()
        .runs()
        .all(|(rid, _)| initial_point_reachable_everywhere(isys(&session), &g2(), rid));
    println!("Lemma 14 conclusion ((r,0) reachable from every (r,t)): {all_reachable}");
    let fact = Formula::atom("sent");
    println!(
        "Theorem 8 conclusion (CK constant along runs): {} violations; C(sent) points: {}",
        check_ck_run_constant(isys(&session), &g2(), &fact)
            .unwrap()
            .len(),
        ck_set(isys(&session), &g2(), &fact).unwrap().count()
    );
    let gc = governed("uncertain-start:horizon=8,global_clock=true", limits).build()?;
    let f = Formula::common(g2(), Formula::atom("five_oclock"));
    let ckset = sat(&gc, &f)?;
    println!(
        "global clock contrast: temporal imprecision holds: {}, C(five_oclock) points: {}",
        conditions::check_temporal_imprecision(gc.system().unwrap()).is_none(),
        ckset.count()
    );
    Ok(())
}

fn e8(limits: &Limits) -> Result<(), EngineError> {
    let session = generals_session(8, limits)?;
    let fact = Formula::atom("dispatched");
    println!(
        "variant hierarchy C ⊆ C^1 ⊆ C^2 ⊆ C^3 ⊆ C^◇ violations: {:?}",
        check_variant_hierarchy(isys(&session), &g2(), &fact, &[1, 2, 3]).unwrap()
    );
    let suite = sample_sets(isys(&session), &["dispatched"], 4, 11);
    for op in [ModalOp::CommonEps(g2(), 1), ModalOp::CommonEv(g2())] {
        let rep = check_s5(isys(&session), &op, &suite);
        println!(
            "{op:?}: A3+R1 {}, fixed-point axiom {}, induction rule {}",
            rep.satisfies_a3_r1(),
            check_fixed_point_axiom(isys(&session), &op, &suite).is_none(),
            check_induction_rule(isys(&session), &op, &suite).is_none()
        );
    }
    Ok(())
}

fn e9(limits: &Limits) -> Result<(), EngineError> {
    let session = generals_session(8, limits)?;
    let fact = Formula::atom("dispatched");
    for eps in [Some(1u64), None] {
        let out = check_theorem9(isys(&session), &g2(), &fact, eps).unwrap();
        println!(
            "Theorem 9 ({}) hypothesis held: {}, violations: {:?}",
            eps.map_or("C^◇".into(), |e| format!("C^{e}")),
            out.hypothesis_held,
            out.violation
        );
    }
    let ok = governed("ok:horizon=8", limits).build()?;
    let psi = Formula::atom("psi");
    let ceps = sat(&ok, &Formula::common_eps(g2(), 1, psi.clone()))?;
    let psi_set = sat(&ok, &psi)?;
    let (full, run) = ok
        .system()
        .unwrap()
        .runs()
        .find(|&(_, r)| (0..=r.horizon()).all(|t| !ok_psi(r, t)))
        .unwrap();
    let clean_ceps = (0..=run.horizon())
        .filter(|&t| ceps.contains(isys(&ok).world(full, t)))
        .count();
    println!(
        "OK protocol: C^1(psi) points {}, with ¬psi {} (A1 fails); clean-run C^1 points {} (success prevents it)",
        ceps.count(),
        ceps.difference(&psi_set).count(),
        clean_ceps
    );
    Ok(())
}

fn e10(limits: &Limits) -> Result<(), EngineError> {
    let session = generals_session(10, limits)?;
    let fact = Formula::atom("dispatched");
    println!("run: (E^◇)^k depth at t=0 vs C^◇ at t=0");
    for (rid, depth, cev) in conjunction_gap(isys(&session), &g2(), &fact, 5).unwrap() {
        let name = session.system().unwrap().run(rid).name();
        println!("  {name:<32} depth {depth}  C^◇ {cev}");
    }
    Ok(())
}

fn e11(limits: &Limits) -> Result<(), EngineError> {
    let mut agree = true;
    for seed in 0..20u64 {
        let session = governed(format!("random:seed={seed}"), limits).build()?;
        let m = session.kripke().unwrap();
        let g = AgentGroup::all(m.num_agents());
        let fact = Frame::atom_set(m, "q0").unwrap();
        let mut conj: WorldSet = fact.clone();
        let mut cur = fact.clone();
        for _ in 0..m.num_worlds() + 1 {
            cur = m.everyone_set(&g, &cur);
            conj.intersect_with(&cur);
        }
        agree &= conj == m.common_knowledge(&g, &fact);
    }
    println!("nu X.E(phi ∧ X) == ⋀_k E^k phi on 20 random models: {agree}");
    println!("E^◇ discontinuity: see E10 (conjunction holds to depth k, gfp empty)");
    Ok(())
}

fn e12(limits: &Limits) -> Result<(), EngineError> {
    let fact = Formula::atom("sent_v");
    let sync = governed("skewed:horizon=10,skew=0", limits).build()?;
    println!(
        "Thm 12(a) sync clocks, stamps 3/5/8 counterexamples: {:?} {:?} {:?}",
        check_theorem12a(isys(&sync), &g2(), &fact, 3).unwrap(),
        check_theorem12a(isys(&sync), &g2(), &fact, 5).unwrap(),
        check_theorem12a(isys(&sync), &g2(), &fact, 8).unwrap()
    );
    let skewed = governed("skewed:horizon=10,skew=2", limits).build()?;
    println!(
        "Thm 12(b) skew 2, stamp 6: {:?} | Thm 12(c) stamp 7: {:?}",
        check_theorem12b(isys(&skewed), &g2(), &fact, 6, 2).unwrap(),
        check_theorem12c(isys(&skewed), &g2(), &fact, 7).unwrap()
    );
    let late = sat(&skewed, &Formula::common_ts(g2(), 7, fact.clone()))?;
    let early = sat(&skewed, &Formula::common_ts(g2(), 1, fact))?;
    println!(
        "C^T attainment with skewed clocks: stamp 7 full: {}, stamp 1 empty: {}",
        late.is_full(),
        early.is_empty()
    );
    Ok(())
}

fn e13(limits: &Limits) -> Result<(), EngineError> {
    let mut all_s5 = true;
    let mut all_c1c2 = true;
    for seed in 0..25u64 {
        let session = governed(format!("random:seed={seed}"), limits).build()?;
        let m = session.kripke().unwrap();
        let suite = sample_sets(m, &["q0", "q1"], 5, seed);
        let g = AgentGroup::all(m.num_agents());
        for op in [
            ModalOp::Knows(AgentId::new(0)),
            ModalOp::Distributed(g.clone()),
            ModalOp::Common(g.clone()),
        ] {
            all_s5 &= check_s5(m, &op, &suite).is_s5();
        }
        all_c1c2 &= check_fixed_point_axiom(m, &ModalOp::Common(g.clone()), &suite).is_none();
        all_c1c2 &= check_induction_rule(m, &ModalOp::Common(g.clone()), &suite).is_none();
        all_c1c2 &= check_lemma2(m, &g, &suite).is_none();
    }
    println!("Proposition 1 (S5 for K, D, C) on 25 random models: {all_s5}");
    println!("C1 + C2 + Lemma 2 on 25 random models: {all_c1c2}");
    Ok(())
}

fn e14(limits: &Limits) -> Result<(), EngineError> {
    let session = governed("consistency", limits).build()?;
    let fact = Frame::atom_set(isys(&session), "both_aware").unwrap();
    let beliefs = BeliefAssignment::from_predicates(
        isys(&session),
        &[
            Box::new(move |run: hm_runs::Run<'_>, t: u64| {
                run.proc(AgentId::new(0)).events_before(t).count() > 0
            }),
            Box::new(move |run: hm_runs::Run<'_>, t: u64| {
                run.proc(AgentId::new(1)).events_before(t).count() > 0
            }),
        ],
    );
    println!(
        "eager interpretation knowledge-consistent: {} (paper: no)",
        knowledge_consistent(&beliefs, &fact)
    );
    match find_internally_consistent_subsystem(isys(&session), &beliefs, &fact) {
        IkcOutcome::Consistent(sub) => println!(
            "internally consistent via a subsystem of {} runs (paper: yes — instant delivery)",
            sub.len()
        ),
        IkcOutcome::Inconsistent => println!("internally consistent: NO (unexpected)"),
    }
    Ok(())
}

fn e15(limits: &Limits) -> Result<(), EngineError> {
    let session = governed("deadlock:n=3,horizon=12", limits).build()?;
    println!("wait-for graph -> (D, S, E onsets), C^T stamp");
    for targets in [[1u64, 2, 0], [1, 0, 3], [2, 0, 3], [1, 2, 3]] {
        let traj = discovery_trajectory(isys(&session), &targets).unwrap();
        let stamp = if has_deadlock(&targets) {
            publication_stamp(isys(&session), &targets).unwrap()
        } else {
            None
        };
        println!(
            "  {targets:?} deadlock={} D@{:?} S@{:?} E@{:?} C^T@{:?}",
            has_deadlock(&targets),
            traj.d_onset,
            traj.s_onset,
            traj.e_onset,
            stamp
        );
    }
    Ok(())
}

fn e16(limits: &Limits) -> Result<(), EngineError> {
    let view = |v: &str| -> Result<Session, EngineError> {
        governed(format!("views:view={v}"), limits).build()
    };
    let full = view("complete")?;
    let forgetful = view("last-event")?;
    let lambda = view("lambda")?;
    let k = Formula::knows(AgentId::new(0), Formula::atom("sent_twice"));
    println!(
        "K0(sent_twice) points — complete-history: {}, last-event: {}, lambda: {}",
        sat(&full, &k)?.count(),
        sat(&forgetful, &k)?.count(),
        sat(&lambda, &k)?.count()
    );
    println!("(finest view knows most; lambda knows only valid facts)");
    Ok(())
}

fn e17(_limits: &Limits) -> Result<(), EngineError> {
    let n = 4;
    let p = MuddyChildren::new(n);
    let sets: Vec<WorldSet> = (0..n).map(|i| p.muddy_set(i)).collect();
    let kbp = KnowledgeProtocol::new(p.model(), Turns::Simultaneous, knows_own_state_rule(sets));
    let mut matches = true;
    for mask in 1..(1u64 << n) {
        let t1 = kbp.run(p.world(mask), Some(&p.m_set()), n + 2);
        let t2 = p.run_with_announcement(mask);
        matches &= t1.first_positive_round() == t2.first_yes_round();
    }
    println!(
        "KBP 'say yes iff you know your state' == direct simulation (n=4, all masks): {matches}"
    );
    let p3 = MuddyChildren::new(3);
    let sets: Vec<WorldSet> = (0..3).map(|i| p3.muddy_set(i)).collect();
    let seq = KnowledgeProtocol::new(p3.model(), Turns::RoundRobin, knows_own_state_rule(sets));
    let trace = seq.run(p3.world(0b011), Some(&p3.m_set()), 6);
    println!(
        "sequential variant (children 0,1 muddy): first yes at turn {:?} by child 1 (answer order carries information)",
        trace.first_positive_round()
    );
    Ok(())
}

fn e18(limits: &Limits) -> Result<(), EngineError> {
    let spec = AgreementSpec { n: 3, f: 1 };
    let system = agreement_system(spec, Reduction::Naive, &limits.budget())?;
    let report = check_safety(&system);
    println!(
        "crash-failure EA, n=3 f=1: {} runs, agreement violations {}, validity violations {}",
        report.runs, report.agreement_violations, report.validity_violations
    );
    let session = governed("agreement:n=3,f=1", limits).build()?;
    for inputs in [0b110u64, 0b010, 0b000] {
        println!(
            "  inputs {:03b}: C(decision) onset t={:?} (end of round f+1 = 3)",
            inputs,
            ck_onset_in_clean_run(isys(&session), inputs).unwrap()
        );
    }
    Ok(())
}
