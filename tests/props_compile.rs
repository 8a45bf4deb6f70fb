//! Differential property tests of the compiled evaluator: the flat
//! instruction buffer produced by `hm-logic::compile` must agree with the
//! tree-walking reference evaluator on every frame and every well-formed
//! formula — random Kripke models up to 4096 worlds for the static
//! fragment (including `ν`/`µ` fixed points), and random interpreted
//! systems for the temporal operators. The same generators check the
//! interval domain: on a subsystem that lost some runs, three-valued
//! verdicts must bracket the full system's exact ones.

use halpern_moses::kripke::{
    random_model, AgentGroup, AgentId, RandomModelSpec, SplitMix64, WorldId,
};
use halpern_moses::limits::Budget;
use halpern_moses::logic::{
    compile, evaluate, evaluate_interval, evaluate_tree, Formula, Frame, F,
};
use halpern_moses::runs::{
    CompleteHistory, Event, InterpretedSystem, Message, System, SystemBuilder,
};
use proptest::prelude::*;

fn g2() -> AgentGroup {
    AgentGroup::all(2)
}

/// Random static-fragment formulas over atoms q0/q1 and two agents,
/// including monotone fixed-point binders: `νX. E_G(φ ∧ X)` and
/// `µX. φ ∨ S_G X` shapes, nested and shadowing freely.
fn static_formula() -> impl Strategy<Value = F> {
    let leaf = prop_oneof![
        Just(Formula::atom("q0")),
        Just(Formula::atom("q1")),
        Just(Formula::tt()),
        Just(Formula::ff()),
    ];
    leaf.prop_recursive(5, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and([a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or([a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::implies(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            (0usize..2, inner.clone()).prop_map(|(i, a)| Formula::knows(AgentId::new(i), a)),
            (1u32..3, inner.clone()).prop_map(|(k, a)| Formula::everyone_k(g2(), k, a)),
            inner.clone().prop_map(|a| Formula::someone(g2(), a)),
            inner.clone().prop_map(|a| Formula::distributed(g2(), a)),
            inner.clone().prop_map(|a| Formula::common(g2(), a)),
            // Monotone binders: the variable occurs positively by
            // construction; nesting re-binds X, exercising slot
            // resolution under shadowing.
            inner.clone().prop_map(|a| Formula::gfp(
                "X",
                Formula::everyone(g2(), Formula::and([a, Formula::var("X")]))
            )),
            inner.prop_map(|a| Formula::lfp(
                "X",
                Formula::or([a, Formula::someone(g2(), Formula::var("X"))])
            )),
        ]
    })
}

/// Random temporal formulas for interpreted systems: the static fragment
/// plus the run-temporal and ε/◇/timestamp operators of Sections 11–12.
fn temporal_formula() -> impl Strategy<Value = F> {
    static_formula().prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::next),
            inner.clone().prop_map(Formula::eventually),
            inner.clone().prop_map(Formula::always),
            inner.clone().prop_map(Formula::once),
            (0u64..3, inner.clone()).prop_map(|(e, a)| Formula::everyone_eps(g2(), e, a)),
            (0u64..3, inner.clone()).prop_map(|(e, a)| Formula::common_eps(g2(), e, a)),
            inner.clone().prop_map(|a| Formula::everyone_ev(g2(), a)),
            inner.clone().prop_map(|a| Formula::common_ev(g2(), a)),
            (0usize..2, 0u64..6, inner.clone()).prop_map(|(i, t, a)| Formula::knows_at(
                AgentId::new(i),
                t,
                a
            )),
            (0u64..6, inner.clone()).prop_map(|(t, a)| Formula::everyone_ts(g2(), t, a)),
            (0u64..6, inner).prop_map(|(t, a)| Formula::common_ts(g2(), t, a)),
        ]
    })
}

/// A deterministic random two-processor system: 2–4 runs over horizon
/// 3–5, random wakes, optional skewed clocks, random send/receive events.
fn random_system(seed: u64) -> InterpretedSystem {
    interpret(random_runs(seed))
}

/// The runs of [`random_system`].
fn random_runs(seed: u64) -> System {
    let mut rng = SplitMix64::new(seed);
    let horizon = 3 + rng.next_below(3);
    let clocked = rng.next_bool(1, 2);
    let num_runs = 2 + rng.next_below(3) as usize;
    let mut runs = SystemBuilder::new();
    for r in 0..num_runs {
        let mut b = runs.run(format_args!("r{r}"), 2, horizon);
        let mut wakes = [0u64; 2];
        for (i, wake_slot) in wakes.iter_mut().enumerate() {
            let wake = rng.next_below(2);
            *wake_slot = wake;
            b = b.wake(AgentId::new(i), wake, rng.next_below(3));
            if clocked {
                b = b.perfect_clock(AgentId::new(i), rng.next_below(2));
            }
        }
        for (i, &wake) in wakes.iter().enumerate() {
            for _ in 0..rng.next_below(3) {
                let span = horizon - wake + 1;
                let t = wake + rng.next_below(span);
                let msg = Message::tagged(rng.next_below(3) as u32);
                let other = AgentId::new(1 - i);
                let event = if rng.next_bool(1, 2) {
                    Event::Send { to: other, msg }
                } else {
                    Event::Recv { from: other, msg }
                };
                b = b.event(AgentId::new(i), t, event);
            }
        }
        b.finish();
    }
    runs.build()
}

/// Interprets runs with the view and facts of [`random_system`].
fn interpret(runs: System) -> InterpretedSystem {
    InterpretedSystem::builder(runs, CompleteHistory)
        .fact("q0", |run, t| {
            (t + run.proc(AgentId::new(0)).initial_state()) % 2 == 0
        })
        .fact("q1", |run, t| run.deliveries_before(t + 1) > 0)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_matches_tree_walk_static(f in static_formula(), seed in 0u64..400) {
        let m = random_model(seed, RandomModelSpec::default());
        let compiled = compile(&f).unwrap();
        let bound = compiled.bind(&m).unwrap();
        let set = compiled.eval_bound_budgeted(&m, &bound, &Budget::unlimited()).unwrap();
        prop_assert_eq!(&set, &evaluate_tree(&m, &f).unwrap(), "formula {}", f);
        // The public `evaluate` wrapper is the compiled path.
        prop_assert_eq!(set, evaluate(&m, &f).unwrap());
    }

    #[test]
    fn compiled_matches_tree_walk_temporal(f in temporal_formula(), seed in 0u64..400) {
        let isys = random_system(seed);
        prop_assert_eq!(
            evaluate(&isys, &f).unwrap(),
            evaluate_tree(&isys, &f).unwrap(),
            "formula {}", f
        );
    }

    #[test]
    fn bound_reuse_is_stable(f in static_formula(), seed in 0u64..200) {
        // bind once, evaluate repeatedly: identical results each time.
        let m = random_model(seed, RandomModelSpec::default());
        let compiled = compile(&f).unwrap();
        let bound = compiled.bind(&m).unwrap();
        let unlimited = Budget::unlimited();
        let first = compiled.eval_bound_budgeted(&m, &bound, &unlimited).unwrap();
        prop_assert_eq!(&first, &compiled.eval_bound_budgeted(&m, &bound, &unlimited).unwrap());
        prop_assert_eq!(first, evaluate_tree(&m, &f).unwrap());
    }
}

/// `true` when `f` has no knowledge-like operator: only Booleans, the
/// run-local temporal operators and fixed points over them.
fn knowledge_free(f: &Formula) -> bool {
    let local = matches!(
        f,
        Formula::True
            | Formula::False
            | Formula::Atom(_)
            | Formula::Var(_)
            | Formula::Not(_)
            | Formula::And(_)
            | Formula::Or(_)
            | Formula::Implies(..)
            | Formula::Iff(..)
            | Formula::Gfp(..)
            | Formula::Lfp(..)
            | Formula::Next(_)
            | Formula::Eventually(_)
            | Formula::Always(_)
            | Formula::Once(_)
    );
    let mut children = true;
    f.for_each_child(|c| children &= knowledge_free(c));
    local && children
}

/// Knowledge-free formulas over the temporal fragment: Booleans and the
/// run-local operators only.
fn run_local_formula() -> impl Strategy<Value = F> {
    let leaf = prop_oneof![
        Just(Formula::atom("q0")),
        Just(Formula::atom("q1")),
        Just(Formula::tt()),
        Just(Formula::ff()),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::and([a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::or([a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Formula::iff(a, b)),
            inner.clone().prop_map(Formula::next),
            inner.clone().prop_map(Formula::eventually),
            inner.clone().prop_map(Formula::always),
            inner.prop_map(Formula::once),
        ]
    })
}

/// Checks the interval domain against the full system: drops a random
/// non-empty proper subset of the runs of `random_system(seed)`,
/// rebuilds the subsystem with the same view and facts, and requires
/// `lo ⊆ truth ⊆ hi` at every surviving point (matched by run name and
/// time), with an exact interval for knowledge-free formulas.
fn check_truncated_bracket(f: &F, seed: u64, drop_seed: u64) -> Result<(), TestCaseError> {
    let runs = random_runs(seed);
    let full = interpret(runs.clone());
    let mut rng = SplitMix64::new(drop_seed);
    let subsets = (1u64 << runs.num_runs()) - 2;
    let keep_mask = 1 + rng.next_below(subsets);
    let mut kept = SystemBuilder::new();
    for (id, run) in runs.runs() {
        if keep_mask & (1 << id.index()) != 0 {
            kept.push_run(run);
        }
    }
    let part = interpret(kept.build());
    let truth = evaluate_tree(&full, f).unwrap();
    let iv = evaluate_interval(&part, f, &Budget::unlimited()).unwrap();
    for w in 0..part.num_worlds() {
        let w = WorldId::new(w);
        let point = part.locate(w);
        let name = part.system().run(point.run).name();
        let full_run = full.system().run_by_name(name).unwrap();
        let holds = truth.contains(full.world(full_run, point.time));
        prop_assert!(
            !iv.lo().contains(w) || holds,
            "{} definitely true at {}@{}, false in the full system",
            f,
            name,
            point.time
        );
        prop_assert!(
            iv.hi().contains(w) || !holds,
            "{} definitely false at {}@{}, true in the full system",
            f,
            name,
            point.time
        );
    }
    if knowledge_free(f) {
        prop_assert!(iv.is_exact(), "knowledge-free {} must be exact", f);
    }
    Ok(())
}

proptest! {
    // Unsound kernels show up only where a dropped run shares a view
    // with a surviving point; a too-strong lower bound first fails
    // around case 70, so keep a wide margin.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn intervals_on_truncated_systems_bracket_full_verdicts(
        f in temporal_formula(),
        seed in 0u64..400,
        drop_seed in 0u64..1000,
    ) {
        check_truncated_bracket(&f, seed, drop_seed)?;
    }

    #[test]
    fn knowledge_free_intervals_on_truncated_systems_are_exact(
        f in run_local_formula(),
        seed in 0u64..400,
        drop_seed in 0u64..1000,
    ) {
        prop_assert!(knowledge_free(&f));
        check_truncated_bracket(&f, seed, drop_seed)?;
    }
}

proptest! {
    // Large universes: few cases, each up to 4096 worlds.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn compiled_matches_tree_walk_up_to_4096_worlds(
        f in static_formula(),
        n in 64usize..4097,
        seed in 0u64..100_000,
    ) {
        let m = random_model(seed, RandomModelSpec {
            num_agents: 2,
            num_worlds: n,
            num_atoms: 2,
            max_blocks: n / 8 + 1,
        });
        prop_assert_eq!(
            evaluate(&m, &f).unwrap(),
            evaluate_tree(&m, &f).unwrap(),
            "n={} formula {}", n, f
        );
    }
}

#[test]
fn spot_check_known_denotations() {
    // A fixed chain model where every operator's denotation is known —
    // guards against the differential tests agreeing on a shared bug.
    let mut b = halpern_moses::kripke::ModelBuilder::new(2);
    for i in 0..3 {
        b.add_world(format!("w{i}"));
    }
    let p = b.atom("q0");
    b.set_atom(p, WorldId::new(0), true);
    b.set_atom(p, WorldId::new(1), true);
    b.set_partition_by_key(AgentId::new(0), |w| w.index().max(1));
    b.set_partition_by_key(AgentId::new(1), |w| w.index().min(1));
    let m = b.build();
    let cases: &[(&str, &[usize])] = &[
        ("q0", &[0, 1]),
        ("K0 q0", &[0, 1]),
        ("K1 q0", &[0]),
        ("E{0,1} q0", &[0]),
        ("C{0,1} q0", &[]),
        ("nu X. E{0,1} (q0 & $X)", &[]),
    ];
    for (src, worlds) in cases {
        let f = halpern_moses::logic::parse(src).unwrap();
        let got = evaluate(&m, &f).unwrap();
        let want: Vec<usize> = got.iter().map(|w| w.index()).collect();
        assert_eq!(&want, worlds, "{src}");
    }
}
