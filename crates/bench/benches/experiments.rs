//! One benchmark group per experiment (B1–B18 in DESIGN.md): times the
//! computation that regenerates each paper claim. The printed series
//! themselves come from `cargo run -p hm-bench --bin experiments`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hm_core::agreement::{
    agreement_builder, agreement_system, check_safety, AgreementSpec, Reduction,
};
use hm_core::attain::{check_ck_twin_invariance, uncertain_start_builder};
use hm_core::consistency::{find_internally_consistent_subsystem, BeliefAssignment};
use hm_core::discovery::{deadlock_system, discovery_trajectory};
use hm_core::hierarchy::hierarchy;
use hm_core::kbp::{knows_own_state_rule, KnowledgeProtocol, Turns};
use hm_core::puzzles::attack::{generals_builder, ladder_depth_at_end};
use hm_core::puzzles::muddy::MuddyChildren;
use hm_core::puzzles::r2d2::{ladder_onsets, r2d2_parts};
use hm_core::variants::{check_theorem9, conjunction_gap, ok_builder, skewed_broadcast_builder};
use hm_engine::Budget;
use hm_kripke::{random_model, AgentGroup, AgentId, RandomModelSpec, WorldSet};
use hm_logic::axioms::{check_s5, sample_sets, ModalOp};
use hm_logic::{evaluate, EvalCache, Formula, Frame};
use hm_netsim::scenarios::R2d2Mode;
use hm_runs::{conditions, InterpretedSystem};
use std::hint::black_box;

fn g2() -> AgentGroup {
    AgentGroup::all(2)
}

fn b01_muddy(c: &mut Criterion) {
    let mut group = c.benchmark_group("b01_muddy_children");
    for n in [4usize, 6, 8, 10] {
        let p = MuddyChildren::new(n);
        let mask = (1u64 << (n / 2)) - 1;
        group.bench_with_input(BenchmarkId::new("rounds", n), &n, |bench, _| {
            bench.iter(|| black_box(p.run_with_announcement(mask)))
        });
    }
    group.finish();
}

/// The generals' system at `horizon`, interpreted.
fn generals(horizon: u64) -> InterpretedSystem {
    generals_builder(horizon, &Budget::unlimited())
        .unwrap()
        .build()
}

fn b02_hierarchy(c: &mut Criterion) {
    let p = MuddyChildren::new(8);
    c.bench_function("b02_hierarchy_n8", |b| {
        b.iter(|| black_box(hierarchy(p.model(), &p.group(), &p.m_set(), 6)))
    });
}

fn b03_attack_ladder(c: &mut Criterion) {
    let isys = generals(10);
    // Warm cache: the bench measures the steady-state sweep, where every
    // ladder level is already compiled and bound (the first iteration
    // pays the one-time cost).
    let mut cache = EvalCache::new();
    c.bench_function("b03_generals_ladder", |b| {
        b.iter(|| {
            for d in 0..=5 {
                black_box(ladder_depth_at_end(&isys, d, 9, &mut cache));
            }
        })
    });
}

fn b04_theorem5(c: &mut Criterion) {
    let isys = generals(8);
    let fact = Formula::atom("dispatched");
    c.bench_function("b04_twin_invariance", |b| {
        b.iter(|| black_box(check_ck_twin_invariance(&isys, &g2(), &fact).unwrap()))
    });
    c.bench_function("b05_ng_conditions", |b| {
        b.iter(|| {
            black_box(conditions::check_ng1(isys.system()));
            black_box(conditions::check_ng2(isys.system()));
        })
    });
}

fn b06_r2d2(c: &mut Criterion) {
    let (builder, meta) = r2d2_parts(2, 4, 4, R2d2Mode::Uncertain);
    let isys = builder.build();
    let mut cache = EvalCache::new();
    c.bench_function("b06_r2d2_ladder_onsets", |b| {
        b.iter(|| black_box(ladder_onsets(&isys, &meta, 3, &mut cache).unwrap()))
    });
}

fn b07_imprecision(c: &mut Criterion) {
    let isys = uncertain_start_builder(5, false).unwrap().build();
    c.bench_function("b07_temporal_imprecision_check", |b| {
        b.iter(|| black_box(conditions::check_temporal_imprecision(isys.system())))
    });
}

fn b08_variants(c: &mut Criterion) {
    let isys = generals(8);
    let fact = Formula::atom("dispatched");
    c.bench_function("b08_ceps_eval", |b| {
        let f = Formula::common_eps(g2(), 2, fact.clone());
        b.iter(|| black_box(evaluate(&isys, &f).unwrap()))
    });
    c.bench_function("b08_cev_eval", |b| {
        let f = Formula::common_ev(g2(), fact.clone());
        b.iter(|| black_box(evaluate(&isys, &f).unwrap()))
    });
}

fn b09_ok_protocol(c: &mut Criterion) {
    c.bench_function("b09_ok_protocol_build_and_eval", |b| {
        b.iter(|| {
            let isys = ok_builder(6).unwrap().build();
            let psi = Formula::atom("psi");
            black_box(check_theorem9(&isys, &g2(), &psi, Some(1)).unwrap())
        })
    });
}

fn b10_conjunction_gap(c: &mut Criterion) {
    let isys = generals(10);
    let fact = Formula::atom("dispatched");
    c.bench_function("b10_conjunction_gap", |b| {
        b.iter(|| black_box(conjunction_gap(&isys, &g2(), &fact, 5).unwrap()))
    });
}

fn b11_fixpoints(c: &mut Criterion) {
    // Generic ν/µ engine on a mid-sized random model.
    let m = random_model(
        9,
        RandomModelSpec {
            num_agents: 3,
            num_worlds: 256,
            num_atoms: 2,
            max_blocks: 32,
        },
    );
    let g = AgentGroup::all(3);
    let f = Formula::gfp(
        "X",
        Formula::everyone(g, Formula::and([Formula::atom("q0"), Formula::var("X")])),
    );
    c.bench_function("b11_gfp_engine_256w", |b| {
        b.iter(|| black_box(hm_logic::evaluate(&m, &f).unwrap()))
    });
}

fn b12_timestamped(c: &mut Criterion) {
    let isys = skewed_broadcast_builder(10, 2).unwrap().build();
    let f = Formula::common_ts(g2(), 7, Formula::atom("sent_v"));
    c.bench_function("b12_ct_eval", |b| {
        b.iter(|| black_box(evaluate(&isys, &f).unwrap()))
    });
}

fn b13_axioms(c: &mut Criterion) {
    let m = random_model(3, RandomModelSpec::default());
    let suite = sample_sets(&m, &["q0", "q1"], 6, 3);
    let g = AgentGroup::all(m.num_agents());
    c.bench_function("b13_s5_check", |b| {
        b.iter(|| black_box(check_s5(&m, &ModalOp::Common(g.clone()), &suite)))
    });
}

fn b14_consistency(c: &mut Criterion) {
    let isys = uncertain_start_builder(5, false).unwrap().build();
    let fact = Frame::atom_set(&isys, "sent").unwrap();
    let beliefs = BeliefAssignment::from_predicates(
        &isys,
        &[
            Box::new(|run: hm_runs::Run<'_>, t: u64| {
                run.proc(AgentId::new(0)).events_before(t).count() > 0
            }),
            Box::new(|run: hm_runs::Run<'_>, t: u64| {
                run.proc(AgentId::new(1)).events_before(t).count() > 0
            }),
        ],
    );
    c.bench_function("b14_ikc_subsystem_search", |b| {
        b.iter(|| black_box(find_internally_consistent_subsystem(&isys, &beliefs, &fact)))
    });
}

fn b15_discovery(c: &mut Criterion) {
    let isys = deadlock_system(3, 12).unwrap();
    c.bench_function("b15_discovery_trajectory", |b| {
        b.iter(|| black_box(discovery_trajectory(&isys, &[1, 2, 0]).unwrap()))
    });
}

fn b16_views(c: &mut Criterion) {
    // Interpretation-building cost (partition interning) per view.
    c.bench_function("b16_interpret_generals", |b| {
        b.iter(|| black_box(generals(10)))
    });
}

fn b17_kbp(c: &mut Criterion) {
    let n = 8;
    let p = MuddyChildren::new(n);
    let sets: Vec<WorldSet> = (0..n).map(|i| p.muddy_set(i)).collect();
    let kbp = KnowledgeProtocol::new(p.model(), Turns::Simultaneous, knows_own_state_rule(sets));
    c.bench_function("b17_kbp_n8", |b| {
        b.iter(|| black_box(kbp.run(p.world(0b1111), Some(&p.m_set()), n + 2)))
    });
}

fn b18_agreement(c: &mut Criterion) {
    c.bench_function("b18_agreement_build_check", |b| {
        b.iter(|| {
            let spec = AgreementSpec { n: 3, f: 1 };
            let system = agreement_system(spec, Reduction::Naive, &Budget::unlimited()).unwrap();
            black_box(check_safety(&system))
        })
    });
    let isys = agreement_builder(
        AgreementSpec { n: 3, f: 1 },
        Reduction::Naive,
        &Budget::unlimited(),
    )
    .unwrap()
    .build();
    let f = Formula::common(AgentGroup::all(3), Formula::atom("min0"));
    c.bench_function("b18_agreement_ck_eval", |b| {
        b.iter(|| black_box(evaluate(&isys, &f).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = b01_muddy, b02_hierarchy, b03_attack_ladder, b04_theorem5, b06_r2d2,
        b07_imprecision, b08_variants, b09_ok_protocol, b10_conjunction_gap,
        b11_fixpoints, b12_timestamped, b13_axioms, b14_consistency,
        b15_discovery, b16_views, b17_kbp, b18_agreement
}
criterion_main!(benches);
