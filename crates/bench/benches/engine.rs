//! Benchmarks of the `hm-engine` pipeline: compiled vs tree-walking
//! evaluation, and minimised vs raw construction/query.

use criterion::{criterion_group, criterion_main, Criterion};
use hm_core::puzzles::attack::generals_builder;
use hm_core::puzzles::r2d2::r2d2_parts;
use hm_engine::{Budget, Engine, Query};
use hm_kripke::AgentId;
use hm_logic::{compile, evaluate, evaluate_tree, Formula, F};
use hm_netsim::scenarios::R2d2Mode;
use std::hint::black_box;

/// An atom-heavy epistemic query of the E3/E4 shape: Boolean structure
/// over the two generals' facts under interleaved knowledge — the kind of
/// formula whose tree-walk cost is dominated by per-node `&str` atom
/// resolution on a B16-sized model.
fn ladder_query() -> F {
    let d = || Formula::atom("dispatched");
    let a = || Formula::atom("attacking");
    let blend = || {
        Formula::or([
            Formula::and([d(), Formula::not(a())]),
            Formula::and([a(), Formula::not(d())]),
            Formula::and([d(), a()]),
        ])
    };
    let mut f = blend();
    for level in 0..4 {
        let agent = AgentId::new(level % 2);
        f = Formula::and([
            Formula::knows(agent, f),
            blend(),
            blend(),
            blend(),
            Formula::implies(d(), a()),
            Formula::iff(a(), d()),
        ]);
    }
    f
}

fn bench_compiled_vs_tree(c: &mut Criterion) {
    // B16-sized frame: the generals' system at horizon 10 (E3/B03/B16).
    let isys = generals_builder(10, &Budget::unlimited()).unwrap().build();
    let f = ladder_query();
    let mut group = c.benchmark_group("engine_eval");
    group.bench_function("tree_walk", |b| {
        b.iter(|| black_box(evaluate_tree(&isys, &f).unwrap()))
    });
    // Compile once per session lifetime (what a Session caches), evaluate
    // per iteration.
    let compiled = compile(&f).unwrap();
    let bound = compiled.bind(&isys).unwrap();
    let unlimited = Budget::unlimited();
    group.bench_function("compiled", |b| {
        b.iter(|| {
            black_box(
                compiled
                    .eval_bound_budgeted(&isys, &bound, &unlimited)
                    .unwrap(),
            )
        })
    });
    // Compile + bind on every iteration, for the amortisation picture.
    group.bench_function("compile_and_eval", |b| {
        b.iter(|| black_box(evaluate(&isys, &f).unwrap()))
    });
    group.finish();
}

fn bench_minimized_vs_raw(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_build");
    group.bench_function("r2d2_raw", |b| {
        b.iter(|| {
            black_box(Engine::from_system(r2d2_parts(2, 4, 4, R2d2Mode::Uncertain).0).build())
        })
    });
    group.bench_function("r2d2_minimized", |b| {
        b.iter(|| {
            black_box(
                Engine::from_system(r2d2_parts(2, 4, 4, R2d2Mode::Uncertain).0)
                    .minimize(true)
                    .build(),
            )
        })
    });
    group.finish();

    // Query cost on raw vs quotient-backed sessions (same verdicts).
    let mut group = c.benchmark_group("engine_query");
    let q = Query::parse("K0 K1 (sent & !sent_focus) | C{0,1} sent").unwrap();
    let raw = Engine::from_system(r2d2_parts(2, 4, 4, R2d2Mode::Uncertain).0)
        .build()
        .unwrap();
    raw.satisfying(&q).unwrap(); // compile + bind outside the loop
    group.bench_function("raw", |b| b.iter(|| black_box(raw.satisfying(&q).unwrap())));
    let min = Engine::from_system(r2d2_parts(2, 4, 4, R2d2Mode::Uncertain).0)
        .minimize(true)
        .build()
        .unwrap();
    min.satisfying(&q).unwrap();
    group.bench_function("minimized", |b| {
        b.iter(|| black_box(min.satisfying(&q).unwrap()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_compiled_vs_tree, bench_minimized_vs_raw
}
criterion_main!(benches);
