//! Benchmarks of the static analysis layer: what one `Analyzer` pass and
//! one `simplify` pass cost on a B16-sized formula, against what they
//! save — a pre-bind rejection instead of a build-then-fail round trip,
//! and the evaluation delta between a formula and its simplified form.

use criterion::{criterion_group, criterion_main, Criterion};
use hm_core::puzzles::attack::generals_builder;
use hm_engine::{check_spec, Budget};
use hm_kripke::{AgentGroup, AgentId};
use hm_logic::{compile, simplify, Analyzer, Formula, F};
use std::hint::black_box;

/// The B16-sized ladder blend from `benches/engine.rs`: Boolean structure
/// over the generals' facts under four levels of interleaved knowledge.
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

/// The same query wrapped in constant context and a singleton-`C` tower:
/// the shape the simplifier is built to collapse.
fn foldable_query() -> F {
    let g = AgentGroup::singleton(AgentId::new(0));
    let inner = Formula::common(g.clone(), Formula::common(g, ladder_query()));
    Formula::implies(
        Formula::tt(),
        Formula::and([inner, Formula::knows(AgentId::new(1), Formula::tt())]),
    )
}

fn bench_analysis_cost(c: &mut Criterion) {
    let isys = generals_builder(10, &Budget::unlimited()).unwrap().build();
    let f = ladder_query();
    let mut group = c.benchmark_group("analysis_cost");
    // The pass itself, frame-resolved: what every Session.ask pays once
    // per distinct formula.
    group.bench_function("analyze", |b| {
        b.iter(|| black_box(Analyzer::new().frame(&isys).analyze(&f)))
    });
    group.bench_function("simplify", |b| b.iter(|| black_box(simplify(&f))));
    // The quantity the analysis amortises against: one compiled
    // evaluation of the same formula on the same frame.
    let compiled = compile(&f).unwrap();
    let bound = compiled.bind(&isys).unwrap();
    let unlimited = Budget::unlimited();
    group.bench_function("eval_for_scale", |b| {
        b.iter(|| {
            black_box(
                compiled
                    .eval_bound_budgeted(&isys, &bound, &unlimited)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_simplification_payoff(c: &mut Criterion) {
    let isys = generals_builder(10, &Budget::unlimited()).unwrap().build();
    let f = foldable_query();
    let mut group = c.benchmark_group("analysis_payoff");
    // Evaluation cost as written vs after one simplify pass (singleton-C
    // fixpoints become K chains; constant context disappears).
    let compiled = compile(&f).unwrap();
    let bound = compiled.bind(&isys).unwrap();
    let unlimited = Budget::unlimited();
    group.bench_function("eval_as_written", |b| {
        b.iter(|| {
            black_box(
                compiled
                    .eval_bound_budgeted(&isys, &bound, &unlimited)
                    .unwrap(),
            )
        })
    });
    let simplified = compile(&simplify(&f)).unwrap();
    let sbound = simplified.bind(&isys).unwrap();
    group.bench_function("eval_simplified", |b| {
        b.iter(|| {
            black_box(
                simplified
                    .eval_bound_budgeted(&isys, &sbound, &unlimited)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_pre_bind_rejection(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis_reject");
    // What `hm check` pays to refuse a bad query against the declared
    // surface — no run enumeration, no frame construction.
    group.bench_function("check_spec_bad_atom", |b| {
        b.iter(|| black_box(check_spec("generals", "C{0,1} dispatchd", None, false).unwrap()))
    });
    // What the rejection replaces: building the frame only to fail at
    // bind time.
    group.bench_function("build_then_bind_fail", |b| {
        b.iter(|| {
            let isys = generals_builder(10, &Budget::unlimited()).unwrap().build();
            let compiled = compile(&Formula::common(
                AgentGroup::all(2),
                Formula::atom("dispatchd"),
            ))
            .unwrap();
            black_box(compiled.bind(&isys).unwrap_err())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_analysis_cost, bench_simplification_payoff, bench_pre_bind_rejection
}
criterion_main!(benches);
