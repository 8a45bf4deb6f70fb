//! Microbenchmarks of the substrates: bitset operations, partition
//! knowledge kernels, reachability, bisimulation minimisation, run
//! enumeration scaling, and one agent's view pass over a large system.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hm_core::agreement::{agreement_system, AgreementSpec, Reduction, SymmetricHistory};
use hm_engine::{Budget, Engine, Limits};
use hm_kripke::{
    minimize, random_model, AgentGroup, AgentId, KripkeModel, ModelBuilder, Partition,
    RandomModelSpec, SplitMix64, WorldId, WorldSet,
};
use hm_logic::Frame;
use hm_netsim::{enumerate_runs, Command, ExecutionSpec, FnProtocol, LocalView, LossyFixedDelay};
use hm_runs::{CompleteHistory, Message, System, ViewFunction, ViewInterner};
use std::hint::black_box;

fn random_set(n: usize, seed: u64) -> WorldSet {
    let mut rng = SplitMix64::new(seed);
    let mut s = WorldSet::empty(n);
    for w in 0..n {
        if rng.next_bool(1, 2) {
            s.insert(WorldId::new(w));
        }
    }
    s
}

fn bench_bitsets(c: &mut Criterion) {
    let mut group = c.benchmark_group("worldset");
    for n in [256usize, 4096, 65536] {
        let a = random_set(n, 1);
        let b = random_set(n, 2);
        group.bench_with_input(BenchmarkId::new("union", n), &n, |bench, _| {
            bench.iter(|| black_box(a.union(&b)))
        });
        group.bench_with_input(BenchmarkId::new("count", n), &n, |bench, _| {
            bench.iter(|| black_box(a.count()))
        });
        group.bench_with_input(BenchmarkId::new("subset", n), &n, |bench, _| {
            bench.iter(|| black_box(a.is_subset(&b)))
        });
    }
    group.finish();
}

fn bench_partitions(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    for n in [256usize, 4096] {
        let mut rng = SplitMix64::new(7);
        let keys: Vec<u64> = (0..n).map(|_| rng.next_below(n as u64 / 8 + 1)).collect();
        let p = Partition::from_key(n, |w| keys[w.index()]);
        let keys2: Vec<u64> = (0..n).map(|_| rng.next_below(16)).collect();
        let q = Partition::from_key(n, |w| keys2[w.index()]);
        let a = random_set(n, 3);
        group.bench_with_input(BenchmarkId::new("knowledge", n), &n, |bench, _| {
            bench.iter(|| black_box(p.knowledge(&a)))
        });
        group.bench_with_input(BenchmarkId::new("meet", n), &n, |bench, _| {
            bench.iter(|| black_box(p.meet(&q)))
        });
        group.bench_with_input(BenchmarkId::new("join", n), &n, |bench, _| {
            bench.iter(|| black_box(p.join(&q)))
        });
    }
    group.finish();
}

fn bench_ck_ablation(c: &mut Criterion) {
    // B13 ablation (DESIGN.md): common knowledge via G-reachability
    // components vs via greatest-fixed-point iteration.
    let mut group = c.benchmark_group("common_knowledge");
    for n in [64usize, 256, 1024] {
        let m = random_model(
            42,
            RandomModelSpec {
                num_agents: 3,
                num_worlds: n,
                num_atoms: 1,
                max_blocks: n / 4,
            },
        );
        let g = AgentGroup::all(3);
        let fact = m.atom_set(0.into());
        group.bench_with_input(BenchmarkId::new("reachability", n), &n, |bench, _| {
            bench.iter(|| black_box(m.common_knowledge(&g, &fact)))
        });
        group.bench_with_input(BenchmarkId::new("gfp", n), &n, |bench, _| {
            bench.iter(|| black_box(m.common_knowledge_gfp(&g, &fact)))
        });
    }
    group.finish();
}

/// The point model of a registry spec, as `hm ask` builds it.
fn point_model(spec: &str) -> KripkeModel {
    let session = Engine::for_scenario(spec).build().expect("registry spec");
    session.interpreted().expect("run system").model().clone()
}

/// A path of `n` worlds with an atom at one end, its two agents pairing
/// neighbours alternately: already minimal, and the round-based
/// refinement needed about one round per world for it.
fn ladder(n: usize) -> KripkeModel {
    let mut b = ModelBuilder::new(2);
    b.add_worlds(n);
    let q = b.atom("q0");
    b.set_atom(q, WorldId::new(0), true);
    b.set_partition_by_key(AgentId::new(0), |w| w.index() / 2);
    b.set_partition_by_key(AgentId::new(1), |w| w.index().div_ceil(2));
    b.build()
}

fn bench_minimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("minimize");
    let models = [
        (
            "agreement_n3_f2_naive",
            point_model("agreement:n=3,f=2,mode=naive"),
        ),
        (
            "r2d2_eps6_pre8_post8",
            point_model("r2d2:eps=6,pre=8,post=8"),
        ),
        ("ladder_4096", ladder(4096)),
    ];
    for (name, model) in &models {
        group.bench_function(name, |bench| {
            bench.iter(|| black_box(minimize(model, &Budget::unlimited()).unwrap()))
        });
    }
    group.finish();
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate");
    for msgs in [4usize, 8, 12] {
        let protocol = FnProtocol::new("burst", move |v: &LocalView<'_>| {
            if v.me.index() == 0 && v.sent().count() < msgs {
                vec![Command::Send {
                    to: AgentId::new(1),
                    msg: Message::new(1, v.sent().count() as u64),
                }]
            } else {
                Vec::new()
            }
        });
        group.bench_with_input(
            BenchmarkId::new("lossy_2^k_runs", msgs),
            &msgs,
            |bench, _| {
                bench.iter(|| {
                    black_box(
                        enumerate_runs(
                            &protocol,
                            &LossyFixedDelay { delay: 1 },
                            &[ExecutionSpec::simple(2, msgs as u64 + 2)],
                            &Limits::none().max_runs(1 << 14).budget(),
                        )
                        .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Agent 0's view id at every point of `system`, and the number of
/// distinct views: the `interpret` layer's per-agent pass, without the
/// budget and the partition.
fn view_pass(system: &System, view: &dyn ViewFunction) -> (usize, usize) {
    let mut interner = ViewInterner::new();
    let mut ids = Vec::with_capacity(system.num_points());
    for (_, run) in system.runs() {
        view.intern_run(run, AgentId::new(0), &mut interner, &mut ids);
    }
    (ids.len(), interner.len())
}

fn bench_views(c: &mut Criterion) {
    let mut group = c.benchmark_group("views");
    let system = |n, f, reduction| {
        agreement_system(AgreementSpec { n, f }, reduction, &Budget::unlimited()).unwrap()
    };
    let f3 = system(4, 3, Reduction::Symmetric);
    let view = SymmetricHistory::new(4);
    group.bench_function("symmetric_history_n4_f3_reduced", |bench| {
        bench.iter(|| black_box(view_pass(&f3, &view)))
    });
    drop(f3);
    let naive = system(4, 2, Reduction::Naive);
    group.bench_function("complete_history_n4_f2_naive", |bench| {
        bench.iter(|| black_box(view_pass(&naive, &CompleteHistory)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bitsets, bench_partitions, bench_ck_ablation, bench_minimize, bench_enumeration,
        bench_views
}
criterion_main!(benches);
