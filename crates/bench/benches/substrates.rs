//! Microbenchmarks of the substrates: bitset operations, partition
//! knowledge kernels, reachability, and run enumeration scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hm_engine::Limits;
use hm_kripke::{
    random_model, AgentGroup, AgentId, Partition, RandomModelSpec, SplitMix64, WorldId, WorldSet,
};
use hm_netsim::{enumerate_runs, Command, ExecutionSpec, FnProtocol, LocalView, LossyFixedDelay};
use hm_runs::Message;
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
                            false,
                        )
                        .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bitsets, bench_partitions, bench_ck_ablation, bench_enumeration
}
criterion_main!(benches);
