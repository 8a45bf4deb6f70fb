//! Property tests: a view's incremental [`ViewFunction::intern_run`]
//! induces exactly the partition its from-scratch definition does.
//!
//! For every agent, the points of a system are partitioned twice: once
//! by interning whole runs with `intern_run` (the history trie, for the
//! views that override it), once by interning every point's
//! [`ViewFunction::encode_view`] encoding. The two labelings must agree
//! up to renaming of the labels.
//!
//! The random systems cover what the trie's token argument leans on:
//! clockless runs, constant clocks, clocks that repeat readings, several
//! events at one tick, processors that wake late or never. Every run
//! also gets a *retimed twin*, its event sequences unchanged but spread
//! over other ticks: without an advancing clock the twin's histories
//! equal the original's, so a trie that chained whole ticks, instead of
//! single events, would split points the definition merges.

use halpern_moses::core::agreement::{
    agreement_system, AgreementSpec, Reduction, SymmetricHistory,
};
use halpern_moses::kripke::AgentId;
use halpern_moses::limits::Budget;
use halpern_moses::runs::{
    last_event_view, ClockOnly, CompleteHistory, Event, Message, SharedLambda, System,
    SystemBuilder, TimedEvent, ViewFunction, ViewInterner,
};
use proptest::prelude::*;

/// SplitMix64, for drawing one system from one seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

/// How a random processor reads time.
#[derive(Clone, Copy)]
enum Clock {
    None,
    Constant,
    /// Nondecreasing, advancing by 0 or 1 per tick.
    Stuttering,
    /// `t + offset`, stored as the offset alone.
    Perfect,
}

/// One processor's draw: wake time, initial state, clock, and its event
/// sequence (times are assigned separately, so a twin can retime it).
struct ProcDraw {
    wake: Option<u64>,
    initial: u64,
    clock: Clock,
    events: Vec<Event>,
}

/// A clock as handed to the builder.
#[derive(Clone, Debug)]
enum ClockRef {
    None,
    Perfect(u64),
    Readings(Vec<u64>),
}

/// What one processor's record was built from: the reference the run
/// store must read back.
#[derive(Clone, Debug)]
struct ProcRef {
    wake: Option<u64>,
    initial: u64,
    clock: ClockRef,
    /// In time order (the builder may receive them otherwise).
    events: Vec<TimedEvent>,
}

impl ProcRef {
    fn reading(&self, t: u64) -> Option<u64> {
        match &self.clock {
            ClockRef::None => None,
            ClockRef::Perfect(offset) => Some(t + offset),
            ClockRef::Readings(r) => r.get(t as usize).copied(),
        }
    }
}

/// One run as plain data.
#[derive(Clone, Debug)]
struct RunRef {
    name: String,
    horizon: u64,
    procs: Vec<ProcRef>,
}

/// A small alphabet, so that histories often coincide across runs.
fn random_event(rng: &mut Rng, n: usize) -> Event {
    let peer = AgentId::new(rng.below(n as u64) as usize);
    let msg = Message::new(rng.below(2) as u32, rng.below(2));
    match rng.below(3) {
        0 => Event::Send { to: peer, msg },
        1 => Event::Recv { from: peer, msg },
        _ => Event::Act {
            action: 0,
            data: rng.below(2),
        },
    }
}

/// `count` nondecreasing times in `from..=to`.
fn random_times(rng: &mut Rng, count: usize, from: u64, to: u64) -> Vec<u64> {
    let mut times: Vec<u64> = (0..count)
        .map(|_| from + rng.below(to - from + 1))
        .collect();
    times.sort_unstable();
    times
}

fn draw_run(name: String, horizon: u64, procs: &[ProcDraw], rng: &mut Rng) -> RunRef {
    let procs = procs
        .iter()
        .map(|p| {
            let Some(wake) = p.wake else {
                return ProcRef {
                    wake: None,
                    initial: 0,
                    clock: ClockRef::None,
                    events: Vec::new(),
                };
            };
            let clock = match p.clock {
                Clock::None => ClockRef::None,
                Clock::Constant => ClockRef::Readings(vec![7; horizon as usize + 1]),
                Clock::Stuttering => {
                    let mut c = rng.below(3);
                    ClockRef::Readings(
                        (0..=horizon)
                            .map(|_| {
                                c += rng.below(2);
                                c
                            })
                            .collect(),
                    )
                }
                Clock::Perfect => ClockRef::Perfect(rng.below(3)),
            };
            let events = random_times(rng, p.events.len(), wake, horizon)
                .into_iter()
                .zip(&p.events)
                .map(|(t, &e)| TimedEvent::new(t, e))
                .collect();
            ProcRef {
                wake: Some(wake),
                initial: p.initial,
                clock,
                events,
            }
        })
        .collect();
    RunRef {
        name,
        horizon,
        procs,
    }
}

/// 1–4 random runs over 1–3 processors, each followed by a retimed twin.
fn random_runs(seed: u64) -> Vec<RunRef> {
    let mut rng = Rng(seed);
    let n = 1 + rng.below(3) as usize;
    let horizon = rng.below(6);
    let mut runs = Vec::new();
    for r in 0..=rng.below(4) {
        let procs: Vec<ProcDraw> = (0..n)
            .map(|_| ProcDraw {
                wake: match rng.below(4) {
                    0 => None,
                    1 => Some(rng.below(horizon + 1)),
                    _ => Some(0),
                },
                initial: rng.below(2),
                clock: match rng.below(4) {
                    0 => Clock::None,
                    1 => Clock::Constant,
                    2 => Clock::Stuttering,
                    _ => Clock::Perfect,
                },
                events: (0..rng.below(6))
                    .map(|_| random_event(&mut rng, n))
                    .collect(),
            })
            .collect();
        runs.push(draw_run(format!("r{r}"), horizon, &procs, &mut rng));
        runs.push(draw_run(format!("r{r}-twin"), horizon, &procs, &mut rng));
    }
    runs
}

/// The system of `runs`. With `explicit_clocks`, perfect clocks are
/// handed over as their readings instead. Odd-numbered runs push their
/// events latest tick first (each tick's events still in order), so the
/// builder's stable sort must restore the reference order.
fn store(runs: &[RunRef], explicit_clocks: bool) -> System {
    let mut sb = SystemBuilder::new();
    for (k, run) in runs.iter().enumerate() {
        let mut b = sb.run(&run.name, run.procs.len(), run.horizon);
        for (i, p) in run.procs.iter().enumerate() {
            let agent = AgentId::new(i);
            let Some(wake) = p.wake else { continue };
            b = b.wake(agent, wake, p.initial);
            b = match &p.clock {
                ClockRef::None => b,
                ClockRef::Perfect(offset) if !explicit_clocks => b.perfect_clock(agent, *offset),
                ClockRef::Perfect(offset) => {
                    b.clock_readings(agent, (0..=run.horizon).map(|t| t + offset))
                }
                ClockRef::Readings(r) => b.clock_readings(agent, r.iter().copied()),
            };
            let mut ticks: Vec<&[TimedEvent]> =
                p.events.chunk_by(|x, y| x.time == y.time).collect();
            if k % 2 == 1 {
                ticks.reverse();
            }
            for e in ticks.into_iter().flatten() {
                b = b.event(agent, e.time, e.event);
            }
        }
        b.finish();
    }
    sb.build()
}

/// A random system of 1–4 runs over 1–3 processors, each run followed
/// by a retimed twin.
fn random_system(seed: u64) -> System {
    store(&random_runs(seed), false)
}

/// Asserts that every accessor of `system` reads back exactly what its
/// builder was given in `runs`.
fn check_store(system: &System, runs: &[RunRef]) {
    assert_eq!(system.num_runs(), runs.len());
    let points: u64 = runs.iter().map(|r| r.horizon + 1).sum();
    assert_eq!(system.num_points() as u64, points);
    let events: usize = runs
        .iter()
        .flat_map(|r| &r.procs)
        .map(|p| p.events.len())
        .sum();
    assert_eq!(system.num_events(), events);
    for ((id, run), want) in system.runs().zip(runs) {
        let ctx = &want.name;
        assert_eq!(run.name(), want.name);
        assert_eq!(system.run_by_name(&want.name), Some(id), "{ctx}");
        assert_eq!(run.horizon(), want.horizon, "{ctx}");
        assert_eq!(run.num_points(), want.horizon + 1, "{ctx}");
        assert_eq!(run.num_procs(), want.procs.len(), "{ctx}");
        assert_eq!(run.procs().len(), want.procs.len(), "{ctx}");
        for (i, (p, w)) in run.procs().zip(&want.procs).enumerate() {
            assert_eq!(p, run.proc(AgentId::new(i)), "{ctx} p{i}");
            assert_eq!(p.wake_time(), w.wake, "{ctx} p{i}");
            assert_eq!(p.initial_state(), w.initial, "{ctx} p{i}");

            assert_eq!(p.events(), &w.events[..], "{ctx} p{i}");
            for t in 0..=want.horizon + 1 {
                let awake = w.wake.is_some_and(|wake| t >= wake);
                assert_eq!(p.awake_at(t), awake, "{ctx} p{i} t={t}");
                let reading = w.reading(t).filter(|_| awake && t <= want.horizon);
                assert_eq!(p.clock_at(t), reading, "{ctx} p{i} t={t}");
                let before: Vec<TimedEvent> =
                    w.events.iter().copied().filter(|e| e.time < t).collect();
                assert_eq!(
                    p.events_before(t).copied().collect::<Vec<_>>(),
                    before,
                    "{ctx} p{i} t={t}"
                );
                let recvs = before.iter().filter(|e| e.event.is_recv()).count();
                assert_eq!(p.recvs_before(t), recvs, "{ctx} p{i} t={t}");
            }
        }
        for t in 0..=want.horizon + 1 {
            let recvs = |pred: &dyn Fn(u64) -> bool| {
                want.procs
                    .iter()
                    .flat_map(|p| &p.events)
                    .filter(|e| e.event.is_recv() && pred(e.time))
                    .count()
            };
            assert_eq!(run.deliveries_before(t), recvs(&|u| u < t), "{ctx} t={t}");
            assert_eq!(run.silent_from(t), recvs(&|u| u >= t) == 0, "{ctx} t={t}");
        }
    }
}

/// Labels renumbered in first-seen order: equal iff the two labelings
/// induce the same partition.
fn canonical(labels: &[u32]) -> Vec<u32> {
    let mut seen = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = seen.len() as u32;
            *seen.entry(l).or_insert(next)
        })
        .collect()
}

/// Checks `intern_run` against per-point `encode_view` + `intern` for
/// every agent of `system`; describes the first disagreement.
fn check_view(view: &dyn ViewFunction, system: &System) -> Result<(), String> {
    for i in 0..system.num_procs() {
        let agent = AgentId::new(i);
        let mut incremental = ViewInterner::new();
        let mut from_scratch = ViewInterner::new();
        let (mut run_ids, mut point_ids) = (Vec::new(), Vec::new());
        let mut key = Vec::new();
        for (_, run) in system.runs() {
            let before = run_ids.len();
            view.intern_run(run, agent, &mut incremental, &mut run_ids);
            if run_ids.len() - before != run.num_points() as usize {
                return Err(format!(
                    "{}: intern_run pushed {} ids for the {} points of {}",
                    view.name(),
                    run_ids.len() - before,
                    run.num_points(),
                    run.name()
                ));
            }
            for t in 0..=run.horizon() {
                key.clear();
                view.encode_view(run, agent, t, &mut key);
                point_ids.push(from_scratch.intern(&key));
            }
        }
        if canonical(&run_ids) != canonical(&point_ids) {
            return Err(format!(
                "{} partitions p{i} differently: incremental {:?}, from scratch {:?}",
                view.name(),
                canonical(&run_ids),
                canonical(&point_ids)
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn intern_run_partitions_like_encode_view(seed in 0u64..u64::MAX) {
        let system = random_system(seed);
        let views: Vec<Box<dyn ViewFunction>> = vec![
            Box::new(CompleteHistory),
            Box::new(SymmetricHistory::new(system.num_procs())),
            Box::new(ClockOnly),
            Box::new(SharedLambda),
            Box::new(last_event_view()),
        ];
        for view in &views {
            let checked = check_view(view.as_ref(), &system);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_reads_back_what_was_built(seed in 0u64..u64::MAX) {
        let runs = random_runs(seed);
        let system = store(&runs, false);
        check_store(&system, &runs);
        // A copy made run by run through `push_run` is the same system.
        let mut copy = SystemBuilder::new();
        for (_, run) in system.runs() {
            copy.push_run(run);
        }
        prop_assert_eq!(copy.build(), system);
    }

    #[test]
    fn perfect_clocks_read_like_their_explicit_readings(seed in 0u64..u64::MAX) {
        let runs = random_runs(seed);
        let (perfect, explicit) = (store(&runs, false), store(&runs, true));
        check_store(&explicit, &runs);
        prop_assert_eq!(&perfect, &explicit);
        let views: Vec<Box<dyn ViewFunction>> = vec![
            Box::new(CompleteHistory),
            Box::new(SymmetricHistory::new(perfect.num_procs())),
            Box::new(ClockOnly),
            Box::new(last_event_view()),
        ];
        for ((_, p), (_, e)) in perfect.runs().zip(explicit.runs()) {
            prop_assert!(p.same_initial_config_and_clocks(e), "{}", p.name());
            prop_assert!(e.same_initial_config_and_clocks(p), "{}", p.name());
            for view in &views {
                for i in 0..perfect.num_procs() {
                    let agent = AgentId::new(i);
                    for t in 0..=p.horizon() {
                        prop_assert_eq!(
                            view.view_key(p, agent, t),
                            view.view_key(e, agent, t),
                            "{} at {}@{} for p{}", view.name(), p.name(), t, i
                        );
                    }
                }
            }
        }
        for view in &views {
            for i in 0..perfect.num_procs() {
                let ids = |system: &System| {
                    let mut interner = ViewInterner::new();
                    let mut ids = Vec::new();
                    for (_, run) in system.runs() {
                        view.intern_run(run, AgentId::new(i), &mut interner, &mut ids);
                    }
                    canonical(&ids)
                };
                prop_assert_eq!(ids(&perfect), ids(&explicit), "{} p{}", view.name(), i);
            }
        }
    }
}

#[test]
fn symmetric_history_intern_run_matches_on_reduced_agreement() {
    for (n, f) in [(3, 1), (3, 2), (4, 1)] {
        let system = agreement_system(
            AgreementSpec { n, f },
            Reduction::Symmetric,
            &Budget::unlimited(),
        )
        .expect("unlimited budget");
        if let Err(e) = check_view(&SymmetricHistory::new(n), &system) {
            panic!("agreement n={n} f={f}: {e}");
        }
    }
}

/// The retimed twin of the generator is what catches tick-chaining:
/// pin that clockless twins really are indistinguishable.
#[test]
fn retimed_clockless_runs_share_their_final_view() {
    let msg = Message::tagged(1);
    let send = Event::Send {
        to: AgentId::new(0),
        msg,
    };
    let act = Event::Act { action: 0, data: 1 };
    let a0 = AgentId::new(0);
    let mut sb = SystemBuilder::new();
    sb.run("together", 1, 3)
        .wake(a0, 0, 0)
        .event(a0, 1, send)
        .event(a0, 1, act)
        .finish();
    sb.run("apart", 1, 3)
        .wake(a0, 0, 0)
        .event(a0, 0, send)
        .event(a0, 2, act)
        .finish();
    let system = sb.build();
    let view = CompleteHistory;
    let (t, a) = (system.run(0.into()), system.run(1.into()));
    assert_eq!(view.view_key(t, a0, 3), view.view_key(a, a0, 3));
    let mut interner = ViewInterner::new();
    let mut ids = Vec::new();
    view.intern_run(t, a0, &mut interner, &mut ids);
    view.intern_run(a, a0, &mut interner, &mut ids);
    assert_eq!(ids[3], ids[7], "one trie node for one history");
    check_view(&view, &system).unwrap();
}
