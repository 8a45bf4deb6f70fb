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
    last_event_view, ClockOnly, CompleteHistory, Event, Message, Run, RunBuilder, SharedLambda,
    System, ViewFunction, ViewInterner,
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
}

/// One processor's draw: wake time, initial state, clock, and its event
/// sequence (times are assigned separately, so a twin can retime it).
struct ProcDraw {
    wake: Option<u64>,
    initial: u64,
    clock: Clock,
    events: Vec<Event>,
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

fn build_run(name: String, horizon: u64, procs: &[ProcDraw], rng: &mut Rng) -> Run {
    let mut b = RunBuilder::new(name, procs.len(), horizon);
    for (i, p) in procs.iter().enumerate() {
        let agent = AgentId::new(i);
        let Some(wake) = p.wake else { continue };
        b = b.wake(agent, wake, p.initial);
        let readings = match p.clock {
            Clock::None => None,
            Clock::Constant => Some(vec![7; horizon as usize + 1]),
            Clock::Stuttering => {
                let mut c = rng.below(3);
                Some(
                    (0..=horizon)
                        .map(|_| {
                            c += rng.below(2);
                            c
                        })
                        .collect(),
                )
            }
        };
        if let Some(readings) = readings {
            b = b.clock_readings(agent, readings);
        }
        for (&t, &e) in random_times(rng, p.events.len(), wake, horizon)
            .iter()
            .zip(&p.events)
        {
            b = b.event(agent, t, e);
        }
    }
    b.build()
}

/// A random system of 1–4 runs over 1–3 processors, each run followed
/// by a retimed twin.
fn random_system(seed: u64) -> System {
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
                clock: match rng.below(3) {
                    0 => Clock::None,
                    1 => Clock::Constant,
                    _ => Clock::Stuttering,
                },
                events: (0..rng.below(6))
                    .map(|_| random_event(&mut rng, n))
                    .collect(),
            })
            .map(|mut p| {
                if p.wake.is_none() {
                    p.events.clear();
                }
                p
            })
            .collect();
        runs.push(build_run(format!("r{r}"), horizon, &procs, &mut rng));
        runs.push(build_run(format!("r{r}-twin"), horizon, &procs, &mut rng));
    }
    System::new(runs)
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
                    run.name
                ));
            }
            for t in 0..=run.horizon {
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
    let together = RunBuilder::new("together", 1, 3)
        .wake(a0, 0, 0)
        .event(a0, 1, send)
        .event(a0, 1, act)
        .build();
    let apart = RunBuilder::new("apart", 1, 3)
        .wake(a0, 0, 0)
        .event(a0, 0, send)
        .event(a0, 2, act)
        .build();
    let system = System::new(vec![together, apart]);
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
