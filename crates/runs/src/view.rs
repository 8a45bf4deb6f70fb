//! View functions: what a processor can distinguish.
//!
//! Section 6 of Halpern–Moses defines knowledge relative to a *view
//! function* `v` assigning each processor a view at each point, required to
//! be a function of the processor's history. This module provides the
//! spectrum discussed in the paper:
//!
//! - [`CompleteHistory`] — the finest view (the *complete-history
//!   interpretation*), under which processors never forget;
//! - [`SharedLambda`] — the coarsest (a single view `Λ`), under which the
//!   knowledge hierarchy collapses;
//! - [`ClockOnly`] — the processor sees only its clock;
//! - [`StateProjection`] — an arbitrary function of the history
//!   (e.g. a bounded "local state", which may forget).
//!
//! Views are canonical integer encodings *appended into a caller-supplied
//! scratch buffer*: two points get the same view iff their encodings are
//! equal. The interpreted-system builder does not encode point by point,
//! though: it asks the view for a whole run at once
//! ([`ViewFunction::intern_run`]), and gets one dense `u32` view id per
//! point from a [`ViewInterner`]. The default replays each point's
//! encoding through the interner; the history views
//! ([`CompleteHistory`], and the symmetry-canonical view of `hm-core`)
//! instead walk the run once as a hash-consed *history trie*
//! ([`intern_history_trie`]), because a history at `t` is its history at
//! `t − 1` plus one tick. Agent partitions are built directly from the
//! ids (see E16 for the view-spectrum tests over this scheme).

use crate::event::{Event, TimedEvent};
use crate::intern::ViewInterner;
use crate::run::{ProcRecord, Run};
use hm_kripke::AgentId;

/// A view function: assigns a canonical key to each (processor, point).
///
/// Implementations must be functions of the processor's *history* — they
/// may not peek at real time or at other processors' records (this is the
/// paper's requirement that `h(p,r,t) = h(p,r',t')` implies
/// `v(p,r,t) = v(p,r',t')`). [`CompleteHistory`] is the finest admissible
/// view; coarser views must factor through it (spot-checked
/// by the E16 view-spectrum tests).
///
/// [`encode_view`](Self::encode_view) is the definition;
/// [`intern_run`](Self::intern_run) is how frames are built, and an
/// override must induce exactly the partition the definition does.
///
/// `Sync` because each agent's partition is an independent computation
/// (an agent's knowledge depends on its own view alone), and large
/// frames run the agents' [`intern_run`](Self::intern_run) passes on
/// worker threads that share one view.
pub trait ViewFunction: Sync {
    /// Appends the canonical key of processor `i`'s view at `(run, t)`
    /// onto `out` (which may hold unrelated prefix data the implementation
    /// must not touch). Equal appended encodings mean indistinguishable
    /// points.
    fn encode_view(&self, run: Run<'_>, i: AgentId, t: u64, out: &mut Vec<u64>);

    /// Pushes onto `ids` one view id per point `(run, 0..=horizon)` of
    /// processor `i`, from `interner` (shared by every run of one agent
    /// under this view):
    /// two points, in this run or any other run interned into the same
    /// interner, get equal ids iff [`encode_view`](Self::encode_view)
    /// gives them equal encodings. Ids are opaque — only their equality
    /// carries meaning.
    ///
    /// The default interns each point's encoding from scratch, which
    /// costs O(h²) per run of horizon `h` for views that grow with the
    /// history; such views override it with [`intern_history_trie`].
    fn intern_run(
        &self,
        run: Run<'_>,
        i: AgentId,
        interner: &mut ViewInterner,
        ids: &mut Vec<u32>,
    ) {
        let mut key = Vec::new();
        for t in 0..=run.horizon() {
            key.clear();
            self.encode_view(run, i, t, &mut key);
            ids.push(interner.intern(&key));
        }
    }

    /// Convenience form of [`encode_view`](Self::encode_view) returning a
    /// fresh buffer; allocates, so tests and diagnostics only.
    fn view_key(&self, run: Run<'_>, i: AgentId, t: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.encode_view(run, i, t, &mut out);
        out
    }

    /// Short name for diagnostics.
    fn name(&self) -> &'static str;
}

/// Appends the paper's complete history `h(p_i, r, t)` onto `out`: initial
/// state, the *set* of clock values read up to and including `t` (tick
/// counts are not observable — a constant clock reveals nothing about
/// elapsed real time), and the sequence of events before `t`, each stamped
/// with the clock reading at its occurrence when clocks exist.
///
/// Appends nothing for an asleep processor (the empty history, shared by
/// all asleep points).
pub fn encode_complete_history(p: ProcRecord<'_>, t: u64, out: &mut Vec<u64>) {
    let events = p.events();
    encode_history(p, t, &events[..events.partition_point(|e| e.time < t)], out);
}

/// [`encode_complete_history`] with `events` in place of `p`'s events
/// before `t` — for views that record a relabelled copy of the history,
/// such as a symmetry-canonical one. Each event is stamped with `p`'s
/// clock reading at the event's time.
pub fn encode_history(p: ProcRecord<'_>, t: u64, events: &[TimedEvent], out: &mut Vec<u64>) {
    let wake = match p.wake_time() {
        Some(w) if t >= w => w,
        // Asleep: the empty history.
        _ => return,
    };
    out.push(1); // awake marker
    out.push(p.initial_state());
    // Clock value set, deduplicated (monotone, so dedup of the reading
    // sequence from wake to t), preceded by its length.
    if p.has_clock() {
        let count_at = out.len();
        out.push(0); // length, patched below
        let mut last = None;
        for u in wake..=t {
            let v = p.reading(u).expect("clock read past the run's horizon");
            if last != Some(v) {
                out.push(v);
                last = Some(v);
            }
        }
        out[count_at] = (out.len() - count_at - 1) as u64;
    } else {
        out.push(0);
    }
    // Events, clock-stamped, preceded by their count.
    out.push(events.len() as u64);
    for e in events {
        e.event.encode(out);
        out.push(p.clock_at(e.time).map_or(u64::MAX, |c| c));
    }
}

/// [`encode_complete_history`] into a fresh buffer; allocates, so tests
/// and the NG-condition checkers' reference paths only.
pub fn complete_history_key(p: ProcRecord<'_>, t: u64) -> Vec<u64> {
    let mut out = Vec::new();
    encode_complete_history(p, t, &mut out);
    out
}

/// Trie token tag of a newly read clock value; [`Event::encode`] uses
/// tags `0..=2`.
const CLOCK_TOKEN: u64 = 3;

/// The last run a [`ViewInterner`] walked through [`intern_history_trie`]:
/// its processor's raw record and the walk's state at each time, which is
/// what the next run of the pass needs to resume where the two diverge.
#[derive(Debug, Clone, Default)]
pub(crate) struct LastRun {
    /// The processor walked; `None` before the first run.
    agent: Option<AgentId>,
    wake: Option<u64>,
    initial_state: u64,
    events: Vec<TimedEvent>,
    /// Per time `0..=horizon`: the clock reading ([`ProcRecord::clock_at`]).
    clocks: Vec<Option<u64>>,
    /// Per time: the trie node the history ends at (the point's id).
    ids: Vec<u32>,
    /// Per time: the tick state after the events before that time.
    ticks: Vec<u32>,
    /// Scratch for the events a tick records, kept across runs.
    recorded: Vec<Event>,
    /// Scratch for a trie key, kept across runs.
    key: Vec<u64>,
}

impl LastRun {
    /// The last time `s` at which processor `i`'s record `p` has this
    /// run's history: the same wake time and initial state, the same clock
    /// readings up to `s` and the same events before `s`. `None` when they
    /// share no awake prefix.
    fn shared_until(&self, i: AgentId, p: ProcRecord<'_>, horizon: u64) -> Option<u64> {
        if self.agent != Some(i)
            || self.wake != p.wake_time()
            || self.initial_state != p.initial_state()
        {
            return None;
        }
        let wake = p.wake_time()?;
        // Both event sequences are in time order, so the events before `s`
        // agree iff `s` is at most the time of the first that differs.
        let events = p.events();
        let common = self
            .events
            .iter()
            .zip(events)
            .take_while(|(a, b)| a == b)
            .count();
        let diverged = [self.events.get(common), events.get(common)]
            .into_iter()
            .flatten()
            .map(|e| e.time)
            .min()
            .unwrap_or(u64::MAX);
        let last = horizon.min(self.ids.len() as u64 - 1).min(diverged);
        (wake..=last)
            .take_while(|&t| self.clocks[t as usize] == p.clock_at(t))
            .last()
    }

    /// Records time `ids.len()`.
    fn push(&mut self, id: u32, tick: u32, clock: Option<u64>) {
        self.ids.push(id);
        self.ticks.push(tick);
        self.clocks.push(clock);
    }

    /// Forgets every time from `len` on.
    fn truncate(&mut self, len: usize) {
        self.ids.truncate(len);
        self.ticks.truncate(len);
        self.clocks.truncate(len);
    }
}

/// Interns processor `i`'s history in `run` at every time `0..=horizon`
/// as a node of a hash-consed history trie, pushing one id per time onto
/// `ids`: one O(events) pass, where re-encoding every prefix costs O(h²).
///
/// A node is `intern([parent, token…])`, and each step appends one
/// self-delimiting token: an asleep point is the empty key, the awake
/// root is `[initial state]`, and every later step is a clock value read
/// for the first time (`[3, value]`) or one event (its
/// [`Event::encode`], tags `0..=2`, stamp left out). Keys of different
/// kinds differ in length or tag, so two nodes are equal iff their token
/// sequences are. The events of each tick pass through `canonical_tick`,
/// which writes the events the view records for them, in order (the
/// identity for [`CompleteHistory`]; a relabelled, sorted copy for a
/// symmetry-canonical view). It also threads a `u32` tick state of the
/// view's own, `0` at the root (which renamings are still tied, for the
/// symmetry-canonical view).
///
/// The token sequence is a function of the [`encode_history`] encoding
/// of the same recorded events, and determines it back: clock values are
/// monotone, so the events stamped `c` sit right after the token of `c`
/// (events before the first clock token are the unstamped ones), and the
/// stamp each encoding carries is recovered from its position. So equal
/// nodes ⇔ equal encodings. A step is one token, never one tick: without
/// a clock the tick boundaries are not in the encoding, so chaining whole
/// ticks would split points the encoding merges.
///
/// Consecutive runs of a pass mostly share a history prefix, so the walk
/// resumes: `interner` keeps the last run it walked, and when that was
/// processor `i` too, with the same wake time and initial state, the new
/// run copies the ids of every time `s` up to which the clock readings
/// agree and the events before `s` agree, and walks on from the node and
/// tick state recorded at the last such `s`. This is exact only because
/// `canonical_tick`'s output and new state are a function of its state
/// and the tick alone, and because one interner serves one view: the
/// ids are the ones a walk from the root would find.
pub fn intern_history_trie(
    run: Run<'_>,
    i: AgentId,
    interner: &mut ViewInterner,
    ids: &mut Vec<u32>,
    mut canonical_tick: impl FnMut(&mut u32, &[TimedEvent], &mut Vec<Event>),
) {
    let (p, horizon) = (run.proc(i), run.horizon());
    let events = p.events();
    let mut last = std::mem::take(&mut interner.last_run);
    // Walk from time `from`, in the state after time `from - 1`.
    let (from, mut node, mut tick) = match last.shared_until(i, p, horizon) {
        Some(s) => {
            last.truncate(s as usize + 1);
            (s + 1, last.ids[s as usize], last.ticks[s as usize])
        }
        None => {
            last.truncate(0);
            let asleep = interner.intern(&[]);
            let wake = p.wake_time().map_or(horizon + 1, |w| w.min(horizon + 1));
            for _ in 0..wake {
                last.push(asleep, 0, None);
            }
            let root = if wake > horizon {
                asleep
            } else {
                interner.intern(&[p.initial_state()])
            };
            (wake, root, 0)
        }
    };
    let mut next = events.partition_point(|e| e.time + 1 < from);
    let mut last_clock = from.checked_sub(1).and_then(|t| p.clock_at(t));
    for t in from..=horizon {
        // Events before `t` enter the history at `t`, one tick at a time.
        while next < events.len() && events[next].time < t {
            let time = events[next].time;
            let end = next + events[next..].partition_point(|e| e.time == time);
            last.recorded.clear();
            canonical_tick(&mut tick, &events[next..end], &mut last.recorded);
            for e in &last.recorded {
                last.key.clear();
                last.key.push(u64::from(node));
                e.encode(&mut last.key);
                node = interner.intern(&last.key);
            }
            next = end;
        }
        let clock = p.clock_at(t);
        if let Some(c) = clock {
            if last_clock != Some(c) {
                node = interner.intern(&[u64::from(node), CLOCK_TOKEN, c]);
                last_clock = Some(c);
            }
        }
        last.push(node, tick, clock);
    }
    ids.extend_from_slice(&last.ids);
    last.agent = Some(i);
    last.wake = p.wake_time();
    last.initial_state = p.initial_state();
    last.events.clear();
    last.events.extend_from_slice(events);
    interner.last_run = last;
}

/// The complete-history interpretation (finest admissible view).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompleteHistory;

impl ViewFunction for CompleteHistory {
    fn encode_view(&self, run: Run<'_>, i: AgentId, t: u64, out: &mut Vec<u64>) {
        encode_complete_history(run.proc(i), t, out);
    }

    fn intern_run(
        &self,
        run: Run<'_>,
        i: AgentId,
        interner: &mut ViewInterner,
        ids: &mut Vec<u32>,
    ) {
        intern_history_trie(run, i, interner, ids, |_, tick, recorded| {
            recorded.extend(tick.iter().map(|e| e.event));
        });
    }

    fn name(&self) -> &'static str {
        "complete-history"
    }
}

/// The single-view interpretation `Λ` of Section 6: every processor has the
/// same view everywhere, so only system-valid facts are known — and they
/// are common knowledge (the hierarchy collapses).
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedLambda;

impl ViewFunction for SharedLambda {
    fn encode_view(&self, _run: Run<'_>, _i: AgentId, _t: u64, _out: &mut Vec<u64>) {}

    fn name(&self) -> &'static str {
        "shared-lambda"
    }
}

/// A clock-only view: the processor sees nothing but its current clock
/// reading (and whether it is awake). With a global clock this makes "it
/// is 5 o'clock" common knowledge at 5 o'clock (Section 8).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockOnly;

impl ViewFunction for ClockOnly {
    fn encode_view(&self, run: Run<'_>, i: AgentId, t: u64, out: &mut Vec<u64>) {
        let p = run.proc(i);
        if !p.awake_at(t) {
            return;
        }
        out.push(1);
        if let Some(c) = p.clock_at(t) {
            out.push(c);
        }
    }

    fn name(&self) -> &'static str {
        "clock-only"
    }
}

/// A view computed by an arbitrary state-projection function of the
/// history prefix — the "processor's local state" interpretations of
/// Section 6, which can *forget*.
///
/// The projection receives the processor record, the current time and the
/// scratch buffer to append its encoding onto, and must depend only on
/// the history (enforceable by test, not by type).
pub struct StateProjection<F> {
    name: &'static str,
    project: F,
}

impl<F> StateProjection<F>
where
    F: Fn(ProcRecord<'_>, u64, &mut Vec<u64>),
{
    /// Creates a named projection view.
    pub fn new(name: &'static str, project: F) -> Self {
        StateProjection { name, project }
    }
}

impl<F> ViewFunction for StateProjection<F>
where
    F: Fn(ProcRecord<'_>, u64, &mut Vec<u64>) + Sync,
{
    fn encode_view(&self, run: Run<'_>, i: AgentId, t: u64, out: &mut Vec<u64>) {
        (self.project)(run.proc(i), t, out);
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

impl<F> std::fmt::Debug for StateProjection<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StateProjection({})", self.name)
    }
}

/// The "last event only" projection: remembers the initial state, the most
/// recent event, and the clock reading — a deliberately forgetful local
/// state used by experiment E16.
pub fn last_event_view() -> StateProjection<impl Fn(ProcRecord<'_>, u64, &mut Vec<u64>)> {
    StateProjection::new(
        "last-event",
        |p: ProcRecord<'_>, t: u64, out: &mut Vec<u64>| {
            if !p.awake_at(t) {
                return;
            }
            out.push(1);
            out.push(p.initial_state());
            if let Some(c) = p.clock_at(t) {
                out.push(c);
            }
            if let Some(e) = p.events_before(t).last() {
                e.event.encode(out);
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Message};
    use crate::run::RunBuilder;
    use crate::system::{RunId, System, SystemBuilder};

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    /// The one-run system of `make(sb.run("r", procs, horizon))`.
    fn single(procs: usize, horizon: u64, make: impl FnOnce(RunBuilder) -> RunBuilder) -> System {
        let mut sb = SystemBuilder::new();
        make(sb.run("r", procs, horizon)).finish();
        sb.build()
    }

    fn two_event_run() -> System {
        single(2, 4, |b| {
            b.wake(a(0), 0, 7)
                .wake(a(1), 1, 8)
                .event(
                    a(0),
                    1,
                    Event::Send {
                        to: a(1),
                        msg: Message::tagged(1),
                    },
                )
                .event(
                    a(0),
                    3,
                    Event::Send {
                        to: a(1),
                        msg: Message::tagged(2),
                    },
                )
        })
    }

    #[test]
    fn complete_history_grows_with_events_not_time() {
        let sys = two_event_run();
        let r = sys.run(RunId(0));
        let v = CompleteHistory;
        // No clock: points between events are indistinguishable.
        assert_eq!(v.view_key(r, a(0), 2), v.view_key(r, a(0), 3));
        // Crossing an event changes the view.
        assert_ne!(v.view_key(r, a(0), 3), v.view_key(r, a(0), 4));
        // Events at time t are excluded from the view at t.
        assert_eq!(v.view_key(r, a(0), 0), v.view_key(r, a(0), 1));
    }

    #[test]
    fn asleep_points_share_the_empty_view() {
        let sys = two_event_run();
        let r = sys.run(RunId(0));
        let v = CompleteHistory;
        assert_eq!(v.view_key(r, a(1), 0), Vec::<u64>::new());
        assert_ne!(v.view_key(r, a(1), 1), Vec::<u64>::new());
    }

    #[test]
    fn clock_dedup_hides_tick_counts() {
        // Constant clock: views at t=0 and t=2 identical (no event).
        let sys = single(1, 2, |b| {
            b.wake(a(0), 0, 0).clock_readings(a(0), vec![5, 5, 5])
        });
        let r = sys.run(RunId(0));
        let v = CompleteHistory;
        assert_eq!(v.view_key(r, a(0), 0), v.view_key(r, a(0), 2));
        // Advancing clock: views differ.
        let sys2 = single(1, 2, |b| {
            b.wake(a(0), 0, 0).clock_readings(a(0), vec![5, 5, 6])
        });
        let r2 = sys2.run(RunId(0));
        assert_ne!(v.view_key(r2, a(0), 0), v.view_key(r2, a(0), 2));
    }

    #[test]
    fn shared_lambda_is_constant() {
        let sys = two_event_run();
        let r = sys.run(RunId(0));
        let v = SharedLambda;
        assert_eq!(v.view_key(r, a(0), 0), v.view_key(r, a(1), 4));
        assert_eq!(v.name(), "shared-lambda");
    }

    #[test]
    fn clock_only_sees_reading() {
        let sys = single(1, 3, |b| {
            b.wake(a(0), 0, 9).clock_readings(a(0), vec![0, 1, 1, 2])
        });
        let r = sys.run(RunId(0));
        let v = ClockOnly;
        assert_eq!(v.view_key(r, a(0), 1), v.view_key(r, a(0), 2));
        assert_ne!(v.view_key(r, a(0), 0), v.view_key(r, a(0), 1));
    }

    #[test]
    fn last_event_view_forgets() {
        // After a second identical event, history distinguishes but the
        // last-event state does not distinguish "one send" from "two
        // sends of the same message".
        let sys = single(2, 4, |b| {
            b.wake(a(0), 0, 0)
                .event(
                    a(0),
                    1,
                    Event::Send {
                        to: a(1),
                        msg: Message::tagged(1),
                    },
                )
                .event(
                    a(0),
                    2,
                    Event::Send {
                        to: a(1),
                        msg: Message::tagged(1),
                    },
                )
        });
        let r = sys.run(RunId(0));
        let forgetful = last_event_view();
        let full = CompleteHistory;
        assert_eq!(
            forgetful.view_key(r, a(0), 2),
            forgetful.view_key(r, a(0), 3)
        );
        assert_ne!(full.view_key(r, a(0), 2), full.view_key(r, a(0), 3));
    }
}
