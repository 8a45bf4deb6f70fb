//! Runs: complete executions of a distributed system, as views into the
//! run store.
//!
//! A run records, for each processor, its wake-up time, initial state,
//! clock and timed event sequence over a finite horizon — the
//! discrete-time truncation of the paper's infinite runs (Section 5). The
//! points of a run are the pairs `(r, t)` for `0 ≤ t ≤ horizon`.
//!
//! Runs are not stored one by one. A [`System`] keeps every run's data in
//! flat arenas (see its docs); a [`Run`] and a [`ProcRecord`] are
//! borrowed, `Copy` views into them, and a [`RunBuilder`] appends one run
//! to a [`SystemBuilder`]. A clock is a function of time (Section 12):
//! none, perfect with an offset (reading `t + offset` at time `t`), or
//! explicit monotone readings — and only explicit readings take space.
//!
//! [`SystemBuilder`]: crate::SystemBuilder

use crate::event::{Event, TimedEvent};
use crate::system::{RunId, System, SystemBuilder};
use hm_kripke::AgentId;

/// Wake time of a processor that never wakes within the horizon.
pub(crate) const ASLEEP: u64 = u64::MAX;

/// A stored clock: nothing is kept for a perfect clock but its offset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum ClockSlot {
    #[default]
    None,
    Perfect {
        offset: u64,
    },
    /// `horizon + 1` readings starting at this index of the readings arena.
    Readings {
        start: u32,
    },
}

/// One (run, processor) record of the store: fixed size, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProcSlot {
    /// Wake time, or [`ASLEEP`].
    pub(crate) wake: u64,
    pub(crate) initial_state: u64,
    pub(crate) clock: ClockSlot,
    /// This processor's events: `events[start..end]` of the event arena.
    pub(crate) events: (u32, u32),
}

/// One run's record of the store: its horizon and the byte range of its
/// name in the name arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunSlot {
    pub(crate) horizon: u64,
    pub(crate) name: (u32, u32),
}

// What the store pays per event, per run and per (run, processor).
const _: () = assert!(
    std::mem::size_of::<TimedEvent>() == 32
        && std::mem::size_of::<RunSlot>() == 16
        && std::mem::size_of::<ProcSlot>() == 40
);

/// One processor's record within a run: a borrowed view into the run
/// store.
#[derive(Debug, Clone, Copy)]
pub struct ProcRecord<'a> {
    sys: &'a System,
    slot: ProcSlot,
    horizon: u64,
}

impl<'a> ProcRecord<'a> {
    pub(crate) fn new(sys: &'a System, slot: ProcSlot, horizon: u64) -> Self {
        ProcRecord { sys, slot, horizon }
    }

    /// Real time at which the processor joins the system (`t_init`);
    /// `None` if it never wakes during the horizon.
    pub fn wake_time(&self) -> Option<u64> {
        (self.slot.wake != ASLEEP).then_some(self.slot.wake)
    }

    /// The processor's initial local state.
    pub fn initial_state(&self) -> u64 {
        self.slot.initial_state
    }

    /// Events observed by this processor, sorted by time (stable order
    /// within a tick is the order of occurrence).
    pub fn events(&self) -> &'a [TimedEvent] {
        let (start, end) = self.slot.events;
        &self.sys.events[start as usize..end as usize]
    }

    /// The stored readings of an explicit clock; empty for other clocks.
    fn readings(&self) -> &'a [u64] {
        match self.slot.clock {
            ClockSlot::Readings { start } => {
                let start = start as usize;
                &self.sys.readings[start..=start + self.horizon as usize]
            }
            _ => &[],
        }
    }

    /// `true` if the processor has a clock.
    pub(crate) fn has_clock(&self) -> bool {
        self.slot.clock != ClockSlot::None
    }

    /// The clock's reading at real time `t`, awake or not; `None` without
    /// a clock or past the horizon.
    pub(crate) fn reading(&self, t: u64) -> Option<u64> {
        if t > self.horizon {
            return None;
        }
        match self.slot.clock {
            ClockSlot::None => None,
            ClockSlot::Perfect { offset } => Some(t + offset),
            ClockSlot::Readings { start } => Some(self.sys.readings[start as usize + t as usize]),
        }
    }

    /// Clock reading at real time `t`, if the processor is awake and has a
    /// clock.
    pub fn clock_at(&self, t: u64) -> Option<u64> {
        if self.awake_at(t) {
            self.reading(t)
        } else {
            None
        }
    }

    /// `true` if the processor is awake at time `t`.
    pub fn awake_at(&self, t: u64) -> bool {
        self.slot.wake != ASLEEP && t >= self.slot.wake
    }

    /// Events strictly before real time `t` (the history convention of
    /// Section 5: messages sent/received *at* `t` are excluded).
    pub fn events_before(&self, t: u64) -> impl Iterator<Item = &'a TimedEvent> {
        self.events().iter().take_while(move |e| e.time < t)
    }

    /// Number of receive events strictly before `t`.
    pub fn recvs_before(&self, t: u64) -> usize {
        self.events_before(t).filter(|e| e.event.is_recv()).count()
    }

    /// Equal wake times and initial states.
    fn same_start(&self, other: &ProcRecord<'_>) -> bool {
        self.slot.wake == other.slot.wake && self.slot.initial_state == other.slot.initial_state
    }

    /// Same clock readings at every time of the horizon: compares what the
    /// clocks read, not how they are stored.
    fn same_clock(&self, other: &ProcRecord<'_>) -> bool {
        match (self.has_clock(), other.has_clock()) {
            (false, false) => true,
            (true, true) => {
                self.horizon == other.horizon
                    && (0..=self.horizon).all(|t| self.reading(t) == other.reading(t))
            }
            _ => false,
        }
    }
}

/// Equal wake times, initial states, clock readings and events.
impl PartialEq for ProcRecord<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.same_start(other) && self.same_clock(other) && self.events() == other.events()
    }
}

impl Eq for ProcRecord<'_> {}

/// A finite run: per-processor records over times `0..=horizon`, borrowed
/// from a [`System`].
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    sys: &'a System,
    id: RunId,
}

impl<'a> Run<'a> {
    pub(crate) fn new(sys: &'a System, id: RunId) -> Self {
        Run { sys, id }
    }

    fn slot(&self) -> &'a RunSlot {
        &self.sys.runs[self.id.index()]
    }

    /// Human-readable name (e.g. the adversary schedule that produced it).
    pub fn name(&self) -> &'a str {
        let (start, end) = self.slot().name;
        &self.sys.names[start as usize..end as usize]
    }

    /// Largest time index; the run has points `0..=horizon`.
    pub fn horizon(&self) -> u64 {
        self.slot().horizon
    }

    /// Number of points (`horizon + 1`).
    pub fn num_points(&self) -> u64 {
        self.horizon() + 1
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.sys.num_procs()
    }

    /// The record of processor `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn proc(&self, i: AgentId) -> ProcRecord<'a> {
        let n = self.num_procs();
        assert!(i.index() < n, "processor {i} out of range ({n} processors)");
        let slot = self.sys.procs[self.id.index() * n + i.index()];
        ProcRecord::new(self.sys, slot, self.horizon())
    }

    /// Every processor's record, in agent order.
    pub fn procs(&self) -> impl ExactSizeIterator<Item = ProcRecord<'a>> + 'a {
        let run = *self;
        (0..run.num_procs()).map(move |i| run.proc(AgentId::new(i)))
    }

    /// Total number of receive events strictly before `t`, over all
    /// processors — the message-count `d(r)` in the proof of Theorem 5.
    pub fn deliveries_before(&self, t: u64) -> usize {
        self.procs().map(|p| p.recvs_before(t)).sum()
    }

    /// `true` if no processor receives any message at any time `≥ from`.
    pub fn silent_from(&self, from: u64) -> bool {
        self.procs().all(|p| {
            p.events()
                .iter()
                .all(|e| !(e.event.is_recv() && e.time >= from))
        })
    }

    /// `true` if the two runs have the same initial configuration (wake
    /// times and initial states) and the same clock readings — the
    /// "twin" hypothesis of Theorems 5 and 7.
    pub fn same_initial_config_and_clocks(&self, other: Run<'_>) -> bool {
        self.num_procs() == other.num_procs()
            && self
                .procs()
                .zip(other.procs())
                .all(|(a, b)| a.same_start(&b) && a.same_clock(&b))
    }
}

/// Equal names, horizons and processor records.
impl PartialEq for Run<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
            && self.horizon() == other.horizon()
            && self.num_procs() == other.num_procs()
            && self.procs().eq(other.procs())
    }
}

impl Eq for Run<'_> {}

/// A processor's part of the run under construction. A clock with
/// explicit readings keeps them in `readings` until the run is committed
/// (its `start` is assigned then).
#[derive(Debug, Clone, Default)]
pub(crate) struct ProcDraft {
    wake: Option<u64>,
    initial_state: u64,
    clock: ClockSlot,
    readings: Vec<u64>,
    events: Vec<TimedEvent>,
}

impl ProcDraft {
    /// Back to an asleep, clockless, eventless processor, keeping the
    /// buffers' capacity for the next run.
    pub(crate) fn reset(&mut self) {
        self.wake = None;
        self.initial_state = 0;
        self.clock = ClockSlot::None;
        self.readings.clear();
        self.events.clear();
    }

    /// Loads a stored record, keeping its clock's representation.
    pub(crate) fn copy_from(&mut self, p: ProcRecord<'_>) {
        self.reset();
        self.wake = p.wake_time();
        self.initial_state = p.slot.initial_state;
        self.clock = p.slot.clock;
        self.readings.extend_from_slice(p.readings());
        self.events.extend_from_slice(p.events());
    }

    /// Sorts the events by time (stably, keeping each tick's order of
    /// occurrence) unless they already are, then asserts every invariant
    /// of a processor record over `0..=horizon`.
    pub(crate) fn validate(&mut self, i: usize, horizon: u64) {
        if !self.events.is_sorted_by_key(|e| e.time) {
            self.events.sort_by_key(|e| e.time);
        }
        if let Some(first) = self.events.first() {
            let wake = self
                .wake
                .unwrap_or_else(|| panic!("proc {i} has events but never wakes"));
            assert!(
                first.time >= wake,
                "proc {i}: event at {} before wake {}",
                first.time,
                wake
            );
        }
        if let Some(last) = self.events.last() {
            assert!(
                last.time <= horizon,
                "proc {i}: event at {} beyond horizon {}",
                last.time,
                horizon
            );
        }
        if let ClockSlot::Readings { .. } = self.clock {
            let c = &self.readings;
            assert_eq!(
                c.len() as u64,
                horizon + 1,
                "proc {i}: clock has {} readings for horizon {}",
                c.len(),
                horizon
            );
            assert!(
                c.windows(2).all(|w| w[0] <= w[1]),
                "proc {i}: clock readings must be nondecreasing"
            );
        }
        if let Some(w) = self.wake {
            assert!(
                w <= horizon,
                "proc {i}: wake time {} beyond horizon {}",
                w,
                horizon
            );
        }
    }

    /// Appends this (validated) record to the store's arenas.
    pub(crate) fn commit(&self, sys: &mut System) {
        let clock = match self.clock {
            ClockSlot::Readings { .. } => {
                let start = arena_index(sys.readings.len());
                sys.readings.extend_from_slice(&self.readings);
                ClockSlot::Readings { start }
            }
            stored => stored,
        };
        let start = arena_index(sys.events.len());
        sys.events.extend_from_slice(&self.events);
        sys.procs.push(ProcSlot {
            wake: self.wake.unwrap_or(ASLEEP),
            initial_state: self.initial_state,
            clock,
            events: (start, arena_index(sys.events.len())),
        });
    }
}

/// An arena offset as stored in a record.
///
/// # Panics
///
/// Panics past `u32::MAX` entries (over 100 GB of events).
pub(crate) fn arena_index(i: usize) -> u32 {
    u32::try_from(i).expect("run store arena exceeds u32::MAX entries")
}

/// Appends one run to a [`SystemBuilder`], with validation (C-BUILDER).
///
/// Started by [`SystemBuilder::run`]; nothing reaches the store until
/// [`finish`](Self::finish). The per-processor scratch it fills belongs
/// to the system builder and is reused by every run, so a run costs no
/// allocation of its own.
///
/// # Examples
///
/// ```
/// use hm_runs::{SystemBuilder, Event, Message};
/// use hm_kripke::AgentId;
/// let mut sb = SystemBuilder::new();
/// let id = sb
///     .run("r0", 2, 3)
///     .wake(AgentId::new(0), 0, 7)
///     .wake(AgentId::new(1), 0, 7)
///     .event(AgentId::new(0), 1, Event::Send { to: AgentId::new(1), msg: Message::tagged(1) })
///     .event(AgentId::new(1), 2, Event::Recv { from: AgentId::new(0), msg: Message::tagged(1) })
///     .finish();
/// let sys = sb.build();
/// assert_eq!(sys.run(id).deliveries_before(3), 1);
/// ```
#[derive(Debug)]
pub struct RunBuilder<'b> {
    builder: &'b mut SystemBuilder,
    horizon: u64,
}

impl<'b> RunBuilder<'b> {
    pub(crate) fn new(builder: &'b mut SystemBuilder, horizon: u64) -> Self {
        RunBuilder { builder, horizon }
    }

    fn draft(&mut self, i: AgentId) -> &mut ProcDraft {
        &mut self.builder.drafts_mut()[i.index()]
    }

    /// Wakes processor `i` at time `t` with the given initial state.
    pub fn wake(mut self, i: AgentId, t: u64, initial_state: u64) -> Self {
        let p = self.draft(i);
        p.wake = Some(t);
        p.initial_state = initial_state;
        self
    }

    /// Gives processor `i` a perfect clock: reading `t + offset` at time
    /// `t` (a convenient common case, stored as the offset alone; use
    /// [`clock_readings`] for arbitrary monotone clocks).
    ///
    /// [`clock_readings`]: Self::clock_readings
    pub fn perfect_clock(mut self, i: AgentId, offset: u64) -> Self {
        self.draft(i).clock = ClockSlot::Perfect { offset };
        self
    }

    /// Sets processor `i`'s clock readings explicitly (`readings[t]` is the
    /// reading at time `t`; there must be `horizon + 1` of them).
    pub fn clock_readings(mut self, i: AgentId, readings: impl IntoIterator<Item = u64>) -> Self {
        let p = self.draft(i);
        p.clock = ClockSlot::Readings { start: 0 };
        p.readings.clear();
        p.readings.extend(readings);
        self
    }

    /// Records an event for processor `i` at time `t`.
    pub fn event(mut self, i: AgentId, t: u64, event: Event) -> Self {
        self.draft(i).events.push(TimedEvent::new(t, event));
        self
    }

    /// Validates the run and appends it to the system, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if any invariant fails: events out of `wake..=horizon`,
    /// non-monotone or wrongly-sized clocks, or an event on a processor
    /// that never wakes. Events out of time order are sorted (stably)
    /// rather than rejected.
    pub fn finish(self) -> RunId {
        self.builder.finish_run(self.horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Message;

    fn a(i: usize) -> AgentId {
        AgentId::new(i)
    }

    fn send(to: usize, tag: u32) -> Event {
        Event::Send {
            to: a(to),
            msg: Message::tagged(tag),
        }
    }

    fn recv(from: usize, tag: u32) -> Event {
        Event::Recv {
            from: a(from),
            msg: Message::tagged(tag),
        }
    }

    /// A one-run system from `make`, which starts from `sb.run("r", …)`.
    fn one(make: impl FnOnce(&mut SystemBuilder) -> RunId) -> System {
        let mut sb = SystemBuilder::new();
        make(&mut sb);
        sb.build()
    }

    #[test]
    fn builder_sorts_and_counts() {
        let sys = one(|sb| {
            sb.run("r", 2, 5)
                .wake(a(0), 0, 1)
                .wake(a(1), 0, 2)
                .event(a(1), 4, recv(0, 2))
                .event(a(1), 2, recv(0, 1))
                .event(a(0), 1, send(1, 1))
                .event(a(0), 3, send(1, 2))
                .finish()
        });
        let r = sys.run(RunId(0));
        assert_eq!(r.num_points(), 6);
        assert_eq!(r.proc(a(1)).events()[0].time, 2, "events sorted");
        assert_eq!(r.deliveries_before(3), 1);
        assert_eq!(r.deliveries_before(5), 2);
        assert!(!r.silent_from(4));
        assert!(r.silent_from(5));
    }

    #[test]
    fn events_before_excludes_current_tick() {
        let sys = one(|sb| {
            sb.run("r", 1, 3)
                .wake(a(0), 0, 0)
                .event(a(0), 2, send(0, 1))
                .finish()
        });
        let p = sys.run(RunId(0)).proc(a(0));
        assert_eq!(p.events_before(2).count(), 0);
        assert_eq!(p.events_before(3).count(), 1);
    }

    #[test]
    fn clock_accessors() {
        let sys = one(|sb| {
            sb.run("r", 1, 3)
                .wake(a(0), 1, 0)
                .clock_readings(a(0), vec![5, 5, 6, 8])
                .finish()
        });
        let p = sys.run(RunId(0)).proc(a(0));
        assert_eq!(p.clock_at(0), None, "asleep: no reading");
        assert_eq!(p.clock_at(2), Some(6));
        assert_eq!(p.clock_at(4), None, "past the horizon");
        assert!(!p.awake_at(0));
        assert!(p.awake_at(1));
    }

    #[test]
    fn twin_condition() {
        let mut sb = SystemBuilder::new();
        sb.run("a", 2, 2).wake(a(0), 0, 3).wake(a(1), 1, 4).finish();
        sb.run("b", 2, 2)
            .wake(a(0), 0, 3)
            .wake(a(1), 1, 4)
            .event(a(0), 1, send(1, 9))
            .finish();
        sb.run("c", 2, 2).wake(a(0), 0, 3).finish();
        let sys = sb.build();
        let (r1, r2, r3) = (sys.run(RunId(0)), sys.run(RunId(1)), sys.run(RunId(2)));
        assert!(r1.same_initial_config_and_clocks(r2), "events don't matter");
        assert!(!r1.same_initial_config_and_clocks(r3));
    }

    #[test]
    fn abandoned_runs_leave_no_trace() {
        let mut sb = SystemBuilder::new();
        let _ = sb
            .run("dropped", 1, 2)
            .wake(a(0), 0, 9)
            .event(a(0), 1, send(0, 1));
        let id = sb.run("kept", 1, 2).wake(a(0), 0, 1).finish();
        let sys = sb.build();
        assert_eq!(sys.num_runs(), 1);
        let r = sys.run(id);
        assert_eq!(r.name(), "kept");
        assert_eq!(r.proc(a(0)).initial_state(), 1);
        assert!(r.proc(a(0)).events().is_empty());
    }

    #[test]
    #[should_panic(expected = "before wake")]
    fn event_before_wake_panics() {
        one(|sb| {
            sb.run("r", 1, 3)
                .wake(a(0), 2, 0)
                .event(a(0), 1, send(0, 1))
                .finish()
        });
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn event_beyond_horizon_panics() {
        one(|sb| {
            sb.run("r", 1, 3)
                .wake(a(0), 0, 0)
                .event(a(0), 4, send(0, 1))
                .finish()
        });
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn decreasing_clock_panics() {
        one(|sb| {
            sb.run("r", 1, 2)
                .wake(a(0), 0, 0)
                .clock_readings(a(0), vec![3, 2, 4])
                .finish()
        });
    }

    #[test]
    #[should_panic(expected = "never wakes")]
    fn event_without_wake_panics() {
        one(|sb| sb.run("r", 1, 2).event(a(0), 1, send(0, 1)).finish());
    }
}
