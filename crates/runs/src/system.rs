//! Systems: sets of runs, and the store that holds them.
//!
//! "We identify a distributed system with such a set R of its possible
//! runs" (Halpern–Moses Section 5). A [`System`] is a finite, canonically
//! ordered collection of runs over the same processors; its *points* are
//! pairs `(run, t)`. It is built by a [`SystemBuilder`].

use crate::event::TimedEvent;
use crate::run::{arena_index, ProcDraft, ProcSlot, Run, RunBuilder, RunSlot};
use std::fmt::{self, Write as _};

/// Identifier of a run within a system (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RunId(pub u32);

impl RunId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for RunId {
    fn from(i: usize) -> Self {
        RunId(u32::try_from(i).expect("run index exceeds u32::MAX"))
    }
}

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A point `(r, t)` of a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point {
    /// The run.
    pub run: RunId,
    /// The time, `0 ≤ t ≤ horizon(run)`.
    pub time: u64,
}

impl Point {
    /// Creates a point.
    pub fn new(run: RunId, time: u64) -> Self {
        Point { run, time }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.run, self.time)
    }
}

/// A finite set of runs over a common processor set, held in the run
/// store.
///
/// **The run store.** A system owns every run's data in a handful of flat
/// arenas rather than a heap per run: one vector of [`TimedEvent`]s for
/// all events, one of `u64` for explicit clock readings, one string for
/// all run names, one fixed-size record per run (horizon, name range) and
/// one per (run, processor) — wake time, initial state, clock kind and
/// event range. A perfect clock is stored as its offset only. Runs are
/// appended through a [`SystemBuilder`], whose per-processor scratch is
/// reused by every run, and read back as borrowed [`Run`] /
/// [`ProcRecord`](crate::ProcRecord) views. A frame therefore costs bytes
/// per point, not allocations per run.
///
/// # Examples
///
/// ```
/// use hm_runs::SystemBuilder;
/// use hm_kripke::AgentId;
/// let mut sb = SystemBuilder::new();
/// sb.run("quiet", 2, 3)
///     .wake(AgentId::new(0), 0, 0)
///     .wake(AgentId::new(1), 0, 0)
///     .finish();
/// let sys = sb.build();
/// assert_eq!(sys.num_points(), 4);
/// ```
#[derive(Clone)]
pub struct System {
    num_procs: usize,
    pub(crate) runs: Vec<RunSlot>,
    pub(crate) names: String,
    /// `procs[run * num_procs + i]`.
    pub(crate) procs: Vec<ProcSlot>,
    pub(crate) events: Vec<TimedEvent>,
    pub(crate) readings: Vec<u64>,
    /// `true` when a resource budget truncated enumeration: the runs
    /// present are complete, but further runs of the real system are
    /// missing (see `hm-limits` and the partial-verdict machinery).
    truncated: bool,
}

impl System {
    fn empty() -> Self {
        System {
            num_procs: 0,
            runs: Vec::new(),
            names: String::new(),
            procs: Vec::new(),
            events: Vec::new(),
            readings: Vec::new(),
            truncated: false,
        }
    }

    /// Flags this system as a budget-truncated sample of a larger one.
    /// Each present run is still complete (enumeration drops whole runs,
    /// never prefixes), which is what keeps run-local temporal operators
    /// exact under three-valued evaluation.
    pub fn mark_truncated(&mut self) {
        self.truncated = true;
    }

    /// `true` when the run set was truncated by a resource budget.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Number of runs.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Total number of points across runs.
    pub fn num_points(&self) -> usize {
        self.runs.iter().map(|r| r.horizon as usize + 1).sum()
    }

    /// Total number of events across runs and processors.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// The run with the given id.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn run(&self, id: RunId) -> Run<'_> {
        assert!(id.index() < self.runs.len(), "{id} out of range");
        Run::new(self, id)
    }

    /// Looks up a run by name (linear scan).
    pub fn run_by_name(&self, name: &str) -> Option<RunId> {
        self.runs()
            .find(|(_, r)| r.name() == name)
            .map(|(id, _)| id)
    }

    /// Iterates over `(id, run)` pairs.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = (RunId, Run<'_>)> {
        (0..self.runs.len()).map(move |i| {
            let id = RunId::from(i);
            (id, Run::new(self, id))
        })
    }

    /// Iterates over all points in canonical order (runs in order, times
    /// ascending).
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.runs()
            .flat_map(|(id, r)| (0..=r.horizon()).map(move |t| Point::new(id, t)))
    }
}

/// Equal processor counts, truncation flags and runs, in order (runs
/// compare by content: a perfect clock equals its explicit readings).
impl PartialEq for System {
    fn eq(&self, other: &Self) -> bool {
        self.num_procs == other.num_procs
            && self.truncated == other.truncated
            && self.runs().map(|(_, r)| r).eq(other.runs().map(|(_, r)| r))
    }
}

impl Eq for System {}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("runs", &self.num_runs())
            .field("procs", &self.num_procs)
            .field("events", &self.events.len())
            .field("readings", &self.readings.len())
            .field("truncated", &self.truncated)
            .finish()
    }
}

/// Builds a [`System`] run by run (C-BUILDER): [`run`](Self::run) starts
/// a [`RunBuilder`] that writes into this builder's store, and
/// [`build`](Self::build) hands the store over.
#[derive(Debug)]
pub struct SystemBuilder {
    sys: System,
    /// Reused per-processor scratch of the run in progress.
    drafts: Vec<ProcDraft>,
    /// Processors of the run in progress.
    open_procs: usize,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            sys: System::empty(),
            drafts: Vec::new(),
            open_procs: 0,
        }
    }
}

impl SystemBuilder {
    /// An empty builder; the first run fixes the processor count.
    pub fn new() -> Self {
        SystemBuilder::default()
    }

    /// Number of runs appended so far.
    pub fn num_runs(&self) -> usize {
        self.sys.num_runs()
    }

    /// Starts a run named `name` with `num_procs` processors, all
    /// initially asleep, over times `0..=horizon`. It joins the system
    /// when [`RunBuilder::finish`] is called; a run builder dropped
    /// unfinished leaves nothing behind.
    ///
    /// # Panics
    ///
    /// Panics if `num_procs` differs from the runs already appended.
    pub fn run(
        &mut self,
        name: impl fmt::Display,
        num_procs: usize,
        horizon: u64,
    ) -> RunBuilder<'_> {
        self.begin(name, num_procs);
        RunBuilder::new(self, horizon)
    }

    /// Appends a copy of `run` (from any system), keeping its clocks'
    /// representation.
    ///
    /// # Panics
    ///
    /// As for [`run`](Self::run).
    pub fn push_run(&mut self, run: Run<'_>) -> RunId {
        self.begin(run.name(), run.num_procs());
        for (d, p) in self.drafts.iter_mut().zip(run.procs()) {
            d.copy_from(p);
        }
        self.finish_run(run.horizon())
    }

    /// Writes the name of a new run and clears the scratch of `num_procs`
    /// processors.
    fn begin(&mut self, name: impl fmt::Display, num_procs: usize) {
        if !self.sys.runs.is_empty() {
            assert_eq!(
                num_procs, self.sys.num_procs,
                "run `{name}` has {num_procs} processors, expected {}",
                self.sys.num_procs
            );
        }
        // Drop the name of a run that was started and never finished.
        self.sys.names.truncate(self.committed_names());
        write!(self.sys.names, "{name}").expect("writing to a String cannot fail");
        if self.drafts.len() < num_procs {
            self.drafts.resize_with(num_procs, ProcDraft::default);
        }
        self.open_procs = num_procs;
        for d in &mut self.drafts[..num_procs] {
            d.reset();
        }
    }

    fn committed_names(&self) -> usize {
        self.sys.runs.last().map_or(0, |r| r.name.1 as usize)
    }

    pub(crate) fn drafts_mut(&mut self) -> &mut [ProcDraft] {
        &mut self.drafts[..self.open_procs]
    }

    /// Validates the run in progress and appends it to the store.
    pub(crate) fn finish_run(&mut self, horizon: u64) -> RunId {
        let drafts = &mut self.drafts[..self.open_procs];
        for (i, p) in drafts.iter_mut().enumerate() {
            p.validate(i, horizon);
        }
        for p in drafts.iter() {
            p.commit(&mut self.sys);
        }
        let id = RunId::from(self.sys.runs.len());
        self.sys.num_procs = self.open_procs;
        let name = (
            arena_index(self.committed_names()),
            arena_index(self.sys.names.len()),
        );
        self.sys.runs.push(RunSlot { horizon, name });
        id
    }

    /// The finished system.
    ///
    /// # Panics
    ///
    /// Panics if no run was appended.
    pub fn build(mut self) -> System {
        assert!(!self.sys.runs.is_empty(), "a system needs at least one run");
        self.sys.names.truncate(self.committed_names());
        let sys = &mut self.sys;
        sys.names.shrink_to_fit();
        sys.runs.shrink_to_fit();
        sys.procs.shrink_to_fit();
        sys.events.shrink_to_fit();
        sys.readings.shrink_to_fit();
        self.sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_kripke::AgentId;

    fn quiet(sb: &mut SystemBuilder, name: &str, procs: usize, horizon: u64) -> RunId {
        let mut b = sb.run(name, procs, horizon);
        for i in 0..procs {
            b = b.wake(AgentId::new(i), 0, 0);
        }
        b.finish()
    }

    #[test]
    fn accessors() {
        let mut sb = SystemBuilder::new();
        quiet(&mut sb, "a", 2, 2);
        quiet(&mut sb, "b", 2, 4);
        let sys = sb.build();
        assert_eq!(sys.num_runs(), 2);
        assert_eq!(sys.num_procs(), 2);
        assert_eq!(sys.num_points(), 3 + 5);
        assert_eq!(sys.run_by_name("b"), Some(RunId(1)));
        assert_eq!(sys.run_by_name("zz"), None);
        assert_eq!(sys.points().count(), 8);
        assert_eq!(format!("{}", Point::new(RunId(1), 3)), "(r1,3)");
    }

    #[test]
    fn push_run_copies_across_systems() {
        let mut sb = SystemBuilder::new();
        quiet(&mut sb, "a", 2, 2);
        sb.run("b", 2, 3)
            .wake(AgentId::new(0), 1, 5)
            .perfect_clock(AgentId::new(0), 2)
            .clock_readings(AgentId::new(1), [0, 0, 1, 1])
            .finish();
        let src = sb.build();
        let mut copy = SystemBuilder::new();
        copy.push_run(src.run(RunId(1)));
        copy.push_run(src.run(RunId(0)));
        let copy = copy.build();
        assert_eq!(copy.run(RunId(0)), src.run(RunId(1)));
        assert_eq!(copy.run(RunId(1)), src.run(RunId(0)));
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_system_panics() {
        SystemBuilder::new().build();
    }

    #[test]
    #[should_panic(expected = "processors")]
    fn mismatched_procs_panics() {
        let mut sb = SystemBuilder::new();
        quiet(&mut sb, "a", 2, 2);
        quiet(&mut sb, "b", 3, 2);
    }
}
