//! Deterministic execution and exhaustive run enumeration.
//!
//! Given a deterministic [`JointProtocol`], a delivery [`Adversary`] and an
//! execution specification, the enumerator produces **all** runs over the
//! horizon — the finite system `R` that the paper's "for all runs r ∈ R"
//! quantifications range over. Exhaustiveness (not sampling) is what makes
//! the impossibility experiments proofs at their size.

use crate::adversary::{Adversary, Outcome};
use crate::protocol::{Command, JointProtocol, LocalView, SeenEvent};
use hm_kripke::AgentId;
use hm_limits::{failpoints, Admission, Budget, LimitExceeded, Phase, Resource};
use hm_runs::{Event, RunId, System, SystemBuilder, TimedEvent};
use std::fmt;

/// Clock endowment for an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Clocks {
    /// No processor has a clock (asynchronous knowledge of time).
    None,
    /// Processor `i` reads `t + offset[i]` at real time `t`: perfect rate,
    /// possibly skewed phase. `Offset(vec![0; n])` is a global clock.
    Offset(Vec<u64>),
}

impl Clocks {
    fn reading(&self, i: usize, t: u64) -> Option<u64> {
        match self {
            Clocks::None => None,
            Clocks::Offset(offs) => Some(t + offs[i]),
        }
    }
}

/// The fixed part of an execution: who runs, from when, with what initial
/// states and clocks, for how long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionSpec {
    /// Number of processors.
    pub num_procs: usize,
    /// Largest time index (points `0..=horizon`).
    pub horizon: u64,
    /// Per-processor wake times.
    pub wake_times: Vec<u64>,
    /// Per-processor initial states.
    pub initial_states: Vec<u64>,
    /// Clock endowment.
    pub clocks: Clocks,
    /// Label prefix for run names (useful when combining configurations).
    pub label: String,
}

impl ExecutionSpec {
    /// A spec with all processors waking at 0 in state 0, no clocks.
    pub fn simple(num_procs: usize, horizon: u64) -> Self {
        ExecutionSpec {
            num_procs,
            horizon,
            wake_times: vec![0; num_procs],
            initial_states: vec![0; num_procs],
            clocks: Clocks::None,
            label: String::new(),
        }
    }

    /// Replaces the initial states (builder style).
    pub fn with_initial_states(mut self, states: Vec<u64>) -> Self {
        assert_eq!(states.len(), self.num_procs);
        self.initial_states = states;
        self
    }

    /// Replaces the wake times (builder style).
    pub fn with_wake_times(mut self, wakes: Vec<u64>) -> Self {
        assert_eq!(wakes.len(), self.num_procs);
        self.wake_times = wakes;
        self
    }

    /// Replaces the clock endowment (builder style).
    pub fn with_clocks(mut self, clocks: Clocks) -> Self {
        if let Clocks::Offset(o) = &clocks {
            assert_eq!(o.len(), self.num_procs);
        }
        self.clocks = clocks;
        self
    }

    /// Sets the label prefix (builder style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// Errors from enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumerateError {
    /// A resource ceiling, deadline, or cancellation stopped the
    /// enumeration (strict mode; in partial mode run-budget and
    /// deadline overruns truncate instead — see [`enumerate_runs`]).
    Limit(LimitExceeded),
    /// The adversary returned no outcome for the `send_index`-th
    /// message. Every message needs at least one outcome, if only
    /// [`Outcome::Lost`].
    NoOutcome {
        /// Global sequence number of the offending send.
        send_index: usize,
    },
}

impl fmt::Display for EnumerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumerateError::Limit(e) => write!(f, "{e}"),
            EnumerateError::NoOutcome { send_index } => {
                write!(f, "adversary returned no outcomes for message {send_index}")
            }
        }
    }
}

impl std::error::Error for EnumerateError {}

impl From<LimitExceeded> for EnumerateError {
    fn from(e: LimitExceeded) -> Self {
        EnumerateError::Limit(e)
    }
}

/// The outcome of [`enumerate_runs`]: the runs (name-sorted per spec)
/// plus a flag recording whether a partial-mode budget cut the run set
/// short. Truncation drops whole runs, never prefixes — every run present
/// is a complete run of the real system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Enumeration {
    /// The enumerated runs, sorted by name within each spec (and marked
    /// [`is_truncated`](System::is_truncated) when `truncated` is);
    /// `None` when a partial-mode budget admitted no run at all.
    pub system: Option<System>,
    /// `true` when a partial-mode budget stopped enumeration early.
    pub truncated: bool,
}

/// Internal unwind signal of the DFS: a hard error, or an orderly stop
/// (partial-mode truncation) that keeps the runs admitted so far.
enum Interrupt {
    Err(EnumerateError),
    Stop,
}

/// The medium's choice for one message, as recorded in run names:
/// `d{delta}` for a delivery `delta` ticks after the send, `x` for a loss.
#[derive(Debug, Clone, Copy)]
enum OutcomeLabel {
    Delivered(u64),
    Lost,
}

/// One branch's simulation state. The DFS enumerator owns a single `Sim`
/// per branch and **clones it only at adversary choice points** — the
/// shared prefix of two runs is simulated exactly once, never replayed.
#[derive(Debug, Clone)]
struct Sim {
    /// Per-processor event log so far (times nondecreasing by
    /// construction: deliveries, then steps, tick by tick).
    events: Vec<Vec<TimedEvent>>,
    /// In-flight messages: (deliver_time, recipient, sender, msg, send_seq).
    pending: Vec<(u64, usize, usize, hm_runs::Message, usize)>,
    /// Messages sent so far (the adversary's `send_index` counter).
    send_count: usize,
    /// The adversary's choice per message, for the run name.
    labels: Vec<OutcomeLabel>,
}

impl Sim {
    fn new(num_procs: usize) -> Self {
        Sim {
            events: vec![Vec::new(); num_procs],
            pending: Vec::new(),
            send_count: 0,
            labels: Vec::new(),
        }
    }

    /// Moves messages scheduled for `t` from `pending` into the
    /// recipients' logs, in send order.
    fn deliver_due(&mut self, t: u64, due: &mut Vec<(u64, usize, usize, hm_runs::Message, usize)>) {
        due.clear();
        self.pending.retain(|entry| {
            if entry.0 == t {
                due.push(*entry);
                false
            } else {
                true
            }
        });
        due.sort_by_key(|e| e.4);
        for &(_, to, from, msg, _) in due.iter() {
            self.events[to].push(TimedEvent::new(
                t,
                Event::Recv {
                    from: AgentId::new(from),
                    msg,
                },
            ));
        }
    }

    /// Applies one resolved adversary outcome for the message described by
    /// `send`, within a run truncated at `horizon`.
    fn apply_outcome(&mut self, outcome: Outcome, send: &SendCtx, horizon: u64) {
        let &SendCtx {
            t,
            from,
            to,
            msg,
            seq,
        } = send;
        match outcome {
            Outcome::Delivered(d) => {
                assert!(
                    d >= t && d <= horizon,
                    "adversary chose out-of-range delivery {d}"
                );
                self.labels.push(OutcomeLabel::Delivered(d - t));
                if d == t {
                    // Same-tick delivery: visible from t+1.
                    self.events[to.index()].push(TimedEvent::new(
                        t,
                        Event::Recv {
                            from: AgentId::new(from),
                            msg,
                        },
                    ));
                } else {
                    self.pending.push((d, to.index(), from, msg, seq));
                }
            }
            Outcome::Lost => self.labels.push(OutcomeLabel::Lost),
        }
    }
}

/// The coordinates of one sent message: when, who, to whom, what, and its
/// global sequence number.
#[derive(Debug, Clone, Copy)]
struct SendCtx {
    t: u64,
    from: usize,
    to: AgentId,
    msg: hm_runs::Message,
    seq: usize,
}

/// The depth-first enumerator: shared scratch plus the accumulating run
/// store, so branches reuse buffers instead of reallocating.
struct Enumerator<'a> {
    protocol: &'a dyn JointProtocol,
    adversary: &'a dyn Adversary,
    spec: &'a ExecutionSpec,
    /// The resource meter. One meter spans every spec of an
    /// enumeration, so its run ceiling bounds the total.
    budget: &'a Budget,
    runs: SystemBuilder,
    /// Reused buffer for each step's `LocalView::events`.
    seen: Vec<SeenEvent>,
    /// Reused buffer for each tick's due deliveries.
    due: Vec<(u64, usize, usize, hm_runs::Message, usize)>,
}

impl<'a> Enumerator<'a> {
    fn new(
        protocol: &'a dyn JointProtocol,
        adversary: &'a dyn Adversary,
        spec: &'a ExecutionSpec,
        budget: &'a Budget,
    ) -> Self {
        Enumerator {
            protocol,
            adversary,
            spec,
            budget,
            runs: SystemBuilder::new(),
            seen: Vec::new(),
            due: Vec::new(),
        }
    }

    /// Maps a budget failure to the DFS unwind signal: under partial
    /// mode, deadline overruns and cancellation stop enumeration in an
    /// orderly way (keeping admitted runs); everything else — and every
    /// failure in strict mode — is a hard typed error.
    fn interrupted(&self, e: LimitExceeded) -> Interrupt {
        if self.budget.allows_partial()
            && matches!(e.resource, Resource::Deadline | Resource::Cancelled)
        {
            Interrupt::Stop
        } else {
            Interrupt::Err(EnumerateError::Limit(e))
        }
    }

    /// Continues the simulation of `sim` from `(t0, proc0)`, skipping
    /// that processor's first `cmd0` commands (already applied on this
    /// branch), and materialises every run below it.
    ///
    /// At an adversary choice with `k > 1` distinct outcomes, outcomes
    /// `0..k-1` recurse on a clone of the simulation and the last
    /// continues in place, so choices are explored in option order and
    /// the shared prefix is never re-simulated. Protocol steps
    /// interrupted by a branch are re-issued on resume; this is sound
    /// because protocols are deterministic functions of the view and the
    /// view only contains events strictly before the current tick.
    fn drive(&mut self, mut sim: Sim, t0: u64, proc0: usize, cmd0: usize) -> Result<(), Interrupt> {
        let spec = self.spec;
        let n = spec.num_procs;
        for t in t0..=spec.horizon {
            self.budget
                .tick(Phase::Enumerate)
                .map_err(|e| self.interrupted(e))?;
            let (start_proc, start_cmd) = if t == t0 { (proc0, cmd0) } else { (0, 0) };
            if start_proc == 0 && start_cmd == 0 {
                // Deliver messages scheduled for t, in send order.
                sim.deliver_due(t, &mut self.due);
            }
            // Step each awake processor in id order.
            for i in start_proc..n {
                if t < spec.wake_times[i] {
                    continue;
                }
                self.seen.clear();
                self.seen
                    .extend(
                        sim.events[i]
                            .iter()
                            .take_while(|e| e.time < t)
                            .map(|e| SeenEvent {
                                event: e.event,
                                clock: spec.clocks.reading(i, e.time),
                            }),
                    );
                let cmds = self.protocol.step(&LocalView {
                    me: AgentId::new(i),
                    num_procs: n,
                    initial_state: spec.initial_states[i],
                    clock: spec.clocks.reading(i, t),
                    events: &self.seen,
                });
                let skip = if t == t0 && i == proc0 { start_cmd } else { 0 };
                for (ci, cmd) in cmds.into_iter().enumerate().skip(skip) {
                    match cmd {
                        Command::Act { action, data } => {
                            sim.events[i].push(TimedEvent::new(t, Event::Act { action, data }));
                        }
                        Command::Send { to, msg } => {
                            sim.events[i].push(TimedEvent::new(t, Event::Send { to, msg }));
                            let seq = sim.send_count;
                            let mut options = self.adversary.outcomes(
                                seq,
                                t,
                                AgentId::new(i),
                                to,
                                &msg,
                                spec.horizon,
                            );
                            if options.is_empty() {
                                return Err(Interrupt::Err(EnumerateError::NoOutcome {
                                    send_index: seq,
                                }));
                            }
                            dedup_outcomes(&mut options);
                            sim.send_count += 1;
                            let send = SendCtx {
                                t,
                                from: i,
                                to,
                                msg,
                                seq,
                            };
                            let (&last, rest) = options.split_last().expect("non-empty");
                            for &opt in rest {
                                let mut child = sim.clone();
                                child.apply_outcome(opt, &send, spec.horizon);
                                self.drive(child, t, i, ci + 1)?;
                            }
                            // Last option continues on this branch.
                            sim.apply_outcome(last, &send, spec.horizon);
                        }
                    }
                }
            }
        }
        // Admission before materialisation: a run past the budget is
        // never pushed, so partial results contain admitted runs only.
        match self.budget.admit_run(Phase::Enumerate) {
            Ok(Admission::Admit) => {}
            Ok(Admission::Truncate) => return Err(Interrupt::Stop),
            Err(e) => return Err(Interrupt::Err(EnumerateError::Limit(e))),
        }
        self.materialise(sim);
        Ok(())
    }

    /// Appends a completed branch to the run store.
    fn materialise(&mut self, sim: Sim) {
        let spec = self.spec;
        let mut labels = String::new();
        for (k, l) in sim.labels.iter().enumerate() {
            if k > 0 {
                labels.push(',');
            }
            match l {
                OutcomeLabel::Delivered(delta) => {
                    labels.push('d');
                    labels.push_str(&delta.to_string());
                }
                OutcomeLabel::Lost => labels.push('x'),
            }
        }
        let name = if spec.label.is_empty() {
            format!("{}[{labels}]", self.protocol.name())
        } else {
            format!("{}:{}[{labels}]", spec.label, self.protocol.name())
        };
        let mut b = self.runs.run(name, spec.num_procs, spec.horizon);
        for (i, events) in sim.events.into_iter().enumerate() {
            b = b.wake(AgentId::new(i), spec.wake_times[i], spec.initial_states[i]);
            if let Clocks::Offset(offs) = &spec.clocks {
                b = b.perfect_clock(AgentId::new(i), offs[i]);
            }
            for e in events {
                b = b.event(AgentId::new(i), e.time, e.event);
            }
        }
        b.finish();
    }
}

/// Drops duplicate outcomes, keeping first occurrences: two identical
/// outcomes for the same message provably yield point-for-point identical
/// views (and identical run names), so exploring both would enumerate the
/// same run twice. The stock adversaries never return duplicates; this
/// guards user-written ones.
fn dedup_outcomes(options: &mut Vec<Outcome>) {
    let mut i = 0;
    while i < options.len() {
        if options[..i].contains(&options[i]) {
            options.remove(i);
        } else {
            i += 1;
        }
    }
}

/// Enumerates **all** runs of `protocol` against `adversary` for every
/// execution spec in `specs` (e.g. all initial configurations), by
/// depth-first search over the adversary's choices. The state of the
/// shared prefix is cloned at each branch point rather than replayed, so
/// enumeration is linear in the total size of the run tree. Adversary
/// option lists are deduplicated first (the stock adversaries never offer
/// duplicates, so for them the run set is exactly the product of the
/// per-message choices).
///
/// The result lists each spec's runs sorted by name, concatenated in spec
/// order, so a full enumeration is deterministic. [`Enumeration::into_system`]
/// turns it into a [`System`].
///
/// **Budget.** One [`Budget`] spans every spec: its run ceiling bounds
/// the *total*, and its visited-state ceiling, deadline and cancellation
/// are all honored. Under a strict budget any exhaustion is a typed
/// [`EnumerateError::Limit`]. Under [`Limits::allow_partial`](hm_limits::Limits::allow_partial),
/// exceeding the run ceiling, the deadline, or cancellation instead
/// *truncates*: the runs admitted so far are returned with
/// [`Enumeration::truncated`]` == true`, and later specs are skipped.
/// Truncation drops whole runs only — every run present is complete,
/// which is what keeps run-local temporal operators exact under
/// three-valued evaluation downstream.
///
/// # Panics
///
/// Panics if `specs` is empty.
///
/// # Errors
///
/// [`EnumerateError::Limit`] on budget exhaustion (strict mode, or a hard
/// resource in partial mode); [`EnumerateError::NoOutcome`] if the
/// adversary offers no outcome for some message.
pub fn enumerate_runs(
    protocol: &dyn JointProtocol,
    adversary: &dyn Adversary,
    specs: &[ExecutionSpec],
    budget: &Budget,
) -> Result<Enumeration, EnumerateError> {
    assert!(!specs.is_empty(), "need at least one execution spec");
    failpoints::check("netsim::enumerate", Phase::Enumerate)?;
    let mut all = SystemBuilder::new();
    let mut truncated = false;
    for spec in specs {
        let mut dfs = Enumerator::new(protocol, adversary, spec, budget);
        match dfs.drive(Sim::new(spec.num_procs), 0, 0, 0) {
            Ok(()) => {}
            // The shared run counter is exhausted: later specs would
            // admit nothing, so stop cleanly after this one.
            Err(Interrupt::Stop) => truncated = true,
            Err(Interrupt::Err(e)) => return Err(e),
        }
        if dfs.runs.num_runs() > 0 {
            // DFS order is not name order (`d10` < `d2`): sort the spec's
            // runs by name before copying them out.
            let part = dfs.runs.build();
            let mut order: Vec<RunId> = part.runs().map(|(id, _)| id).collect();
            order.sort_by(|&a, &b| part.run(a).name().cmp(part.run(b).name()));
            for id in order {
                all.push_run(part.run(id));
            }
        }
        if truncated {
            break;
        }
    }
    let system = (all.num_runs() > 0).then(|| {
        let mut system = all.build();
        if truncated {
            system.mark_truncated();
        }
        system
    });
    Ok(Enumeration { system, truncated })
}

impl Enumeration {
    /// Number of runs enumerated.
    pub fn num_runs(&self) -> usize {
        self.system.as_ref().map_or(0, System::num_runs)
    }

    /// The enumerated [`System`].
    ///
    /// # Errors
    ///
    /// A zero-run enumeration (a partial budget that admitted nothing) is
    /// reported as the run-budget exhaustion it is, since a [`System`]
    /// cannot be empty.
    pub fn into_system(self) -> Result<System, EnumerateError> {
        self.system.ok_or(EnumerateError::Limit(LimitExceeded {
            resource: Resource::Runs,
            phase: Phase::Enumerate,
            spent: 1,
            limit: 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{LossyFixedDelay, SynchronousDelay, UnboundedDelay};
    use crate::protocol::{FnProtocol, Silent};
    use hm_limits::Limits;
    use hm_runs::{Message, Run};

    /// p0 sends one message to p1 at its first step; nothing else.
    fn one_shot() -> impl JointProtocol {
        FnProtocol::new("oneshot", |v: &LocalView<'_>| {
            if v.me.index() == 0 && v.sent().count() == 0 {
                vec![Command::Send {
                    to: AgentId::new(1),
                    msg: Message::tagged(1),
                }]
            } else {
                Vec::new()
            }
        })
    }

    /// p0 fires `msgs` lossy messages at p1: 2^msgs branches.
    fn burst(msgs: usize) -> impl JointProtocol {
        FnProtocol::new("burst", move |v: &LocalView<'_>| {
            if v.me.index() == 0 && v.sent().count() < msgs {
                vec![Command::Send {
                    to: AgentId::new(1),
                    msg: Message::new(1, v.sent().count() as u64),
                }]
            } else {
                Vec::new()
            }
        })
    }

    /// One spec under a bare run ceiling, as a system.
    fn runs_of(
        protocol: &dyn JointProtocol,
        adversary: &dyn Adversary,
        spec: ExecutionSpec,
        max_runs: u64,
    ) -> Result<System, EnumerateError> {
        let budget = Limits::none().max_runs(max_runs).budget();
        enumerate_runs(protocol, adversary, &[spec], &budget)?.into_system()
    }

    /// Every run of `sys`, in order.
    fn runs(sys: &System) -> Vec<Run<'_>> {
        sys.runs().map(|(_, r)| r).collect()
    }

    #[test]
    fn silent_protocol_yields_one_run() {
        let sys = runs_of(
            &Silent,
            &SynchronousDelay { delay: 1 },
            ExecutionSpec::simple(2, 3),
            10,
        )
        .unwrap();
        let runs = runs(&sys);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].deliveries_before(4), 0);
    }

    #[test]
    fn lossy_one_shot_yields_two_runs() {
        let sys = runs_of(
            &one_shot(),
            &LossyFixedDelay { delay: 1 },
            ExecutionSpec::simple(2, 3),
            10,
        )
        .unwrap();
        let runs = runs(&sys);
        assert_eq!(runs.len(), 2, "delivered and lost");
        let delivered = runs.iter().find(|r| r.deliveries_before(4) == 1).unwrap();
        let lost = runs.iter().find(|r| r.deliveries_before(4) == 0).unwrap();
        // Delivery happens exactly one tick after the send at t=0.
        let recv = delivered.proc(AgentId::new(1)).events()[0];
        assert_eq!(recv.time, 1);
        assert!(recv.event.is_recv());
        assert!(lost.name().contains('x'));
    }

    #[test]
    fn deterministic_and_sorted() {
        let spec = ExecutionSpec::simple(2, 3);
        let adversary = LossyFixedDelay { delay: 1 };
        let a = runs_of(&one_shot(), &adversary, spec.clone(), 10).unwrap();
        let b = runs_of(&one_shot(), &adversary, spec, 10).unwrap();
        assert_eq!(a, b);
        let names: Vec<_> = a.runs().map(|(_, r)| r.name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn run_limit_enforced() {
        let err = runs_of(
            &one_shot(),
            &LossyFixedDelay { delay: 1 },
            ExecutionSpec::simple(2, 3),
            1,
        )
        .unwrap_err();
        match err {
            EnumerateError::Limit(e) => {
                assert_eq!(e.resource, Resource::Runs);
                assert_eq!(e.phase, Phase::Enumerate);
                assert_eq!(e.limit, 1);
                assert_eq!(e.spent, 2);
            }
            other => panic!("expected Limit, got {other:?}"),
        }
        assert!(err.to_string().contains("limit"));
    }

    #[test]
    fn partial_budget_truncates_instead_of_failing() {
        let spec = [ExecutionSpec::simple(2, 3)];
        let adversary = LossyFixedDelay { delay: 1 };
        let budget = Limits::none().max_runs(1).allow_partial(true).budget();
        let e = enumerate_runs(&one_shot(), &adversary, &spec, &budget).unwrap();
        assert!(e.truncated);
        assert!(e.system.as_ref().unwrap().is_truncated());
        assert_eq!(e.num_runs(), 1, "runs admitted before the ceiling remain");

        // A generous partial budget does not truncate.
        let budget = Limits::none().max_runs(16).allow_partial(true).budget();
        let e = enumerate_runs(&one_shot(), &adversary, &spec, &budget).unwrap();
        assert!(!e.truncated);
        assert_eq!(e.num_runs(), 2);
    }

    #[test]
    fn cancelled_token_stops_enumeration() {
        let cancel = hm_limits::CancelToken::new();
        cancel.cancel();
        let budget = Limits::none().cancel(cancel).budget();
        let err = enumerate_runs(
            &one_shot(),
            &LossyFixedDelay { delay: 1 },
            &[ExecutionSpec::simple(2, 3)],
            &budget,
        )
        .unwrap_err();
        match err {
            EnumerateError::Limit(e) => assert_eq!(e.resource, Resource::Cancelled),
            other => panic!("expected Limit(Cancelled), got {other:?}"),
        }
    }

    #[test]
    fn empty_adversary_outcome_is_typed_error() {
        struct NoChoice;
        impl Adversary for NoChoice {
            fn outcomes(
                &self,
                _send_index: usize,
                _sent_at: u64,
                _from: AgentId,
                _to: AgentId,
                _msg: &Message,
                _horizon: u64,
            ) -> Vec<Outcome> {
                Vec::new()
            }
        }
        let err = runs_of(&one_shot(), &NoChoice, ExecutionSpec::simple(2, 3), 10).unwrap_err();
        assert_eq!(err, EnumerateError::NoOutcome { send_index: 0 });
        assert!(err.to_string().contains("no outcomes"));
    }

    #[test]
    fn responder_chain_branches_per_message() {
        // p0 sends; on receipt p1 replies once; on receipt of the reply
        // nothing further. Lossy: runs = {lost}, {delivered, reply lost},
        // {delivered, reply delivered} = 3 runs.
        let pingpong = FnProtocol::new("pingpong", |v: &LocalView<'_>| {
            let me = v.me.index();
            if me == 0 && v.sent().count() == 0 {
                return vec![Command::Send {
                    to: AgentId::new(1),
                    msg: Message::tagged(1),
                }];
            }
            if me == 1 && v.has_received_tag(1) && v.sent().count() == 0 {
                return vec![Command::Send {
                    to: AgentId::new(0),
                    msg: Message::tagged(2),
                }];
            }
            Vec::new()
        });
        let runs = runs_of(
            &pingpong,
            &LossyFixedDelay { delay: 1 },
            ExecutionSpec::simple(2, 4),
            10,
        )
        .unwrap();
        assert_eq!(runs.num_runs(), 3);
    }

    #[test]
    fn burst_enumerates_every_loss_pattern() {
        // 8 lossy messages: every delivered/lost pattern is one run.
        let msgs = 8usize;
        let spec = ExecutionSpec::simple(2, msgs as u64 + 2);
        let sys = runs_of(&burst(msgs), &LossyFixedDelay { delay: 1 }, spec, 1 << 12).unwrap();
        assert_eq!(sys.num_runs(), 1 << msgs);
    }

    #[test]
    fn runs_come_back_in_name_order_not_search_order() {
        // One message under unbounded delay at horizon 12: the search
        // meets d0, d1, …, d12, x, but `d10` sorts before `d2`.
        let spec = ExecutionSpec::simple(2, 12);
        let adversary = UnboundedDelay { min_delay: 0 };
        let sys = runs_of(&one_shot(), &adversary, spec.clone(), 100).unwrap();
        let names: Vec<&str> = sys.runs().map(|(_, r)| r.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "runs are sorted by name");

        let budget = Budget::unlimited();
        let protocol = one_shot();
        let mut dfs = Enumerator::new(&protocol, &adversary, &spec, &budget);
        assert!(dfs.drive(Sim::new(2), 0, 0, 0).is_ok());
        let seen = dfs.runs.build();
        let seen: Vec<&str> = seen.runs().map(|(_, r)| r.name()).collect();
        assert_eq!(seen.len(), names.len());
        assert_ne!(seen, sorted, "search order differs from name order");
    }

    /// Three configurations of the burst fixture, 2^6 runs each.
    fn burst_specs() -> Vec<ExecutionSpec> {
        (0..3u64)
            .map(|k| {
                ExecutionSpec::simple(2, 8)
                    .with_initial_states(vec![k, 0])
                    .with_label(format!("cfg{k}"))
            })
            .collect()
    }

    #[test]
    fn multi_spec_keeps_spec_order() {
        let specs = burst_specs();
        let adversary = LossyFixedDelay { delay: 1 };
        for limits in [Limits::none(), Limits::none().max_runs(1 << 10)] {
            let e = enumerate_runs(&burst(6), &adversary, &specs, &limits.budget()).unwrap();
            assert_eq!(e.num_runs(), 3 << 6);
            assert!(!e.truncated);
            // Spec order is kept: every cfg0 run precedes every cfg1 run.
            let sys = e.system.unwrap();
            let labels: Vec<&str> = sys.runs().map(|(_, r)| &r.name()[..4]).collect();
            assert!(labels.windows(2).all(|w| w[0] <= w[1]), "{labels:?}");
        }
    }

    #[test]
    fn one_run_ceiling_spans_all_specs() {
        let specs = burst_specs();
        let adversary = LossyFixedDelay { delay: 1 };
        // 64 runs per spec: a ceiling of 100 admits the first spec
        // whole, then must stop inside the second.
        let strict = Limits::none().max_runs(100).budget();
        match enumerate_runs(&burst(6), &adversary, &specs, &strict) {
            Err(EnumerateError::Limit(e)) => {
                assert_eq!(e.resource, Resource::Runs);
                assert_eq!(e.limit, 100);
            }
            other => panic!("expected a run limit, got {other:?}"),
        }
        let partial = Limits::none().max_runs(100).allow_partial(true).budget();
        let e = enumerate_runs(&burst(6), &adversary, &specs, &partial).unwrap();
        assert!(e.truncated);
        assert_eq!(e.num_runs(), 100);
        let sys = e.into_system().unwrap();
        let runs = runs(&sys);
        let first = runs.iter().filter(|r| r.name().starts_with("cfg0")).count();
        assert_eq!(first, 64, "first spec admitted whole");
        assert!(
            runs.iter().all(|r| !r.name().starts_with("cfg2")),
            "the third spec is never started"
        );
    }

    #[test]
    fn clocks_and_initial_states_propagate() {
        let spec = ExecutionSpec::simple(2, 2)
            .with_initial_states(vec![7, 8])
            .with_clocks(Clocks::Offset(vec![0, 5]))
            .with_label("cfg0");
        let sys = runs_of(&Silent, &SynchronousDelay { delay: 1 }, spec, 10).unwrap();
        let r = sys.run(RunId(0));
        assert!(r.name().starts_with("cfg0:"));
        assert_eq!(r.proc(AgentId::new(0)).initial_state(), 7);
        assert_eq!(r.proc(AgentId::new(1)).clock_at(1), Some(6));
    }

    #[test]
    fn enumerate_system_combines_configs() {
        let specs = vec![
            ExecutionSpec::simple(2, 2)
                .with_initial_states(vec![0, 0])
                .with_label("v0"),
            ExecutionSpec::simple(2, 2)
                .with_initial_states(vec![1, 0])
                .with_label("v1"),
        ];
        let budget = Limits::none().max_runs(10).budget();
        let sys = enumerate_runs(&Silent, &SynchronousDelay { delay: 1 }, &specs, &budget)
            .unwrap()
            .into_system()
            .unwrap();
        assert_eq!(sys.num_runs(), 2);
        assert!(!sys.is_truncated());
    }

    #[test]
    fn protocol_sees_same_tick_delivery_only_next_tick() {
        // p0 sends at t0 with instant delivery; p1 echoes an Act the tick
        // *after* it sees the message — i.e. at t1, not t0.
        let echo = FnProtocol::new("echo", |v: &LocalView<'_>| {
            if v.me.index() == 0 && v.sent().count() == 0 {
                return vec![Command::Send {
                    to: AgentId::new(1),
                    msg: Message::tagged(9),
                }];
            }
            if v.me.index() == 1 && v.has_received_tag(9) && !v.has_acted(1) {
                return vec![Command::Act { action: 1, data: 0 }];
            }
            Vec::new()
        });
        let sys = runs_of(
            &echo,
            &crate::adversary::InstantOrLost,
            ExecutionSpec::simple(2, 3),
            10,
        )
        .unwrap();
        let (_, delivered) = sys
            .runs()
            .find(|(_, r)| r.deliveries_before(4) == 1)
            .expect("delivered run");
        let act = delivered
            .proc(AgentId::new(1))
            .events()
            .iter()
            .find(|e| matches!(e.event, Event::Act { .. }))
            .expect("act");
        assert_eq!(act.time, 1, "recv at 0 enters history at 1");
    }
}
