//! Simultaneous agreement under crash failures (Section 11 footnote 5,
//! after Dwork–Moses \[DM90\]).
//!
//! The paper notes that in Byzantine-agreement protocols the nonfaulty
//! processors attain common knowledge of the decision value "at the end
//! of phase k" — the knowledge-theoretic reason simultaneous agreement
//! with up to `f` crash failures needs `f + 1` rounds. This module builds
//! the full crash-failure run space of a synchronous full-information
//! protocol and checks:
//!
//! - **agreement, validity, simultaneity** across *every* crash pattern
//!   and input assignment;
//! - the decision value is **common knowledge at the end of round
//!   `f + 1`** in failure-free runs — and *not* at the end of round `f`
//!   (the lower-bound shape).
//!
//! Crash semantics: a processor crashing in round `r` sends that round's
//! messages to an adversary-chosen subset of the others, then is silent
//! forever. We enumerate every pattern of at most `f` crashes — each a
//! `(crasher, round, subset)` triple with distinct crashers — plus the
//! failure-free pattern, over all binary input assignments. This
//! implementation supports `f ∈ {1, 2, 3}`; the pattern space grows fast
//! (`n = 3, f = 1`: 200 runs; `n = 3, f = 2`: 3 752; `n = 4, f = 2`:
//! ~57k; `n = 4, f = 3`: ~2.2M naive).
//!
//! Beyond `f = 2` the naive product is impractical, so this module also
//! provides a **symmetry-reduced** enumeration
//! ([`Reduction::Symmetric`]): crash patterns are
//! canonicalised up to process renaming ([`canonicalize_pattern`]) and
//! only one representative per orbit is executed, with the orbit size
//! recorded as a multiplicity ([`canonical_patterns`]). Every binary
//! input assignment is still enumerated for each representative, which
//! keeps the reduced system closed under the representative pattern's
//! stabilizer — the property that preserves the epistemic structure for
//! process-symmetric queries (atoms like `min0`/`decided0`, `E`/`C` over
//! all processors). The reduced ≡ naive verdict parity is pinned
//! world-by-world by the differential suite in
//! `crates/engine/tests/symmetry.rs`.

use hm_kripke::{AgentGroup, AgentId};
use hm_limits::{failpoints, Admission, Budget, LimitExceeded, Phase, Resource};
use hm_logic::{evaluate, EvalError, Formula};
use hm_runs::{
    CompleteHistory, Event, InterpretedSystem, InterpretedSystemBuilder, Message, Run, System,
    SystemBuilder, TimedEvent,
};
use std::cmp::Ordering;
use std::fmt;

/// Message tag for a round broadcast; `data` encodes the sender's current
/// seen-set (bitmask of initial values observed, by processor).
pub const TAG_ROUND: u32 = 20;
/// Action code for the decision; `data` is the decided value.
pub const ACT_DECIDE: u32 = 201;

/// The most processors an agreement system has.
const MAX_PROCS: usize = 5;

/// Configuration of the agreement experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgreementSpec {
    /// Number of processors (3..=5; beyond 4 only the reduced
    /// enumeration is practical).
    pub n: usize,
    /// Maximum number of crashes (this implementation enumerates
    /// `f ∈ {1, 2, 3}`).
    pub f: usize,
}

impl AgreementSpec {
    /// Validates the implemented range: `f ∈ 1..=3`, `n ∈ 3..=5`,
    /// `n > f`.
    fn check(self) {
        assert!(
            (1..=3).contains(&self.f),
            "this experiment enumerates f in 1..=3"
        );
        assert!(
            self.n >= 3 && self.n <= MAX_PROCS && self.n > self.f,
            "need 3 <= n <= 5 and n > f"
        );
    }
}

/// One crash: the crasher, its final (1-based) round, and the
/// recipients that still get its final-round message (ascending).
#[derive(Debug, Clone, Hash, PartialEq, Eq, PartialOrd, Ord)]
pub struct Crash {
    /// The crashing processor.
    pub crasher: usize,
    /// The 1-based round of its last (partial) broadcast.
    pub round: usize,
    /// The processors that still receive its final-round message,
    /// sorted ascending.
    pub recipients: Vec<usize>,
}

/// A crash pattern: at most `f` crashes with distinct crashers, sorted
/// by crasher; empty means failure-free.
pub type CrashPattern = Vec<Crash>;

/// Which crash-pattern space an agreement build executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// Every crash pattern ([`crash_patterns`]), interpreted under
    /// complete history.
    Naive,
    /// One representative per process-renaming orbit
    /// ([`canonical_patterns`]), interpreted under [`SymmetricHistory`].
    /// The reduced system is an induced subsystem of the naive one (run
    /// names included), smaller by roughly the orbit factor, and answers
    /// process-symmetric epistemic queries identically at the surviving
    /// points — the contract pinned by the differential suite in
    /// `crates/engine/tests/symmetry.rs`. This is what makes `f = 3`
    /// buildable interactively.
    Symmetric,
}

/// Builds the system of runs of the `f + 1`-round full-information
/// protocol: every input assignment in `{0,1}^n` × every crash pattern
/// of at most `f` crashes — or, under [`Reduction::Symmetric`], × every
/// canonical crash pattern only.
///
/// Timeline: round `r` messages are sent at time `r` and received at
/// time `r` (entering histories at `r + 1`); decisions are recorded at
/// time `f + 2`. The horizon is `f + 3`.
///
/// Each run is admitted against the budget's run ceiling before it is
/// executed, and deadlines and cancellation are checked at the same
/// granularity (pattern canonicalisation is polled per naive pattern, so
/// they interrupt even the pre-execution phase). Under a strict budget
/// exhaustion is a typed [`LimitExceeded`]; under
/// [`hm_limits::Limits::allow_partial`] the enumeration truncates instead
/// and the returned [`System`] is flagged
/// [`is_truncated`](System::is_truncated) (each run present is complete —
/// truncation drops whole runs only).
///
/// # Errors
///
/// [`LimitExceeded`] on strict exhaustion, or when a partial budget is so
/// small that *zero* runs were admitted (a [`System`] cannot be empty).
///
/// # Panics
///
/// Panics unless `spec.f ∈ {1, 2, 3}` and `spec.n ∈ {3, 4, 5}` and
/// `spec.n > spec.f` (the implemented range; the structure generalises
/// but enumeration grows fast — beyond `f = 2` prefer
/// [`Reduction::Symmetric`]).
pub fn agreement_system(
    spec: AgreementSpec,
    reduction: Reduction,
    budget: &Budget,
) -> Result<System, LimitExceeded> {
    let patterns = match reduction {
        Reduction::Naive => crash_patterns(spec),
        Reduction::Symmetric => {
            failpoints::check("core::canonicalize", Phase::Enumerate)?;
            canonical_patterns_budgeted(spec, budget)?
                .into_iter()
                .map(|(p, _)| p)
                .collect()
        }
    };
    let n = spec.n;
    let rounds = spec.f + 1;
    let decide_at = (rounds + 1) as u64; // decisions enter history by then
    let horizon = decide_at + 1;

    let mut runs = SystemBuilder::new();
    let mut truncated = false;
    'enumeration: for inputs in 0..(1u64 << n) {
        for pattern in &patterns {
            // Admission before execution: runs past the ceiling are
            // never built, and deadline/cancellation are polled here.
            match budget.admit_run(Phase::Enumerate) {
                Ok(Admission::Admit) => {}
                Ok(Admission::Truncate) => {
                    truncated = true;
                    break 'enumeration;
                }
                Err(e) => return Err(e),
            }
            execute(&mut runs, n, rounds, horizon, inputs, pattern);
        }
    }
    if runs.num_runs() == 0 {
        // A zero-run partial budget: report it as the exhaustion it is
        // rather than panicking in `SystemBuilder::build`.
        return Err(LimitExceeded {
            resource: Resource::Runs,
            phase: Phase::Enumerate,
            spent: 1,
            limit: 0,
        });
    }
    let mut system = runs.build();
    if truncated {
        system.mark_truncated();
    }
    Ok(system)
}

/// Every single crash of `spec`, in (crasher, round, subset-mask) order.
fn single_crashes(n: usize, rounds: usize) -> Vec<Crash> {
    let mut singles: Vec<Crash> = Vec::new();
    for crasher in 0..n {
        for round in 1..=rounds {
            // Every subset of the other processors may still be served.
            let others: Vec<usize> = (0..n).filter(|&j| j != crasher).collect();
            for mask in 0..(1u32 << others.len()) {
                let recipients: Vec<usize> = others
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| mask & (1 << k) != 0)
                    .map(|(_, &j)| j)
                    .collect();
                singles.push(Crash {
                    crasher,
                    round,
                    recipients,
                });
            }
        }
    }
    singles
}

/// The naive crash-pattern space of `spec`: failure-free, then every
/// combination of `1..=f` single crashes with distinct crashers, sizes
/// ascending and combinations in lexicographic singles order — the
/// `f = 1` and `f = 2` prefixes are exactly the historical enumeration
/// order the E18 driver output depends on.
///
/// # Panics
///
/// Panics on an out-of-range `spec` (see [`agreement_system`]).
pub fn crash_patterns(spec: AgreementSpec) -> Vec<CrashPattern> {
    spec.check();
    let singles = single_crashes(spec.n, spec.f + 1);
    let mut patterns: Vec<CrashPattern> = vec![Vec::new()];
    let mut combo: Vec<usize> = Vec::new();
    for size in 1..=spec.f {
        combos_into(&singles, 0, size, &mut combo, &mut patterns);
    }
    patterns
}

/// Appends every size-`left` extension of `combo` (indices into
/// `singles`, ascending, distinct crashers) as a pattern.
fn combos_into(
    singles: &[Crash],
    start: usize,
    left: usize,
    combo: &mut Vec<usize>,
    out: &mut Vec<CrashPattern>,
) {
    if left == 0 {
        out.push(combo.iter().map(|&k| singles[k].clone()).collect());
        return;
    }
    for k in start..singles.len() {
        if combo
            .iter()
            .any(|&p| singles[p].crasher == singles[k].crasher)
        {
            continue;
        }
        combo.push(k);
        combos_into(singles, k + 1, left - 1, combo, out);
        combo.pop();
    }
}

/// All permutations of `0..n` in lexicographic order (identity first).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        out.push(perm.clone());
        // Next permutation in lexicographic order.
        let Some(i) = (0..n - 1).rev().find(|&i| perm[i] < perm[i + 1]) else {
            return out;
        };
        let j = (i + 1..n).rev().find(|&j| perm[j] > perm[i]).unwrap();
        perm.swap(i, j);
        perm[i + 1..].reverse();
    }
}

/// Applies the process renaming `perm` to a crash pattern and restores
/// the normal form: recipients ascending, crashes sorted.
pub fn rename_pattern(pattern: &[Crash], perm: &[usize]) -> CrashPattern {
    let mut out: CrashPattern = pattern
        .iter()
        .map(|c| {
            let mut recipients: Vec<usize> = c.recipients.iter().map(|&j| perm[j]).collect();
            recipients.sort_unstable();
            Crash {
                crasher: perm[c.crasher],
                round: c.round,
                recipients,
            }
        })
        .collect();
    out.sort();
    out
}

/// The canonical representative of `pattern`'s orbit under process
/// renaming: the lexicographically least renaming over all `n!`
/// permutations. Two patterns deliver the same information up to
/// process identity iff they canonicalise identically.
pub fn canonicalize_pattern(pattern: &[Crash], n: usize) -> CrashPattern {
    permutations(n)
        .iter()
        .map(|perm| rename_pattern(pattern, perm))
        .min()
        .expect("n! >= 1 permutations")
}

/// A process renaming carrying `pattern` to its canonical form (the
/// first one in lexicographic permutation order). Composing it with
/// the input assignment (`bit i` of the image set at `perm[i]`) maps
/// any naive run to the reduced run standing for its orbit — the
/// world-by-world correspondence the differential suite checks.
pub fn canonicalizing_permutation(pattern: &[Crash], n: usize) -> Vec<usize> {
    let canon = canonicalize_pattern(pattern, n);
    permutations(n)
        .into_iter()
        .find(|perm| rename_pattern(pattern, perm) == canon)
        .expect("some permutation achieves the minimum")
}

/// The symmetry-canonical view of the reduced system: processor `i`'s
/// complete history, replaced by its lexicographically least relabeling
/// over the `(n-1)!` process renamings that fix `i`.
///
/// Dropping non-canonical crash patterns removes worlds from the frame,
/// which cuts indistinguishability chains and would make common
/// knowledge *prematurely* true (empirically: `C{…} min0` flips at
/// round `f` in clean runs under the plain [`CompleteHistory`] view —
/// falsifying the paper's lower bound). Coarsening each view to its
/// stabilizer orbit restores those edges: a step from a kept run into a
/// dropped run is re-targeted at the dropped run's kept orbit-mate,
/// because the two differ only by a renaming invisible to `i`. The
/// coarsening is still an equivalence per agent (orbit equality under a
/// subgroup) and still a function of the history alone, so it is an
/// admissible [`hm_runs::ViewFunction`]; on the *full* system it provably
/// preserves verdicts of process-symmetric formulas, and on the reduced
/// system the equivalence is pinned empirically, world-by-world, by
/// `crates/engine/tests/symmetry.rs`.
pub struct SymmetricHistory {
    /// All `n!` renamings, each with its precomputed payload-relabel
    /// table (`seen | vals << n` is `2n` processor-indexed bits, so the
    /// table has `2^(2n)` entries).
    perms: Vec<RelabelPerm>,
    /// `stabs[i]` = indices into `perms` of the renamings fixing `i`,
    /// identity first.
    stabs: Vec<Vec<usize>>,
}

struct RelabelPerm {
    map: Vec<usize>,
    payload: Vec<u64>,
}

impl RelabelPerm {
    /// `e` with its counterparty and its round payload renamed.
    fn rename(&self, e: Event) -> Event {
        match e {
            Event::Send { to, msg } => Event::Send {
                to: AgentId::new(self.map[to.index()]),
                msg: Message::new(msg.tag, self.payload[msg.data as usize]),
            },
            Event::Recv { from, msg } => Event::Recv {
                from: AgentId::new(self.map[from.index()]),
                msg: Message::new(msg.tag, self.payload[msg.data as usize]),
            },
            act @ Event::Act { .. } => act,
        }
    }
}

impl SymmetricHistory {
    /// Creates the canonical view for an `n`-processor agreement system.
    ///
    /// # Panics
    ///
    /// Panics if `n > 5`: the tie state of [`intern_run`] is a `u32` mask
    /// over the `(n-1)!` renamings that fix a processor.
    ///
    /// [`intern_run`]: hm_runs::ViewFunction::intern_run
    pub fn new(n: usize) -> Self {
        assert!(
            n <= MAX_PROCS,
            "the symmetric view supports at most {MAX_PROCS} processors"
        );
        let mask = (1u64 << n) - 1;
        let perms: Vec<RelabelPerm> = permutations(n)
            .into_iter()
            .map(|map| {
                let payload = (0..1u64 << (2 * n))
                    .map(|data| {
                        let (seen, vals) = (data & mask, data >> n);
                        let mut out = 0u64;
                        for (j, &pj) in map.iter().enumerate() {
                            out |= ((seen >> j) & 1) << pj;
                            out |= ((vals >> j) & 1) << (pj + n);
                        }
                        out
                    })
                    .collect();
                RelabelPerm { map, payload }
            })
            .collect();
        let stabs = (0..n)
            .map(|i| (0..perms.len()).filter(|&k| perms[k].map[i] == i).collect())
            .collect();
        SymmetricHistory { perms, stabs }
    }
}

impl hm_runs::ViewFunction for SymmetricHistory {
    /// The definition, by brute force: the complete history with its
    /// events replaced by their lexicographically least relabelling over
    /// the stabilizer of `i`, the events of each tick sorted (a tick's
    /// order of occurrence is itself renaming-dependent).
    fn encode_view(&self, run: Run<'_>, i: AgentId, t: u64, out: &mut Vec<u64>) {
        let p = run.proc(i);
        let events = p.events();
        let before = &events[..events.partition_point(|e| e.time < t)];
        let least = self.stabs[i.index()]
            .iter()
            .map(|&k| {
                let mut renamed: Vec<TimedEvent> = before
                    .iter()
                    .map(|e| TimedEvent::new(e.time, self.perms[k].rename(e.event)))
                    .collect();
                renamed.sort_unstable();
                renamed
            })
            .min()
            .expect("the identity fixes i");
        hm_runs::encode_history(p, t, &least, out);
    }

    /// One pass per run: the history trie, fed each tick's least
    /// relabelling among the renamings still tied for the minimum. A
    /// renaming never changes how many events a tick has, so every
    /// candidate splits into ticks alike, and one that is strictly
    /// greater on a prefix stays greater: the least whole history is the
    /// tick-by-tick least over the renamings tied so far. The trie's tick
    /// state is the set of positions in `stabs[i]` ruled out so far (at
    /// most `4! = 24` of them), so a resumed walk picks up the ties too.
    fn intern_run(
        &self,
        run: Run<'_>,
        i: AgentId,
        interner: &mut hm_runs::ViewInterner,
        ids: &mut Vec<u32>,
    ) {
        let stab = &self.stabs[i.index()];
        let mut cand = Vec::new();
        let canonical_tick = |ruled_out: &mut u32, tick: &[TimedEvent], least: &mut Vec<Event>| {
            let mut tied = 0u32;
            for (k, &perm) in stab.iter().enumerate() {
                if *ruled_out & 1 << k != 0 {
                    continue;
                }
                let perm = &self.perms[perm];
                cand.clear();
                cand.extend(tick.iter().map(|e| perm.rename(e.event)));
                cand.sort_unstable();
                let order = if tied == 0 {
                    Ordering::Less
                } else {
                    cand.cmp(least)
                };
                match order {
                    Ordering::Less => {
                        std::mem::swap(least, &mut cand);
                        tied = 1 << k;
                    }
                    Ordering::Equal => tied |= 1 << k,
                    Ordering::Greater => {}
                }
            }
            *ruled_out = !tied;
        };
        hm_runs::intern_history_trie(run, i, interner, ids, canonical_tick);
    }

    fn name(&self) -> &'static str {
        "symmetric-history"
    }
}

/// The run name of one `(inputs, pattern)` cell — `v{bits}-clean` or
/// `v{bits}-c{crasher}r{round}s{recipients}+…`, the naming scheme the
/// E18 driver output and the seed-stability tests pin.
pub fn pattern_run_name(n: usize, inputs: u64, pattern: &[Crash]) -> String {
    RunName { n, inputs, pattern }.to_string()
}

/// [`pattern_run_name`] as a [`fmt::Display`], so that enumeration writes
/// each name straight into the run store.
struct RunName<'a> {
    n: usize,
    inputs: u64,
    pattern: &'a [Crash],
}

impl fmt::Display for RunName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{:0width$b}-", self.inputs, width = self.n)?;
        if self.pattern.is_empty() {
            return f.write_str("clean");
        }
        for (k, c) in self.pattern.iter().enumerate() {
            if k > 0 {
                f.write_str("+")?;
            }
            write!(f, "c{}r{}s", c.crasher, c.round)?;
            for j in &c.recipients {
                write!(f, "{j}")?;
            }
        }
        Ok(())
    }
}

/// The orbit representatives of the crash-pattern space of `spec` under
/// process renaming, paired with their orbit sizes (multiplicities), in
/// naive enumeration order of the representatives — failure-free first.
/// The multiplicities sum to [`crash_patterns`]`.len()`. Spaces of at
/// least 4,096 naive patterns are filtered on every core, in contiguous
/// chunks joined in order, with the same result.
///
/// # Panics
///
/// Panics on an out-of-range `spec` (see [`agreement_system`]).
pub fn canonical_patterns(spec: AgreementSpec) -> Vec<(CrashPattern, usize)> {
    canonical_patterns_budgeted(spec, &Budget::unlimited())
        .expect("unlimited budget cannot be exceeded")
}

/// Crash-pattern spaces of at least this many naive patterns are
/// orbit-filtered on [`hm_limits::worker_count`] threads; smaller ones on
/// the calling thread, where spawning would cost more than the work.
const PARALLEL_MIN_PATTERNS: usize = 4096;

/// Naive patterns per orbit-filter job: enough chunks for the workers to
/// balance the uneven per-pattern cost, few enough to be cheap to join.
const PATTERNS_PER_JOB: usize = 1024;

/// [`canonical_patterns`] with a budget poll per naive pattern.
fn canonical_patterns_budgeted(
    spec: AgreementSpec,
    budget: &Budget,
) -> Result<Vec<(CrashPattern, usize)>, LimitExceeded> {
    let patterns = crash_patterns(spec);
    let workers = if patterns.len() >= PARALLEL_MIN_PATTERNS {
        hm_limits::worker_count(patterns.len().div_ceil(PATTERNS_PER_JOB))
    } else {
        1
    };
    canonical_patterns_with_workers(spec.n, patterns, budget, workers)
}

/// Filters `patterns` down to their orbit representatives on `workers`
/// threads (1 = on the calling thread only): contiguous chunks, each
/// filtered by one job, joined in chunk order — so the representatives
/// keep their naive enumeration order whatever the scheduling.
fn canonical_patterns_with_workers(
    n: usize,
    mut patterns: Vec<CrashPattern>,
    budget: &Budget,
    workers: usize,
) -> Result<Vec<(CrashPattern, usize)>, LimitExceeded> {
    let perms = permutations(n);
    let chunks = patterns.chunks(PATTERNS_PER_JOB).enumerate().collect();
    // Per chunk: (index in `patterns`, orbit size) of each representative.
    let kept = hm_limits::run_jobs(chunks, workers, budget, |(c, chunk), budget| {
        let mut kept: Vec<(usize, usize)> = Vec::new();
        'patterns: for (k, pattern) in chunk.iter().enumerate() {
            budget.tick(Phase::Enumerate)?;
            // Keep the pattern iff it is its own canonical form (no
            // renaming is lexicographically smaller). Its orbit size is
            // n! over the number of renamings that fix it.
            let own = pattern_key(pattern, &perms[0]);
            let mut fixing = 1;
            for perm in &perms[1..] {
                match pattern_key(pattern, perm).cmp(&own) {
                    Ordering::Less => continue 'patterns,
                    Ordering::Equal => fixing += 1,
                    Ordering::Greater => {}
                }
            }
            kept.push((c * PATTERNS_PER_JOB + k, perms.len() / fixing));
        }
        Ok(kept)
    })?;
    Ok(kept
        .into_iter()
        .flatten()
        .map(|(i, orbit)| (std::mem::take(&mut patterns[i]), orbit))
        .collect())
}

/// The most crashes a pattern holds (`f <= 3`, see [`AgreementSpec`]).
const MAX_CRASHES: usize = 3;

/// The renaming of `pattern` by `perm`, packed into one `u32` per crash
/// (zero-padded) that compares exactly as [`rename_pattern`]'s result
/// does, without allocating. A crash packs its crasher into bits 28..32,
/// its round into bits 24..28 and its recipients, ascending, as `j + 1`
/// nibbles in bits 16..20, 12..16 and so on down; the zero nibbles after
/// the last recipient make a list sort before its extensions, as `Vec`
/// order has it (a recipients bitmask would not).
fn pattern_key(pattern: &[Crash], perm: &[usize]) -> [u32; MAX_CRASHES] {
    debug_assert!(pattern.len() <= MAX_CRASHES && perm.len() <= 5);
    let mut key = [0; MAX_CRASHES];
    for (slot, c) in key.iter_mut().zip(pattern) {
        let mut recipients = c.recipients.iter().fold(0u32, |m, &j| m | 1 << perm[j]);
        *slot = (perm[c.crasher] as u32) << 28 | (c.round as u32) << 24;
        let mut shift = 20;
        while recipients != 0 {
            shift -= 4;
            *slot |= (recipients.trailing_zeros() + 1) << shift;
            recipients &= recipients - 1;
        }
    }
    key[..pattern.len()].sort_unstable();
    key
}

/// Deterministically executes one crash pattern, appending its run to
/// `runs`. Each processor's events are produced in time order, and its
/// decision, when it makes one, is its last event.
#[allow(clippy::needless_range_loop)] // index used for identity & seen[]
fn execute(
    runs: &mut SystemBuilder,
    n: usize,
    rounds: usize,
    horizon: u64,
    inputs: u64,
    pattern: &[Crash],
) {
    // seen[i] = bitmask of processors whose initial value i has seen.
    let mut seen: [u64; MAX_PROCS] = std::array::from_fn(|i| 1 << i);
    let mut b = runs.run(RunName { n, inputs, pattern }, n, horizon);
    for i in 0..n {
        let value = (inputs >> i) & 1;
        b = b
            .wake(AgentId::new(i), 0, value)
            .perfect_clock(AgentId::new(i), 0);
    }
    let crashed = |i: usize, round: usize| -> bool {
        pattern.iter().any(|c| c.crasher == i && round > c.round)
    };
    for round in 1..=rounds {
        let t = round as u64;
        // All sends of this round, based on `seen` at the round start:
        // `deliveries[..delivered]` holds (from, to, payload).
        let mut deliveries = [(0, 0, 0); MAX_PROCS * (MAX_PROCS - 1)];
        let mut delivered = 0;
        for i in 0..n {
            if crashed(i, round) {
                continue;
            }
            let payload = seen[i] | ((inputs & seen_mask(seen[i], n)) << n);
            for j in 0..n {
                if j == i {
                    continue;
                }
                let delivers = match pattern.iter().find(|c| c.crasher == i && c.round == round) {
                    Some(c) => c.recipients.contains(&j),
                    None => true,
                };
                b = b.event(
                    AgentId::new(i),
                    t,
                    Event::Send {
                        to: AgentId::new(j),
                        msg: Message::new(TAG_ROUND, payload),
                    },
                );
                if delivers {
                    deliveries[delivered] = (i, j, payload);
                    delivered += 1;
                }
            }
        }
        for &(from, to, payload) in &deliveries[..delivered] {
            b = b.event(
                AgentId::new(to),
                t,
                Event::Recv {
                    from: AgentId::new(from),
                    msg: Message::new(TAG_ROUND, payload),
                },
            );
            seen[to] |= payload & ((1 << n) - 1);
        }
    }
    // Decisions: every processor alive at decision time decides
    // min(initial values among seen).
    let decide_t = (rounds + 1) as u64;
    for i in 0..n {
        if crashed(i, rounds + 1) {
            continue;
        }
        let value = decide_value(seen[i], inputs, n);
        b = b.event(
            AgentId::new(i),
            decide_t,
            Event::Act {
                action: ACT_DECIDE,
                data: value,
            },
        );
    }
    b.finish();
}

fn seen_mask(seen: u64, n: usize) -> u64 {
    seen & ((1 << n) - 1)
}

/// The decision rule: minimum initial value among the seen processors.
fn decide_value(seen: u64, inputs: u64, n: usize) -> u64 {
    (0..n)
        .filter(|&j| seen & (1 << j) != 0)
        .map(|j| (inputs >> j) & 1)
        .min()
        .expect("every processor has seen itself")
}

/// The decision of processor `i` in `run`, if it decided.
pub fn decision_of(run: Run<'_>, i: AgentId) -> Option<u64> {
    run.proc(i).events().iter().find_map(|e| match e.event {
        Event::Act { action, data } if action == ACT_DECIDE => Some(data),
        _ => None,
    })
}

/// Safety report over the whole system.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SafetyReport {
    /// Runs where two nonfaulty processors decided differently.
    pub agreement_violations: usize,
    /// Runs where the decision was not some processor's initial value.
    pub validity_violations: usize,
    /// Runs checked.
    pub runs: usize,
}

/// Checks agreement and validity across every run.
pub fn check_safety(system: &System) -> SafetyReport {
    let n = system.num_procs();
    let mut report = SafetyReport::default();
    for (_, run) in system.runs() {
        report.runs += 1;
        let decisions: Vec<u64> = (0..n)
            .filter_map(|i| decision_of(run, AgentId::new(i)))
            .collect();
        if decisions.windows(2).any(|w| w[0] != w[1]) {
            report.agreement_violations += 1;
        }
        let inputs: Vec<u64> = (0..n)
            .map(|i| run.proc(AgentId::new(i)).initial_state())
            .collect();
        if decisions.iter().any(|d| !inputs.contains(d)) {
            report.validity_violations += 1;
        }
    }
    report
}

/// The agreement system ([`agreement_system`]) interpreted with the
/// facts `decided0` / `decided1` ("some processor has decided v in its
/// history") and `min0` ("the minimum input is 0" — the clean-run
/// decision value), as an un-built builder for callers that set build
/// options (the `hm-engine` scenario registry). Under
/// [`Reduction::Symmetric`] the view coarsens to [`SymmetricHistory`],
/// which is what keeps the epistemic verdicts aligned with the naive
/// build (see its docs).
///
/// # Errors
///
/// As for [`agreement_system`].
pub fn agreement_builder(
    spec: AgreementSpec,
    reduction: Reduction,
    budget: &Budget,
) -> Result<InterpretedSystemBuilder, LimitExceeded> {
    let system = agreement_system(spec, reduction, budget)?;
    Ok(match reduction {
        Reduction::Naive => builder_with_facts(system, spec.n, CompleteHistory),
        Reduction::Symmetric => builder_with_facts(system, spec.n, SymmetricHistory::new(spec.n)),
    })
}

fn builder_with_facts(
    system: System,
    n: usize,
    view: impl hm_runs::ViewFunction + 'static,
) -> InterpretedSystemBuilder {
    InterpretedSystem::builder(system, view)
        .fact("min0", move |run, _t| {
            (0..n).any(|i| run.proc(AgentId::new(i)).initial_state() == 0)
        })
        .fact("decided0", decided0)
}

/// `decided0` at `(run, t)`: some processor's history at `t` holds a
/// decision for 0. [`execute`] records a decision as its processor's
/// last event, so only each processor's last event can be one: O(n) per
/// point instead of a scan of every event.
fn decided0(run: Run<'_>, t: u64) -> bool {
    run.procs().any(|p| {
        p.events().last().is_some_and(|e| {
            e.time < t
                && matches!(e.event, Event::Act { action, data } if action == ACT_DECIDE && data == 0)
        })
    })
}

/// For the failure-free run with the given inputs, the first time at
/// which the decision value (`min0` when some input is 0) is common
/// knowledge among all processors.
///
/// # Panics
///
/// Panics if no clean run matches.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn ck_onset_in_clean_run(
    isys: &InterpretedSystem,
    inputs: u64,
) -> Result<Option<u64>, EvalError> {
    let n = isys.system().num_procs();
    let (rid, run) = isys
        .system()
        .runs()
        .find(|(_, r)| {
            r.name().ends_with("-clean")
                && (0..n).all(|i| r.proc(AgentId::new(i)).initial_state() == (inputs >> i) & 1)
        })
        .expect("clean run exists for every input vector");
    let g = AgentGroup::all(n);
    let ck = evaluate(isys, &Formula::common(g, Formula::atom("min0")))?;
    Ok((0..=run.horizon()).find(|&t| ck.contains(isys.world(rid, t))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_logic::Frame;

    const SPEC: AgreementSpec = AgreementSpec { n: 3, f: 1 };

    fn build_system(spec: AgreementSpec, reduction: Reduction) -> System {
        agreement_system(spec, reduction, &Budget::unlimited()).unwrap()
    }

    fn build_interpreted(spec: AgreementSpec, reduction: Reduction) -> InterpretedSystem {
        agreement_builder(spec, reduction, &Budget::unlimited())
            .unwrap()
            .build()
    }

    #[test]
    fn safety_across_all_crash_patterns() {
        let system = build_system(SPEC, Reduction::Naive);
        // 2 rounds × 3 crashers × 4 subsets = 24 patterns + clean = 25,
        // times 8 input vectors = 200 runs.
        assert_eq!(system.num_runs(), 200);
        let report = check_safety(&system);
        assert_eq!(report.agreement_violations, 0, "agreement");
        assert_eq!(report.validity_violations, 0, "validity");
    }

    #[test]
    fn decisions_are_simultaneous() {
        let system = build_system(SPEC, Reduction::Naive);
        for (_, run) in system.runs() {
            let times: Vec<u64> = (0..3)
                .filter_map(|i| {
                    run.proc(AgentId::new(i)).events().iter().find_map(|e| {
                        matches!(e.event, Event::Act { action, .. } if action == ACT_DECIDE)
                            .then_some(e.time)
                    })
                })
                .collect();
            assert!(times.windows(2).all(|w| w[0] == w[1]), "{}", run.name());
        }
    }

    #[test]
    fn ck_of_decision_value_at_round_f_plus_1_not_before() {
        let isys = build_interpreted(SPEC, Reduction::Naive);
        // Inputs 0b110: p0 holds 0, so min0; clean run.
        let onset = ck_onset_in_clean_run(&isys, 0b110).unwrap();
        // Round-2 messages land at t=2 and enter histories at t=3 — the
        // end of round f+1 = 2. CK must hold there and not at the end of
        // round 1 (t=2).
        assert_eq!(onset, Some(3), "CK exactly at the end of round f+1");
    }

    #[test]
    fn one_round_does_not_suffice() {
        // The same check with the would-be 1-round protocol: evaluate CK
        // at the end of round 1 (t=2) in the 2-round system — it fails,
        // which is the knowledge-theoretic content of the f+1 lower
        // bound.
        let isys = build_interpreted(SPEC, Reduction::Naive);
        let n = 3;
        let g = AgentGroup::all(n);
        let ck = evaluate(&isys, &Formula::common(g, Formula::atom("min0"))).unwrap();
        let (rid, _) = isys
            .system()
            .runs()
            .find(|(_, r)| r.name() == "v110-clean")
            .unwrap();
        assert!(!ck.contains(isys.world(rid, 2)));
    }

    #[test]
    fn safety_with_two_crashes() {
        let system = build_system(AgreementSpec { n: 3, f: 2 }, Reduction::Naive);
        // Singles: 3 crashers x 3 rounds x 4 subsets = 36; pairs with
        // distinct crashers: C(36,2) - 3*C(12,2) = 432; + clean = 469
        // patterns, times 8 input vectors.
        assert_eq!(system.num_runs(), 8 * 469);
        let report = check_safety(&system);
        assert_eq!(report.agreement_violations, 0, "agreement");
        assert_eq!(report.validity_violations, 0, "validity");
        // Simultaneity holds here too.
        for (_, run) in system.runs() {
            let times: Vec<u64> = (0..3)
                .filter_map(|i| {
                    run.proc(AgentId::new(i)).events().iter().find_map(|e| {
                        matches!(e.event, Event::Act { action, .. } if action == ACT_DECIDE)
                            .then_some(e.time)
                    })
                })
                .collect();
            assert!(times.windows(2).all(|w| w[0] == w[1]), "{}", run.name());
        }
    }

    #[test]
    fn ck_onset_moves_to_round_f_plus_1_for_f2() {
        let isys = build_interpreted(AgreementSpec { n: 3, f: 2 }, Reduction::Naive);
        // With f = 2 the protocol runs f + 1 = 3 rounds; round-3
        // messages enter histories at t = 4, so CK of the decision
        // value arrives exactly there — one round later than f = 1.
        let onset = ck_onset_in_clean_run(&isys, 0b110).unwrap();
        assert_eq!(onset, Some(4), "CK at the end of round f+1 = 3");
    }

    #[test]
    fn ck_onset_is_preserved_by_the_reduced_build() {
        // The reduced frame must reproduce the paper's onset KATs
        // exactly: CK of the decision value at the end of round f+1,
        // not before, in the clean run.
        let isys = build_interpreted(SPEC, Reduction::Symmetric);
        assert_eq!(ck_onset_in_clean_run(&isys, 0b110).unwrap(), Some(3));
        let isys = build_interpreted(AgreementSpec { n: 3, f: 2 }, Reduction::Symmetric);
        assert_eq!(ck_onset_in_clean_run(&isys, 0b110).unwrap(), Some(4));
    }

    #[test]
    fn reduced_orbits_partition_the_pattern_space() {
        // Orbit counts and multiplicity totals, pinned. The totals are
        // the naive pattern counts (25, 469, 65), so multiplicity-
        // weighted counting over the reduced system recovers naive
        // counts exactly.
        for (n, f, orbits, patterns) in [(3, 1, 7, 25), (3, 2, 88, 469), (4, 1, 9, 65)] {
            let reps = canonical_patterns(AgreementSpec { n, f });
            assert_eq!(reps.len(), orbits, "orbit count (n={n}, f={f})");
            let total: usize = reps.iter().map(|(_, m)| m).sum();
            assert_eq!(total, patterns, "pattern count (n={n}, f={f})");
        }
    }

    #[test]
    fn safety_holds_on_reduced_systems() {
        for (n, f) in [(3, 1), (3, 2), (4, 1)] {
            let system = build_system(AgreementSpec { n, f }, Reduction::Symmetric);
            let report = check_safety(&system);
            assert_eq!(report.agreement_violations, 0, "agreement (n={n}, f={f})");
            assert_eq!(report.validity_violations, 0, "validity (n={n}, f={f})");
        }
    }

    /// The f=3 headline KAT: 137,345 crash patterns collapse to 6,081
    /// orbits; the reduced system still decides safely and CK of the
    /// decision value arrives exactly at the end of round f+1 = 4
    /// (t = 5). Heavy in debug builds; ci.sh runs it in release mode.
    #[test]
    #[ignore = "heavy: run with --release via ci.sh"]
    fn f3_reduced_safety_and_ck_onset() {
        let spec = AgreementSpec { n: 4, f: 3 };
        let reps = canonical_patterns(spec);
        assert_eq!(reps.len(), 6081, "orbit count");
        assert_eq!(
            reps.iter().map(|(_, m)| m).sum::<usize>(),
            137_345,
            "naive pattern count covered"
        );
        let system = build_system(spec, Reduction::Symmetric);
        assert_eq!(system.num_runs(), 6081 * 16, "16 input vectors per orbit");
        let report = check_safety(&system);
        assert_eq!(report.agreement_violations, 0, "agreement");
        assert_eq!(report.validity_violations, 0, "validity");
        let isys = build_interpreted(spec, Reduction::Symmetric);
        assert_eq!(
            ck_onset_in_clean_run(&isys, 0b0110).unwrap(),
            Some(5),
            "CK exactly at the end of round f+1 = 4"
        );
    }

    /// The public f=3 build (parallel on a multi-core host) against a
    /// reference rebuilt here one agent at a time: every agent's
    /// partition and the `decided0` valuation must match.
    #[test]
    #[ignore = "heavy: run with --release via ci.sh"]
    fn f3_build_matches_a_sequential_reference() {
        let spec = AgreementSpec { n: 4, f: 3 };
        let isys = build_interpreted(spec, Reduction::Symmetric);
        let system = isys.system();
        let view = SymmetricHistory::new(spec.n);
        for i in 0..spec.n {
            let agent = AgentId::new(i);
            let mut interner = hm_runs::ViewInterner::new();
            let mut ids = Vec::new();
            for (_, run) in system.runs() {
                hm_runs::ViewFunction::intern_run(&view, run, agent, &mut interner, &mut ids);
            }
            let reference =
                hm_kripke::Partition::from_dense_keys(system.num_points(), &ids, interner.len());
            assert_eq!(isys.model().partition(agent), &reference, "agent {i}");
        }
        let decided = isys
            .model()
            .atom_set(isys.model().atom_id("decided0").unwrap());
        for p in system.points() {
            assert_eq!(
                decided.contains(isys.world(p.run, p.time)),
                decided0(system.run(p.run), p.time),
                "{p:?}"
            );
        }
    }

    #[test]
    fn pattern_keys_order_like_renamed_patterns() {
        // Every renaming of every pattern, sorted as patterns: the packed
        // keys must ascend with them and tie exactly where they tie.
        for (n, f) in [(4, 2), (5, 1), (5, 2)] {
            let mut renamed: Vec<(CrashPattern, [u32; MAX_CRASHES])> = Vec::new();
            for pattern in crash_patterns(AgreementSpec { n, f }).iter().step_by(7) {
                for perm in permutations(n) {
                    renamed.push((rename_pattern(pattern, &perm), pattern_key(pattern, &perm)));
                }
            }
            renamed.sort();
            for pair in renamed.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                assert_eq!(
                    a.0.cmp(&b.0),
                    a.1.cmp(&b.1),
                    "n={n}: {:?} vs {:?}",
                    a.0,
                    b.0
                );
            }
        }
    }

    #[test]
    fn parallel_orbit_filter_matches_the_sequential_one() {
        // n=4, f=2 has 3,553 naive patterns: below the parallel
        // threshold, so force the worker counts.
        let spec = AgreementSpec { n: 4, f: 2 };
        let filter = |workers| {
            canonical_patterns_with_workers(
                spec.n,
                crash_patterns(spec),
                &Budget::unlimited(),
                workers,
            )
            .unwrap()
        };
        let one = filter(1);
        assert_eq!(one, filter(2));
        assert_eq!(one, canonical_patterns(spec));
        assert_eq!(one.iter().map(|(_, m)| m).sum::<usize>(), 3553);
    }

    #[test]
    fn f1_run_names_are_stable() {
        // The f = 1 enumeration (order and names) is pinned: the E18
        // driver output and the recorded experiments depend on it.
        let system = build_system(SPEC, Reduction::Naive);
        let first: Vec<&str> = system.runs().take(3).map(|(_, r)| r.name()).collect();
        assert_eq!(first, ["v000-clean", "v000-c0r1s", "v000-c0r1s1"]);
    }

    #[test]
    fn crashed_processor_does_not_decide() {
        let system = build_system(SPEC, Reduction::Naive);
        let (_, run) = system
            .runs()
            .find(|(_, r)| r.name().contains("-c0r1s") && !r.name().contains("s12"))
            .unwrap();
        assert!(
            decision_of(run, AgentId::new(0)).is_none(),
            "{}",
            run.name()
        );
        assert!(decision_of(run, AgentId::new(1)).is_some());
    }

    #[test]
    fn decided0_matches_a_scan_of_every_event() {
        let full_scan = |run: Run<'_>, t: u64| {
            run.procs().any(|p| {
                p.events().iter().any(|e| {
                    e.time < t
                        && matches!(
                            e.event,
                            Event::Act { action, data } if action == ACT_DECIDE && data == 0
                        )
                })
            })
        };
        for (n, f, reduction) in [
            (3, 1, Reduction::Naive),
            (3, 2, Reduction::Naive),
            (4, 1, Reduction::Symmetric),
        ] {
            let isys = build_interpreted(AgreementSpec { n, f }, reduction);
            let atom = hm_logic::Frame::atom_set(&isys, "decided0").expect("declared");
            for (rid, run) in isys.system().runs() {
                for t in 0..=run.horizon() {
                    assert_eq!(
                        atom.contains(isys.world(rid, t)),
                        full_scan(run, t),
                        "{}@{t} (n={n}, f={f})",
                        run.name()
                    );
                }
            }
        }
    }

    #[test]
    fn decide_value_is_min_of_seen() {
        assert_eq!(decide_value(0b111, 0b110, 3), 0);
        assert_eq!(decide_value(0b110, 0b110, 3), 1);
        assert_eq!(decide_value(0b001, 0b001, 3), 1);
    }
}
