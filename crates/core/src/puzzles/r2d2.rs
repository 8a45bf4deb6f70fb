//! The R2–D2 ε-ladder (Section 8).
//!
//! R2 sends D2 a message `m` over a channel that takes `0` or `ε` time
//! units. The paper shows that it "costs" ε time units to acquire each
//! level of "R2 knows that D2 knows": `(K_R K_D)^k sent(m)` first holds at
//! `t_S + kε` and `C sent(m)` never holds. Removing the uncertainty —
//! delivery in exactly ε, or a global clock plus a timestamped message —
//! makes `sent(m)` common knowledge at `t_S + ε`.
//!
//! One discretisation constant: in our runs an event enters a history at
//! the tick *after* it occurs (Section 5's "up to but not including `t`"),
//! so every knowledge onset carries a fixed `+1` comprehension offset; the
//! paper's claim is about the *increments*, which are exactly ε.

use hm_kripke::{AgentGroup, AgentId};
use hm_logic::{EvalCache, EvalError, Formula, F};
use hm_netsim::scenarios::{r2d2, R2d2, R2d2Mode};
use hm_runs::{CompleteHistory, Event, InterpretedSystem, InterpretedSystemBuilder, RunId};

/// The R2–D2 system's interpretation builder (`.build()` materialises
/// it) alongside the scenario metadata (focus runs, ε, `t_S`).
///
/// The fact `sent` is "R2 has sent `m`" (stable); `sent_focus` is "R2 has
/// sent `m` at exactly `t_S`" (used in the timestamped variant, where
/// message content distinguishes send times).
pub fn r2d2_parts(
    eps: u64,
    pre: usize,
    post: usize,
    mode: R2d2Mode,
) -> (InterpretedSystemBuilder, R2d2) {
    let meta = r2d2(eps, pre, post, mode);
    let ts = meta.ts;
    let builder = InterpretedSystem::builder(meta.system.clone(), CompleteHistory)
        .fact("sent", |run, t| {
            run.proc(AgentId::new(0))
                .events_before(t + 1)
                .any(|e| matches!(e.event, Event::Send { .. }))
        })
        .fact("sent_focus", move |run, t| {
            run.proc(AgentId::new(0))
                .events_before(t + 1)
                .any(|e| matches!(e.event, Event::Send { .. }) && e.time == ts)
        });
    (builder, meta)
}

/// The alternating ladder `(K_R K_D)^k φ` (`k = 0` is `φ` itself).
pub fn rd_ladder(k: usize, fact: F) -> F {
    let mut f = fact;
    for _ in 0..k {
        f = Formula::knows(AgentId::new(0), Formula::knows(AgentId::new(1), f));
    }
    f
}

/// First time at which `formula` holds in `run`, if any. The formula
/// is compiled and bound through `cache` on first sight, so onset scans
/// that revisit the same ladder levels (different runs, different
/// `k_max`) stop re-walking the tree. The cache must be used with this
/// `isys` only.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn first_time(
    isys: &InterpretedSystem,
    run: RunId,
    formula: &F,
    cache: &mut EvalCache,
) -> Result<Option<u64>, EvalError> {
    let set = cache.eval(isys, formula)?;
    let horizon = isys.system().run(run).horizon();
    Ok((0..=horizon).find(|&t| set.contains(isys.world(run, t))))
}

/// The onset times of the ladder levels `k = 0..=k_max` in the focus slow
/// run: `onsets[k]` is the first time `(K_R K_D)^k sent` holds there.
/// Each ladder level is compiled and bound once per `cache`, however many
/// sweeps share it.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn ladder_onsets(
    isys: &InterpretedSystem,
    meta: &R2d2,
    k_max: usize,
    cache: &mut EvalCache,
) -> Result<Vec<Option<u64>>, EvalError> {
    (0..=k_max)
        .map(|k| {
            first_time(
                isys,
                meta.focus_slow,
                &rd_ladder(k, Formula::atom("sent")),
                cache,
            )
        })
        .collect()
}

/// `C_{R2,D2} sent` as a world set, evaluated through `cache`.
///
/// # Errors
///
/// Propagates [`EvalError`].
pub fn ck_sent(
    isys: &InterpretedSystem,
    cache: &mut EvalCache,
) -> Result<hm_kripke::WorldSet, EvalError> {
    let f = Formula::common(AgentGroup::all(2), Formula::atom("sent"));
    cache.eval(isys, &f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_logic::evaluate;

    #[test]
    #[allow(clippy::needless_range_loop)] // k is the ladder level
    fn each_level_costs_exactly_eps() {
        // Paper: (K_R K_D)^k sent first holds at t_S + kε (modulo the
        // constant +1 comprehension offset of the discrete history
        // convention). The increments must be exactly ε.
        for eps in [2u64, 3] {
            let (builder, meta) = r2d2_parts(eps, 4, 4, R2d2Mode::Uncertain);
            let isys = builder.build();
            let onsets = ladder_onsets(&isys, &meta, 3, &mut EvalCache::new()).unwrap();
            let ts = meta.ts;
            assert_eq!(onsets[0], Some(ts), "level 0 = the fact itself");
            for k in 1..=3usize {
                let t = onsets[k].unwrap_or_else(|| panic!("level {k} never holds"));
                assert_eq!(
                    t,
                    ts + k as u64 * eps + 1,
                    "eps={eps} k={k}: onset at t_S + kε (+1 offset)"
                );
            }
        }
    }

    #[test]
    fn common_knowledge_never_attained_with_uncertainty() {
        let (pre, post, eps) = (3usize, 3usize, 2u64);
        let (builder, meta) = r2d2_parts(eps, pre, post, R2d2Mode::Uncertain);
        let isys = builder.build();
        let ck = ck_sent(&isys, &mut EvalCache::new()).unwrap();
        // The chain r_j ~R2 r'_j ~D2 r_{j+1} … always reaches a run whose
        // send lies in the future, so C sent holds nowhere — as long as
        // such a run exists, i.e. before the finite family's last send
        // time (in the paper's infinite family there is always a later
        // sender; past (pre+post)·ε our truncation makes `sent` valid and
        // hence trivially common knowledge — a documented edge artifact).
        let last_send = (pre + post) as u64 * eps;
        for rid in [meta.focus_slow, meta.focus_fast.unwrap()] {
            for t in 0..last_send {
                assert!(!ck.contains(isys.world(rid, t)), "C sent at ({rid}, {t})");
            }
        }
    }

    #[test]
    fn exact_delay_attains_common_knowledge_at_ts_plus_eps() {
        let (builder, meta) = r2d2_parts(3, 2, 2, R2d2Mode::Exact);
        let isys = builder.build();
        let ck = ck_sent(&isys, &mut EvalCache::new()).unwrap();
        let ts = meta.ts;
        let eps = meta.eps;
        let focus = meta.focus_slow;
        let onset = first_time(
            &isys,
            focus,
            &Formula::common(AgentGroup::all(2), Formula::atom("sent")),
            &mut EvalCache::new(),
        )
        .unwrap();
        // Receipt at t_S + ε enters D2's history one tick later.
        assert_eq!(onset, Some(ts + eps + 1));
        assert!(!ck.contains(isys.world(focus, ts + eps)));
    }

    #[test]
    fn timestamped_message_attains_common_knowledge() {
        let (builder, meta) = r2d2_parts(3, 2, 2, R2d2Mode::Timestamped);
        let isys = builder.build();
        let ts = meta.ts;
        let eps = meta.eps;
        let f = Formula::common(AgentGroup::all(2), Formula::atom("sent_focus"));
        let mut cache = EvalCache::new();
        let onset = first_time(&isys, meta.focus_slow, &f, &mut cache).unwrap();
        assert_eq!(
            onset,
            Some(ts + eps + 1),
            "C sent(m') at t_S + ε (+1 offset) despite delivery uncertainty"
        );
        // The fast focus run attains it at the same wall-clock time (the
        // paper: R2 cannot tell which of r0/r1 occurred, but both have CK
        // by t_S + ε).
        let fast = meta.focus_fast.unwrap();
        let onset_fast = first_time(&isys, fast, &f, &mut cache).unwrap();
        assert_eq!(onset_fast, Some(ts + eps + 1));
    }

    #[test]
    fn without_timestamp_uncertain_mode_has_no_ck_of_focus_either() {
        let (builder, meta) = r2d2_parts(3, 2, 2, R2d2Mode::Uncertain);
        let isys = builder.build();
        let f = Formula::common(AgentGroup::all(2), Formula::atom("sent_focus"));
        let set = evaluate(&isys, &f).unwrap();
        let focus = meta.focus_slow;
        let horizon = isys.system().run(focus).horizon();
        for t in 0..=horizon {
            assert!(!set.contains(isys.world(focus, t)));
        }
    }

    #[test]
    fn ladder_formula_shape() {
        let f = rd_ladder(2, Formula::atom("sent"));
        assert_eq!(f.to_string(), "K0 K1 K0 K1 sent");
    }
}
