//! Set-valued temporal operators over a [`TemporalStructure`].
//!
//! These are the clauses (h)/(i) of Appendix A and the timestamped
//! operators of Section 12, computed per run. All functions take the
//! already-computed per-agent knowledge sets as input, so the evaluator
//! controls how `K_i` itself is interpreted.

use crate::frame::TemporalStructure;
use hm_kripke::{AgentGroup, AgentId, KripkeModel, WorldSet};

/// `○(A)`: worlds whose successor point (same run, next time) is in `A`.
/// The last point of a (truncated) run has no successor and never
/// satisfies `○`.
pub fn next_set(ts: &dyn TemporalStructure, a: &WorldSet) -> WorldSet {
    let mut out = WorldSet::empty(a.universe_len());
    for run in 0..ts.num_runs() {
        let len = ts.run_len(run);
        for t in 0..len.saturating_sub(1) {
            let here = ts.point(run, t).expect("t < len");
            let next = ts.point(run, t + 1).expect("t+1 < len");
            if a.contains(next) {
                out.insert(here);
            }
        }
    }
    out
}

/// `◇(A)`: worlds `(r,t)` such that `A` holds at some `(r,t')` with
/// `t' ≥ t` (footnote 7 of the paper).
pub fn eventually_set(ts: &dyn TemporalStructure, a: &WorldSet) -> WorldSet {
    let mut out = WorldSet::empty(a.universe_len());
    for run in 0..ts.num_runs() {
        let len = ts.run_len(run);
        let mut seen = false;
        for t in (0..len).rev() {
            let w = ts.point(run, t).expect("t < len");
            seen |= a.contains(w);
            if seen {
                out.insert(w);
            }
        }
    }
    out
}

/// `□(A)`: worlds `(r,t)` such that `A` holds at every `(r,t')` with
/// `t' ≥ t`. Dual of [`eventually_set`].
pub fn always_set(ts: &dyn TemporalStructure, a: &WorldSet) -> WorldSet {
    eventually_set(ts, &a.complement()).complement()
}

/// Past operator: worlds `(r,t)` such that `A` holds at some `(r,t')` with
/// `t' ≤ t`. `once(A)` is the canonical *stable* strengthening of `A`
/// ("φ held at some point in the past", Section 11).
pub fn once_set(ts: &dyn TemporalStructure, a: &WorldSet) -> WorldSet {
    let mut out = WorldSet::empty(a.universe_len());
    for run in 0..ts.num_runs() {
        let len = ts.run_len(run);
        let mut seen = false;
        for t in 0..len {
            let w = ts.point(run, t).expect("t < len");
            seen |= a.contains(w);
            if seen {
                out.insert(w);
            }
        }
    }
    out
}

/// `E^ε_G`: worlds `(r,t)` such that there is an interval
/// `I = [t₀, t₀+ε]` with `t ∈ I` and, for every `i ∈ G`, some `tᵢ ∈ I`
/// with `(r,tᵢ) ∈ K_i` (Section 11; `k_sets[j]` is `K_i(φ)` for the `j`-th
/// member of `G`).
///
/// Interval endpoints are clamped to the run: witnesses must be actual
/// points, so size horizons generously (see DESIGN.md).
pub fn everyone_eps_set(
    ts: &dyn TemporalStructure,
    g: &AgentGroup,
    eps: u64,
    k_sets: &[WorldSet],
) -> WorldSet {
    assert_eq!(g.len(), k_sets.len(), "one knowledge set per group member");
    let n = k_sets.first().map(|s| s.universe_len()).unwrap_or_default();
    let mut out = WorldSet::empty(n);
    for run in 0..ts.num_runs() {
        let len = ts.run_len(run);
        // ok[t0] = every member has a witness in [t0, min(t0+eps, len-1)].
        let mut ok = vec![true; len as usize];
        for ks in k_sets {
            // next_wit[t] = earliest t' >= t with K_i at (run, t'), or len.
            let mut next_wit = len;
            let mut wit_at = vec![len; len as usize];
            for t in (0..len).rev() {
                let w = ts.point(run, t).expect("t < len");
                if ks.contains(w) {
                    next_wit = t;
                }
                wit_at[t as usize] = next_wit;
            }
            for t0 in 0..len {
                let hi = (t0 + eps).min(len - 1);
                if wit_at[t0 as usize] > hi {
                    ok[t0 as usize] = false;
                }
            }
        }
        // (r,t) qualifies iff some interval start t0 ∈ [t-eps, t] is ok.
        for t in 0..len {
            let lo = t.saturating_sub(eps);
            let mut hit = false;
            for t0 in lo..=t {
                if ok[t0 as usize] {
                    hit = true;
                    break;
                }
            }
            if hit {
                out.insert(ts.point(run, t).expect("t < len"));
            }
        }
    }
    out
}

/// `E^◇_G`: worlds `(r,t)` such that every member of `G` knows at *some*
/// time of run `r` (the witness time ranges over the whole run, so
/// membership depends only on `r`, not on `t` — Section 11).
pub fn everyone_ev_set(
    ts: &dyn TemporalStructure,
    g: &AgentGroup,
    k_sets: &[WorldSet],
) -> WorldSet {
    assert_eq!(g.len(), k_sets.len(), "one knowledge set per group member");
    let n = k_sets.first().map(|s| s.universe_len()).unwrap_or_default();
    let mut out = WorldSet::empty(n);
    for run in 0..ts.num_runs() {
        let len = ts.run_len(run);
        let all_have_witness = k_sets
            .iter()
            .all(|ks| (0..len).any(|t| ks.contains(ts.point(run, t).expect("t < len"))));
        if all_have_witness {
            for t in 0..len {
                out.insert(ts.point(run, t).expect("t < len"));
            }
        }
    }
    out
}

/// `K_i^T`: worlds `(r,t)` such that at every point of run `r` where `i`'s
/// clock reads `T`, agent `i` knows (Section 12). Like `E^◇`, membership
/// depends only on the run. *Vacuously true* in runs where the clock never
/// reads `T` (the paper's Theorem 12(c) hypothesis rules this out).
pub fn knows_at_set(
    ts: &dyn TemporalStructure,
    i: AgentId,
    stamp: u64,
    k_set: &WorldSet,
) -> WorldSet {
    let n = k_set.universe_len();
    let mut out = WorldSet::empty(n);
    for run in 0..ts.num_runs() {
        let len = ts.run_len(run);
        let mut ok = true;
        for t in 0..len {
            let w = ts.point(run, t).expect("t < len");
            if ts.clock(i, run, t) == Some(stamp) && !k_set.contains(w) {
                ok = false;
                break;
            }
        }
        if ok {
            for t in 0..len {
                out.insert(ts.point(run, t).expect("t < len"));
            }
        }
    }
    out
}

/// `E^T_G = ⋂_{i∈G} K_i^T` (Section 12).
pub fn everyone_ts_set(
    ts: &dyn TemporalStructure,
    g: &AgentGroup,
    stamp: u64,
    k_sets: &[WorldSet],
) -> WorldSet {
    assert_eq!(g.len(), k_sets.len(), "one knowledge set per group member");
    let n = k_sets.first().map(|s| s.universe_len()).unwrap_or_default();
    let mut out = WorldSet::full(n);
    for (j, i) in g.iter().enumerate() {
        out.intersect_with(&knows_at_set(ts, i, stamp, &k_sets[j]));
    }
    out
}

/// The attainable variants of `E_G` (Sections 11–12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attain {
    /// `E^ε_G`: everyone knows within `ε` time units.
    Eps,
    /// `E^◇_G`: everyone eventually knows.
    Ev,
    /// `E^T_G`: everyone knows at local timestamp `T`.
    Ts,
}

/// `E^ε_G(A)`, `E^◇_G(A)` or `E^T_G(A)` on a frame with model `model`
/// and run structure `ts`; `arg` is `ε` or `T` (unused for `◇`). The
/// members' `K_i(A)` come from the model. The compiled machine and the
/// axiom checker both evaluate the attainable operators through this
/// function.
pub(crate) fn everyone_attain(
    model: &KripkeModel,
    ts: &dyn TemporalStructure,
    var: Attain,
    arg: u64,
    g: &AgentGroup,
    a: &WorldSet,
) -> WorldSet {
    let k_sets: Vec<WorldSet> = g.iter().map(|i| model.knowledge(i, a)).collect();
    match var {
        Attain::Eps => everyone_eps_set(ts, g, arg, &k_sets),
        Attain::Ev => everyone_ev_set(ts, g, &k_sets),
        Attain::Ts => everyone_ts_set(ts, g, arg, &k_sets),
    }
}

/// The set of all points of `run`.
#[cfg(test)]
fn run_points(ts: &dyn TemporalStructure, run: usize, universe: usize) -> WorldSet {
    let mut out = WorldSet::empty(universe);
    for t in 0..ts.run_len(run) {
        out.insert(ts.point(run, t).expect("t < len"));
    }
    out
}

/// Collects the `WorldId`s of a run in time order.
#[cfg(test)]
fn run_timeline(ts: &dyn TemporalStructure, run: usize) -> Vec<hm_kripke::WorldId> {
    (0..ts.run_len(run))
        .map(|t| ts.point(run, t).expect("t < len"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hm_kripke::WorldId;

    /// A bare grid: `num_runs` runs of equal `len`; world id = run*len + t.
    /// Clock of agent i at (r,t) = t + skew*i (for clock tests).
    pub(crate) struct Grid {
        pub runs: usize,
        pub len: u64,
        pub skew: u64,
    }

    impl TemporalStructure for Grid {
        fn num_runs(&self) -> usize {
            self.runs
        }
        fn run_of(&self, w: WorldId) -> usize {
            w.index() / self.len as usize
        }
        fn time_of(&self, w: WorldId) -> u64 {
            (w.index() % self.len as usize) as u64
        }
        fn point(&self, run: usize, t: u64) -> Option<WorldId> {
            (run < self.runs && t < self.len)
                .then(|| WorldId::new(run * self.len as usize + t as usize))
        }
        fn run_len(&self, _run: usize) -> u64 {
            self.len
        }
        fn clock(&self, i: AgentId, _run: usize, t: u64) -> Option<u64> {
            Some(t + self.skew * i.index() as u64)
        }
    }

    fn ws(n: usize, ids: &[usize]) -> WorldSet {
        WorldSet::from_iter_len(n, ids.iter().map(|&i| WorldId::new(i)))
    }

    #[test]
    fn next_eventually_always_once() {
        // One run of length 4; A = {t=2}.
        let g = Grid {
            runs: 1,
            len: 4,
            skew: 0,
        };
        let a = ws(4, &[2]);
        assert_eq!(next_set(&g, &a), ws(4, &[1]));
        assert_eq!(eventually_set(&g, &a), ws(4, &[0, 1, 2]));
        assert_eq!(once_set(&g, &a), ws(4, &[2, 3]));
        // □A only where A holds through the suffix: nowhere except... A
        // fails at 3, so □A is empty.
        assert!(always_set(&g, &a).is_empty());
        let tail = ws(4, &[2, 3]);
        assert_eq!(always_set(&g, &tail), tail);
    }

    #[test]
    fn next_is_per_run() {
        // Two runs of length 2: A = {(r1, t0)}; ○A must not leak into r0.
        let g = Grid {
            runs: 2,
            len: 2,
            skew: 0,
        };
        let a = ws(4, &[3]); // (r1, t1)
        assert_eq!(next_set(&g, &a), ws(4, &[2]));
    }

    #[test]
    fn everyone_ev_is_run_constant() {
        let g = Grid {
            runs: 2,
            len: 3,
            skew: 0,
        };
        let grp = AgentGroup::all(2);
        // Agent 0 knows at (r0,t2); agent 1 knows at (r0,t0). Run 1: only
        // agent 0 has a witness.
        let k0 = ws(6, &[2, 3]);
        let k1 = ws(6, &[0]);
        let out = everyone_ev_set(&g, &grp, &[k0, k1]);
        assert_eq!(out, ws(6, &[0, 1, 2]), "whole run 0, nothing of run 1");
    }

    #[test]
    fn everyone_eps_interval_semantics() {
        // One run, len 10, ε = 2. Agent 0 knows at t=4, agent 1 at t=6.
        // Interval [4,6] contains both witnesses, so every t ∈ [4,6] is in
        // E^ε; t=3 also qualifies via interval [3,5]? No: agent 1's witness
        // is 6 ∉ [3,5]. But interval [4,6] ∋ t=4..6 only. What about t=7?
        // intervals [5,7],[6,8],[7,9] lack agent 0's witness 4. So {4,5,6}.
        let g = Grid {
            runs: 1,
            len: 10,
            skew: 0,
        };
        let grp = AgentGroup::all(2);
        let k0 = ws(10, &[4]);
        let k1 = ws(10, &[6]);
        let out = everyone_eps_set(&g, &grp, 2, &[k0, k1]);
        assert_eq!(out, ws(10, &[4, 5, 6]));
    }

    #[test]
    fn everyone_eps_zero_is_simultaneous() {
        let g = Grid {
            runs: 1,
            len: 5,
            skew: 0,
        };
        let grp = AgentGroup::all(2);
        let k0 = ws(5, &[1, 2]);
        let k1 = ws(5, &[2, 3]);
        let out = everyone_eps_set(&g, &grp, 0, &[k0.clone(), k1.clone()]);
        assert_eq!(out, k0.intersection(&k1), "ε=0 degenerates to E_G");
    }

    #[test]
    fn everyone_eps_clamps_at_run_end() {
        // Witnesses at the very last point still count for intervals
        // reaching past the horizon.
        let g = Grid {
            runs: 1,
            len: 3,
            skew: 0,
        };
        let grp = AgentGroup::all(1);
        let k0 = ws(3, &[2]);
        let out = everyone_eps_set(&g, &grp, 5, &[k0]);
        assert!(
            out.is_full(),
            "single agent, witness in every wide interval"
        );
    }

    #[test]
    fn knows_at_and_vacuity() {
        // Two runs, len 3, skew 0 (clock == time). Stamp 1.
        let g = Grid {
            runs: 2,
            len: 3,
            skew: 0,
        };
        // Agent 0 knows at (r0, t1) but not (r1, t1).
        let k = ws(6, &[1]);
        let out = knows_at_set(&g, AgentId::new(0), 1, &k);
        assert_eq!(out, ws(6, &[0, 1, 2]));
        // Vacuity: stamp 99 is never read, so every run qualifies.
        let out = knows_at_set(&g, AgentId::new(0), 99, &k);
        assert!(out.is_full());
    }

    #[test]
    fn everyone_ts_uses_each_agents_clock() {
        // skew 1: agent 1's clock = t+1. Stamp 2 — agent 0 reads 2 at t=2,
        // agent 1 reads 2 at t=1.
        let g = Grid {
            runs: 1,
            len: 3,
            skew: 1,
        };
        let grp = AgentGroup::all(2);
        let k0 = ws(3, &[2]);
        let k1 = ws(3, &[1]);
        let out = everyone_ts_set(&g, &grp, 2, &[k0.clone(), k1]);
        assert!(out.is_full());
        // Move agent 1's knowledge off its stamp-2 point: fails.
        let out = everyone_ts_set(&g, &grp, 2, &[k0, ws(3, &[2])]);
        assert!(out.is_empty());
    }

    #[test]
    fn run_points_and_timeline() {
        let g = Grid {
            runs: 2,
            len: 3,
            skew: 0,
        };
        assert_eq!(run_points(&g, 1, 6), ws(6, &[3, 4, 5]));
        assert_eq!(
            run_timeline(&g, 1),
            vec![WorldId::new(3), WorldId::new(4), WorldId::new(5)]
        );
    }
}
