//! `build-cold`: the `hm ask` path run in-process — build an engine
//! from a spec, ask one query, drop it — with nothing cached between
//! ops. Four op classes each let one build layer dominate.

use crate::trace::{geomean, median, Rng, Tracer};
use crate::{Metrics, Tally};
use hm_core::agreement::{canonical_patterns, check_safety, ck_onset_in_clean_run, AgreementSpec};
use hm_engine::{Engine, Query, ScenarioFrame, ScenarioParams, ScenarioRegistry, Session};
use hm_kripke::{KripkeModel, WorldSet};
use hm_limits::Budget;
use hm_logic::{compile, evaluate_tree, simplify, Analyzer, Frame};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    F3,
    Naive,
    Minimize,
    Small,
}

impl Class {
    const ALL: [Class; 4] = [Class::F3, Class::Naive, Class::Minimize, Class::Small];

    /// Runs of each op per round: cheaper classes repeat, so every
    /// class gets several samples in a run.
    fn reps(self) -> usize {
        match self {
            Class::F3 => 1,
            Class::Naive | Class::Minimize => 2,
            Class::Small => 4,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Class::F3 => "f3",
            Class::Naive => "naive",
            Class::Minimize => "minimize",
            Class::Small => "small",
        }
    }
}

/// What the paper pins about an op's answer, beyond matching the oracle.
#[derive(Debug, Clone, Copy)]
enum Pin {
    None,
    /// Corollary 6: the query is never true.
    Empty,
    /// The query holds everywhere.
    Valid,
    /// `agreement` with at most `f` crashes: CK of the decision value in
    /// the clean all-zero run starts at time f+2 (once round f+1 is
    /// over), and no run violates agreement or validity.
    Agreement {
        f: u64,
    },
}

/// One op of a round: (class, spec, minimize, query, pin).
const OPS: &[(Class, &str, bool, &str, Pin)] = &[
    (
        Class::F3,
        "agreement:n=4,f=3",
        false,
        "C{0,1,2,3} min0",
        Pin::Agreement { f: 3 },
    ),
    (
        Class::Naive,
        "agreement:n=4,f=2,mode=naive",
        false,
        "C{0,1,2,3} min0",
        Pin::Agreement { f: 2 },
    ),
    (
        Class::Minimize,
        "agreement:n=3,f=2,mode=naive",
        true,
        "C{0,1,2} min0",
        Pin::Agreement { f: 2 },
    ),
    (
        Class::Small,
        "generals:horizon=12",
        false,
        "C{0,1} dispatched",
        Pin::Empty,
    ),
    (
        Class::Small,
        "muddy:n=12",
        false,
        "E{0,1,2,3,4,5,6,7,8,9,10,11} m",
        Pin::None,
    ),
    (
        Class::Small,
        "deadlock:n=4",
        false,
        "K0 deadlock",
        Pin::None,
    ),
    (
        Class::Small,
        "ok:horizon=10",
        false,
        "Ceps[1]{0,1} psi",
        Pin::None,
    ),
    (
        Class::Small,
        "skewed:horizon=16,skew=4",
        false,
        "CT[6]{0,1} sent_v",
        Pin::None,
    ),
    (
        Class::Small,
        "uncertain-start:horizon=10",
        false,
        "!C{0,1} sent",
        Pin::Valid,
    ),
    (
        Class::Small,
        "r2d2:eps=6,pre=8,post=8",
        true,
        "K0 K1 sent",
        Pin::None,
    ),
    (
        Class::Small,
        "agreement:n=4,f=1,mode=naive",
        true,
        "C{0,1,2,3} min0",
        Pin::Agreement { f: 1 },
    ),
];

/// Oracle verdicts, computed off the clock on the first op of each spec
/// and shared by every later op (and by the traced pass).
#[derive(Default)]
pub struct References {
    verdicts: BTreeMap<usize, WorldSet>,
}

/// Samples of one op kind (one row of [`OPS`]).
#[derive(Default)]
struct Samples {
    op_s: Vec<f64>,
    /// Per-layer replica times (µs), traced pass only.
    layers: BTreeMap<&'static str, Vec<f64>>,
    /// Sizes, traced pass only (identical on every op).
    counts: BTreeMap<&'static str, f64>,
}

/// Samples of every op, accumulated over every round of a run.
pub struct Run {
    samples: BTreeMap<usize, Samples>,
    tracer: Option<Tracer>,
    ops: u64,
}

impl Run {
    pub fn new(tracer: Option<Tracer>) -> Run {
        Run {
            samples: BTreeMap::new(),
            tracer,
            ops: 0,
        }
    }
}

/// One round's op order: every op [`Class::reps`] times, shuffled by
/// `rng`.
pub fn round_order(rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..OPS.len())
        .flat_map(|i| std::iter::repeat_n(i, OPS[i].0.reps()))
        .collect();
    rng.shuffle(&mut order);
    order
}

/// Runs op `i` of [`OPS`].
pub fn op(i: usize, refs: &mut References, run: &mut Run, tally: &mut Tally) {
    run.ops += 1;
    tally.attempted += 1;
    if let Err(e) = one_op(i, run.ops, refs, run) {
        tally.fail(e);
    }
}

/// One timed op, its verdict check, and — when tracing — the replay of
/// its layers.
fn one_op(i: usize, op: u64, refs: &mut References, out: &mut Run) -> Result<(), String> {
    let (_, spec, minimize, formula, pin) = OPS[i];
    let query = Query::parse(formula).map_err(|e| e.to_string())?;
    let root = out.tracer.as_mut().map(|t| t.open(op, None, "build.op"));
    let t0 = Instant::now();
    let built = match out.tracer.as_mut() {
        Some(t) => t.span(op, root, "engine.build", || {
            Engine::for_scenario(spec).minimize(minimize).build()
        }),
        None => Engine::for_scenario(spec).minimize(minimize).build(),
    };
    let session = built.map_err(|e| format!("{spec}: {e}"))?;
    let verdict = match out.tracer.as_mut() {
        Some(t) => t.span(op, root, "session.ask", || session.ask(&query)),
        None => session.ask(&query),
    };
    let elapsed = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(r)) = (out.tracer.as_mut(), root) {
        t.close(r);
    }
    let verdict = verdict.map_err(|e| format!("{spec} `{formula}`: {e}"))?;
    check(i, &session, &query, verdict.satisfying(), pin, refs)?;
    drop(session);
    let samples = out.samples.entry(i).or_default();
    samples.op_s.push(elapsed);
    if let Some(t) = out.tracer.as_mut() {
        replay(t, op, spec, minimize, &query, samples)?;
    }
    Ok(())
}

/// Checks a verdict against the tree-walking oracle and the paper's pins
/// (computed on the first op of each spec).
fn check(
    i: usize,
    session: &Session,
    query: &Query,
    got: &WorldSet,
    pin: Pin,
    refs: &mut References,
) -> Result<(), String> {
    let (_, spec, _, formula, _) = OPS[i];
    if let Entry::Vacant(slot) = refs.verdicts.entry(i) {
        let oracle = evaluate_tree(session.frame(), query.formula())
            .map_err(|e| format!("{spec} `{formula}` oracle: {e}"))?;
        match pin {
            Pin::None => {}
            Pin::Empty if oracle.is_empty() => {}
            Pin::Valid if oracle.is_full() => {}
            Pin::Agreement { f } => {
                let isys = session.interpreted().ok_or("agreement has runs")?;
                let onset = ck_onset_in_clean_run(isys, 0).map_err(|e| e.to_string())?;
                if onset != Some(f + 2) {
                    return Err(format!("{spec}: CK onset {onset:?}, want Some({})", f + 2));
                }
                let safety = check_safety(isys.system());
                if safety.agreement_violations + safety.validity_violations > 0 {
                    return Err(format!("{spec}: safety violated: {safety:?}"));
                }
            }
            _ => return Err(format!("{spec} `{formula}`: oracle contradicts {pin:?}")),
        }
        slot.insert(oracle);
    }
    if refs.verdicts[&i] != *got {
        return Err(format!(
            "{spec} `{formula}`: verdict holds at {} worlds, oracle at {}",
            got.count(),
            refs.verdicts[&i].count()
        ));
    }
    Ok(())
}

/// Layer times (µs) and sizes gathered by one replay.
#[derive(Default)]
struct Rec {
    layers: Vec<(&'static str, f64)>,
    counts: Vec<(&'static str, f64)>,
}

/// Replays one op layer by layer through the public API, each layer in
/// its own span under a `build.replica` root: resolve → enumerate
/// (`Scenario::build`) → interpret (raw `try_build`) → refine (minimised
/// minus raw `try_build`) → analyze → compile → bind → eval.
fn replay(
    t: &mut Tracer,
    op: u64,
    spec: &str,
    minimize: bool,
    query: &Query,
    samples: &mut Samples,
) -> Result<(), String> {
    let mut rec = Rec::default();
    let replica = t.open(op, None, "build.replica");
    let root = Some(replica);
    let registry = ScenarioRegistry::builtin();
    let (resolved, us) = t.span_us(op, root, "build.resolve", || registry.resolve(spec));
    rec.layers.push(("resolve", us));
    let (scenario, values) = resolved.map_err(|e| e.to_string())?;
    let params = ScenarioParams {
        values,
        ..ScenarioParams::default()
    };
    if scenario.name() == "agreement" && params.values.choice("mode") != "naive" {
        // Canonicalisation runs inside `Scenario::build`; time the same
        // call on its own to size it.
        let agreement = AgreementSpec {
            n: params.values.size("n"),
            f: params.values.size("f"),
        };
        let (reps, us) = t.span_us(op, root, "build.canonicalise", || {
            canonical_patterns(agreement)
        });
        rec.layers.push(("canonicalise", us));
        rec.counts.push(("orbits", reps.len() as f64));
        rec.counts.push((
            "patterns",
            reps.iter().map(|(_, m)| *m).sum::<usize>() as f64,
        ));
    }
    let (frame, us) = t.span_us(op, root, "build.enumerate", || scenario.build(&params));
    rec.layers.push(("enumerate", us));
    match frame.map_err(|e| e.to_string())? {
        ScenarioFrame::Model(model) => {
            rec.counts.push(("worlds", model.num_worlds() as f64));
            query_layers(t, op, root, &model, None, minimize, query, &mut rec)?;
        }
        ScenarioFrame::Interpreted(builder) => {
            let (raw, raw_us) = t.span_us(op, root, "build.interpret", || {
                builder.minimized(false).try_build()
            });
            rec.layers.push(("interpret", raw_us));
            let raw = raw.map_err(|e| e.to_string())?;
            rec.counts.push(("runs", raw.system().num_runs() as f64));
            rec.counts.push(("worlds", raw.num_worlds() as f64));
            let isys = if minimize {
                drop(raw);
                let ScenarioFrame::Interpreted(builder) =
                    scenario.build(&params).map_err(|e| e.to_string())?
                else {
                    return Err(format!("{spec}: frame kind changed between builds"));
                };
                let (min, min_us) = t.span_us(op, root, "build.interpret_min", || {
                    builder.minimized(true).try_build()
                });
                rec.layers.push(("refine", min_us - raw_us));
                min.map_err(|e| e.to_string())?
            } else {
                raw
            };
            let quotient = isys.quotient().map(|q| &q.model);
            rec.counts.push((
                "quotient_worlds",
                quotient.map_or(0.0, |q| q.num_worlds() as f64),
            ));
            query_layers(t, op, root, &isys, quotient, minimize, query, &mut rec)?;
        }
    }
    t.close(replica);
    for (layer, us) in rec.layers {
        samples.layers.entry(layer).or_default().push(us);
    }
    samples.counts.extend(rec.counts);
    Ok(())
}

/// The query half of an op, as `Session` runs it on a first ask:
/// analyze the original formula against the full frame, compile the
/// simplified one, then bind and evaluate — on the quotient when the
/// program is quotient-safe and minimisation is on.
#[allow(clippy::too_many_arguments)]
fn query_layers(
    t: &mut Tracer,
    op: u64,
    root: Option<usize>,
    full: &dyn Frame,
    quotient: Option<&KripkeModel>,
    minimize: bool,
    query: &Query,
    rec: &mut Rec,
) -> Result<(), String> {
    let formula = query.formula();
    let (report, us) = t.span_us(op, root, "build.analyze", || {
        Analyzer::new()
            .frame(full)
            .minimize(minimize)
            .analyze(formula)
    });
    rec.layers.push(("analyze", us));
    std::hint::black_box(report);
    let (compiled, us) = t.span_us(op, root, "build.compile", || compile(&simplify(formula)));
    rec.layers.push(("compile", us));
    let compiled = compiled.map_err(|e| e.to_string())?;
    let frame: &dyn Frame = match quotient {
        Some(q) if minimize && compiled.quotient_safe() => q,
        _ => full,
    };
    let (bound, us) = t.span_us(op, root, "build.bind", || compiled.bind(frame));
    rec.layers.push(("bind", us));
    let bound = bound.map_err(|e| e.to_string())?;
    let (set, us) = t.span_us(op, root, "build.eval", || {
        compiled.eval_bound_budgeted(frame, &bound, &Budget::unlimited())
    });
    rec.layers.push(("eval", us));
    std::hint::black_box(set.map_err(|e| e.to_string())?.count());
    Ok(())
}

impl Run {
    /// Median seconds per op of each row of [`OPS`] in `class`.
    fn spec_medians(&self, class: Class, f: impl Fn(&Samples) -> f64) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(i, _)| OPS[**i].0 == class)
            .map(|(_, s)| f(s))
            .collect()
    }

    /// The figures (s) of `class`, one per run of its ops: the op's
    /// time, or for `small` the geometric mean over its specs of their
    /// k-th runs.
    fn per_round(&self, class: Class) -> Vec<f64> {
        let rows: Vec<&[f64]> = self
            .samples
            .iter()
            .filter(|(i, _)| OPS[**i].0 == class)
            .map(|(_, s)| s.op_s.as_slice())
            .collect();
        let rounds = rows.iter().map(|r| r.len()).min().unwrap_or(0);
        (0..rounds)
            .map(|r| geomean(&rows.iter().map(|row| row[r]).collect::<Vec<_>>()))
            .collect()
    }

    /// A class's figure for the run: the median of [`per_round`](Self::per_round).
    fn figure(&self, class: Class) -> f64 {
        median(&self.per_round(class))
    }

    /// Geometric mean of the four class figures: the trace-overhead
    /// reference.
    pub fn headline(&self) -> f64 {
        geomean(&Class::ALL.map(|c| self.figure(c)))
    }

    pub fn end_to_end(&self, m: &mut Metrics) {
        m.push("f3_verdict_s", self.figure(Class::F3), "s");
        m.push("naive_verdict_ms", self.figure(Class::Naive) * 1e3, "ms");
        m.push(
            "minimize_verdict_ms",
            self.figure(Class::Minimize) * 1e3,
            "ms",
        );
        m.push("small_verdict_ms", self.figure(Class::Small) * 1e3, "ms");
    }

    /// Per class: each layer's median, summed over the class's specs
    /// (one spec except `small`), and the share of the op no layer
    /// accounts for.
    pub fn per_layer(&self, m: &mut Metrics) {
        const TIMES: [(&str, &str, f64); 8] = [
            ("resolve", "resolve_us", 1.0),
            ("enumerate", "enumerate_ms", 1e-3),
            ("interpret", "interpret_ms", 1e-3),
            ("refine", "refine_ms", 1e-3),
            ("analyze", "analyze_us", 1.0),
            ("compile", "compile_us", 1.0),
            ("bind", "bind_us", 1.0),
            ("eval", "eval_us", 1.0),
        ];
        for c in Class::ALL {
            let layer_us = |layer: &str| -> f64 {
                self.spec_medians(c, |s| s.layers.get(layer).map_or(0.0, |v| median(v)))
                    .iter()
                    .sum()
            };
            let count = |key: &str| -> f64 {
                self.spec_medians(c, |s| s.counts.get(key).copied().unwrap_or(0.0))
                    .iter()
                    .sum()
            };
            let mut attributed = 0.0;
            for (layer, suffix, scale) in TIMES {
                let us = layer_us(layer);
                attributed += us;
                let unit = if scale == 1.0 { "us" } else { "ms" };
                m.push(&format!("build.{}.{suffix}", c.name()), us * scale, unit);
            }
            for key in ["runs", "worlds", "quotient_worlds"] {
                m.push(&format!("build.{}.{key}", c.name()), count(key), "count");
            }
            let op_us: f64 = self
                .spec_medians(c, |s| median(&s.op_s))
                .iter()
                .sum::<f64>()
                * 1e6;
            m.push(
                &format!("build.{}.unattributed_pct", c.name()),
                100.0 * (op_us - attributed) / op_us.max(1e-9),
                "%",
            );
            if c == Class::F3 {
                m.push(
                    "build.f3.canonicalise_ms",
                    layer_us("canonicalise") / 1e3,
                    "ms",
                );
                m.push("build.f3.orbits", count("orbits"), "count");
                m.push("build.f3.patterns", count("patterns"), "count");
            }
        }
    }

    pub fn into_tracer(self) -> Option<Tracer> {
        self.tracer
    }
}
