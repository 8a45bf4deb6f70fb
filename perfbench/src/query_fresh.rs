//! `query-fresh`: never-before-seen random formulas asked of frames
//! built during set-up — each op a first ask (analyze → simplify →
//! compile → bind → eval) followed by a repeat ask (the cache-hit read
//! path).

use crate::trace::{mean, median, quantile, Rng, Tracer};
use crate::{Metrics, Tally};
use hm_engine::{Engine, Query, ScenarioParams, ScenarioRegistry, Session};
use hm_limits::Budget;
use hm_logic::{compile, evaluate_tree, parse, simplify, Analyzer, Frame};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The frames queried: (spec, minimize).
const FRAMES: &[(&str, bool)] = &[
    ("generals:horizon=10", false),
    ("agreement:n=4,f=1", false),
    ("muddy:n=10", false),
    ("r2d2:eps=3", false),
    ("r2d2:eps=3", true),
];

/// Ops at the start of each slice left out of the samples.
const WARMUP_OPS: usize = 20;

/// Maximum nesting depth of a generated formula.
const MAX_DEPTH: u32 = 5;

/// A built frame and the vocabulary its scenario declares.
pub struct Target {
    spec: &'static str,
    minimize: bool,
    session: Session,
    atoms: Vec<String>,
    agents: usize,
    temporal: bool,
    /// Formulas already asked of this session (printed form).
    seen: HashSet<String>,
}

/// Builds every frame of the workload (the timed part of set-up).
pub fn setup() -> Result<Vec<Target>, String> {
    let registry = ScenarioRegistry::builtin();
    FRAMES
        .iter()
        .map(|&(spec, minimize)| {
            let (scenario, values) = registry.resolve(spec).map_err(|e| e.to_string())?;
            let surface = scenario.surface(&ScenarioParams {
                values,
                ..ScenarioParams::default()
            });
            let session = Engine::for_scenario(spec)
                .minimize(minimize)
                .build()
                .map_err(|e| format!("{spec}: {e}"))?;
            Ok(Target {
                spec,
                minimize,
                atoms: surface.atoms.ok_or("surface declares atoms")?,
                agents: surface.num_agents.ok_or("surface declares agents")?,
                temporal: surface.temporal.ok_or("surface declares time")?,
                session,
                seen: HashSet::new(),
            })
        })
        .collect()
}

/// A random formula of nesting depth at most [`MAX_DEPTH`] over the
/// target's surface: atoms, Boolean connectives, `K`, `E`, `S`, `D`,
/// `C`, and — on run frames — the ε/◇/timestamped variants and the
/// temporal operators.
fn formula(rng: &mut Rng, t: &Target, depth: u32) -> String {
    if depth >= MAX_DEPTH || rng.chance(0.1 + 0.12 * f64::from(depth)) {
        let atom = &t.atoms[rng.below(t.atoms.len())];
        return if rng.chance(0.2) {
            format!("!{atom}")
        } else {
            atom.clone()
        };
    }
    let sub = |rng: &mut Rng| formula(rng, t, depth + 1);
    let group = |rng: &mut Rng| {
        let mut members: Vec<String> = (0..t.agents)
            .filter(|_| rng.chance(0.5))
            .map(|i| i.to_string())
            .collect();
        if members.is_empty() {
            members.push(rng.below(t.agents).to_string());
        }
        format!("{{{}}}", members.join(","))
    };
    let kinds = if t.temporal { 20 } else { 10 };
    match rng.below(kinds) {
        0 | 1 => format!("K{} {}", rng.below(t.agents), sub(rng)),
        2 => format!("E{} {}", group(rng), sub(rng)),
        3 => format!("S{} {}", group(rng), sub(rng)),
        4 => format!("D{} {}", group(rng), sub(rng)),
        5 => format!("C{} {}", group(rng), sub(rng)),
        6 => format!("!{}", sub(rng)),
        7 => format!("({} & {})", sub(rng), sub(rng)),
        8 => format!("({} | {})", sub(rng), sub(rng)),
        9 => format!("({} -> {})", sub(rng), sub(rng)),
        10 => format!("Eeps[{}]{} {}", 1 + rng.below(3), group(rng), sub(rng)),
        11 => format!("Ceps[{}]{} {}", 1 + rng.below(3), group(rng), sub(rng)),
        12 => format!("Eev{} {}", group(rng), sub(rng)),
        13 => format!("Cev{} {}", group(rng), sub(rng)),
        14 => format!("ET[{}]{} {}", 1 + rng.below(6), group(rng), sub(rng)),
        15 => format!("CT[{}]{} {}", 1 + rng.below(6), group(rng), sub(rng)),
        16 => format!("next {}", sub(rng)),
        17 => format!("even {}", sub(rng)),
        18 => format!("alw {}", sub(rng)),
        _ => format!("once {}", sub(rng)),
    }
}

/// Samples accumulated over every slice of a run.
pub struct Run {
    /// First- and repeat-ask times (µs), one vector per slice.
    miss_us: Vec<Vec<f64>>,
    hit_us: Vec<Vec<f64>>,
    /// Traced runs only: per-op layer replays.
    layers: Vec<Layers>,
    tracer: Option<Tracer>,
    ops: u64,
}

impl Run {
    pub fn new(tracer: Option<Tracer>) -> Run {
        Run {
            miss_us: Vec::new(),
            hit_us: Vec::new(),
            layers: Vec::new(),
            tracer,
            ops: 0,
        }
    }
}

/// One miss op replayed layer by layer (µs), with the analyzer's facts.
struct Layers {
    miss_us: f64,
    parse: f64,
    analyze: f64,
    simplify: f64,
    compile: f64,
    bind: f64,
    eval: f64,
    nodes: f64,
    instructions: f64,
    instructions_simplified: f64,
}

/// One slice: asks fresh formulas, one thread, for `budget`.
pub fn slice(
    targets: &mut [Target],
    budget: Duration,
    rng: &mut Rng,
    run: &mut Run,
    tally: &mut Tally,
) {
    run.miss_us.push(Vec::new());
    run.hit_us.push(Vec::new());
    let started = Instant::now();
    while started.elapsed() < budget {
        run.ops += 1;
        tally.attempted += 1;
        let target = rng.below(targets.len());
        if let Err(e) = one_op(&mut targets[target], rng, run.ops, run) {
            tally.fail(e);
        }
    }
    // The first ops of a slice follow the idle gap the interleaving
    // creates: untimed warm-up (they are still asked and checked).
    for v in [&mut run.miss_us, &mut run.hit_us] {
        let slice = v.last_mut().expect("slice opened above");
        slice.drain(..WARMUP_OPS.min(slice.len()));
    }
}

fn one_op(t: &mut Target, rng: &mut Rng, op: u64, out: &mut Run) -> Result<(), String> {
    // A formula this session has never seen (printed form is canonical:
    // `Display` round-trips through the parser).
    let (text, f) = loop {
        let text = formula(rng, t, 0);
        let f = parse(&text).map_err(|e| format!("generated `{text}`: {e}"))?;
        if t.seen.insert(f.to_string()) {
            break (text, f);
        }
    };
    let query = Query::new(f.clone());
    let before = t.session.compiled_queries();
    let (miss, miss_us) = timed(&mut out.tracer, op, "engine.ask_miss", || {
        t.session.ask(&query)
    });
    let (hit, hit_us) = timed(&mut out.tracer, op, "engine.ask_hit", || {
        t.session.ask(&query)
    });
    let miss = miss.map_err(|e| format!("{} `{text}`: {e}", t.spec))?;
    let hit = hit.map_err(|e| format!("{} `{text}`: {e}", t.spec))?;
    // Cache-regime guard: the first ask compiled exactly one new entry.
    let after = t.session.compiled_queries();
    if after != before + 1 {
        return Err(format!(
            "{} `{text}`: compiled cache grew by {} on a first ask",
            t.spec,
            after as i64 - before as i64
        ));
    }
    let oracle = evaluate_tree(t.session.frame(), &f)
        .map_err(|e| format!("{} `{text}` oracle: {e}", t.spec))?;
    if *miss.satisfying() != oracle || *hit.satisfying() != oracle {
        return Err(format!(
            "{} `{text}`: verdicts hold at {}/{} worlds, oracle at {}",
            t.spec,
            miss.count(),
            hit.count(),
            oracle.count()
        ));
    }
    out.miss_us.last_mut().expect("slice opened").push(miss_us);
    out.hit_us.last_mut().expect("slice opened").push(hit_us);
    if let Some(tr) = out.tracer.as_mut() {
        let layers = replay(tr, op, t, &text, miss_us)?;
        out.layers.push(layers);
    }
    Ok(())
}

/// Times `f`, inside a root span when tracing.
fn timed<T>(
    tracer: &mut Option<Tracer>,
    op: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(t) => t.span_us(op, None, name, f),
        None => {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed().as_secs_f64() * 1e6)
        }
    }
}

/// Replays a first ask step by step through `hm-logic`, as `Session`
/// runs it, each step in a span under a `query.replica` root.
fn replay(
    tr: &mut Tracer,
    op: u64,
    t: &Target,
    text: &str,
    miss_us: f64,
) -> Result<Layers, String> {
    let replica = tr.open(op, None, "query.replica");
    let root = Some(replica);
    let full: &dyn Frame = t.session.frame();
    let (f, parse_us) = tr.span_us(op, root, "logic.parse", || parse(text));
    let f = f.map_err(|e| e.to_string())?;
    let (report, analyze) = tr.span_us(op, root, "logic.analyze", || {
        Analyzer::new().frame(full).minimize(t.minimize).analyze(&f)
    });
    let (simplified, simplify_us) = tr.span_us(op, root, "logic.simplify", || simplify(&f));
    let (compiled, compile_us) = tr.span_us(op, root, "logic.compile", || compile(&simplified));
    let compiled = compiled.map_err(|e| e.to_string())?;
    let frame: &dyn Frame = match t.session.quotient() {
        Some(q) if t.minimize && compiled.quotient_safe() => &q.model,
        _ => full,
    };
    let (bound, bind) = tr.span_us(op, root, "logic.bind", || compiled.bind(frame));
    let bound = bound.map_err(|e| e.to_string())?;
    let (set, eval) = tr.span_us(op, root, "logic.eval", || {
        compiled.eval_bound_budgeted(frame, &bound, &Budget::unlimited())
    });
    std::hint::black_box(set.map_err(|e| e.to_string())?.count());
    tr.close(replica);
    let facts = report.facts();
    Ok(Layers {
        miss_us,
        parse: parse_us,
        analyze,
        simplify: simplify_us,
        compile: compile_us,
        bind,
        eval,
        nodes: facts.nodes as f64,
        instructions: facts.instructions.unwrap_or(0) as f64,
        instructions_simplified: facts.instructions_simplified.unwrap_or(0) as f64,
    })
}

impl Run {
    /// First-ask p50 (µs): the trace-overhead reference.
    pub fn headline(&self) -> f64 {
        median(&self.miss_us.concat())
    }

    pub fn end_to_end(&self, m: &mut Metrics) {
        let miss = self.miss_us.concat();
        m.push("miss_ask_p50_us", median(&miss), "us");
        m.push("miss_ask_p99_us", quantile(&miss, 0.99), "us");
        m.push("hit_ask_p50_us", median(&self.hit_us.concat()), "us");
    }

    pub fn per_layer(&self, m: &mut Metrics) {
        let col = |f: fn(&Layers) -> f64| -> Vec<f64> { self.layers.iter().map(f).collect() };
        m.push("logic.parse_us", median(&col(|l| l.parse)), "us");
        m.push("logic.analyze_us", median(&col(|l| l.analyze)), "us");
        m.push("logic.simplify_us", median(&col(|l| l.simplify)), "us");
        m.push("logic.compile_us", median(&col(|l| l.compile)), "us");
        m.push("logic.bind_us", median(&col(|l| l.bind)), "us");
        m.push("logic.eval_us", median(&col(|l| l.eval)), "us");
        m.push("engine.ask_miss_us", median(&self.miss_us.concat()), "us");
        m.push("engine.ask_hit_us", median(&self.hit_us.concat()), "us");
        m.push("logic.nodes", mean(&col(|l| l.nodes)), "count");
        m.push(
            "logic.instructions",
            mean(&col(|l| l.instructions)),
            "count",
        );
        m.push(
            "logic.instructions_simplified",
            mean(&col(|l| l.instructions_simplified)),
            "count",
        );
        let unattributed = col(|l| {
            let layers = l.analyze + l.simplify + l.compile + l.bind + l.eval;
            100.0 * (l.miss_us - layers) / l.miss_us.max(1e-9)
        });
        m.push("engine.miss_unattributed_pct", median(&unattributed), "%");
    }

    pub fn into_tracer(self) -> Option<Tracer> {
        self.tracer
    }
}
