//! One benchmark for the whole Halpern–Moses pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-warm --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Every run measures all three workloads — `serve-warm`, `build-cold`
//! and `query-fresh` — in interleaved rounds until about `--seconds`
//! have passed, so every end-to-end metric is reported on every run.
//! `--workload` names the focus: its slices run first and last longer.
//! CPU-bound end-to-end times are scaled by an in-run host probe to a
//! reference host speed (see `README.md`).
//! `--trace 1` reports the per-layer metrics instead: every slice runs
//! with spans recorded around each public call and replays of each
//! layer beside the timed ops, and the focus also runs untraced, for
//! the tracing overhead.
//!
//! The last line of standard output is the result object; the line
//! before it records the environment. Both are also written, with the
//! spans of a traced run, under `perfbench/out/`. See `README.md` for
//! the workloads' rationale and the layer → end-to-end mapping.

mod build_cold;
mod query_fresh;
mod serve_warm;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{median, Rng, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// The seed held out for re-checking claims: never used while tuning.
const HELD_OUT_SEED: u64 = 7_919;

/// Rounds per run, at least.
const MIN_ROUNDS: usize = 2;

/// Length of a serve-warm keep-alive slice (one per round).
const KEEPALIVE_SLICE: Duration = Duration::from_millis(1000);

/// Length of a query-fresh slice (one per interlude).
const QUERY_SLICE: Duration = Duration::from_millis(150);

/// Build-cold time between interludes, at least.
const INTERLUDE_EVERY: Duration = Duration::from_millis(500);

/// Requests in a serve-warm fresh slice (one per interlude; twice as
/// many, not three times, for the focus). Each leaves a TIME_WAIT socket
/// behind; a run's total stays well inside the ephemeral port range.
const FRESH_SLICE: usize = 250;

/// The host-probe time (µs) that defines the reference host speed
/// (about the fast state of the 2-vCPU host this was tuned on).
/// CPU-bound end-to-end times are scaled to it; see `README.md`.
const PROBE_REF_US: f64 = 1000.0;

/// How many times longer the focus workload's slices are.
const FOCUS_WEIGHT: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeWarm,
    BuildCold,
    QueryFresh,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeWarm,
        Workload::BuildCold,
        Workload::QueryFresh,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve-warm",
            Workload::BuildCold => "build-cold",
            Workload::QueryFresh => "query-fresh",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("missing or non-positive --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Ops attempted and failed, with the first few failures described.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }
}

/// Everything the timed slices run against, built by one set-up.
struct Fixture {
    server: hm_serve::ServerHandle,
    targets: Vec<query_fresh::Target>,
}

/// Sets up [`SETUP_REPS`] times (server start and warm-up, plus the
/// query-fresh frame builds) and keeps the last fixture. Returns it with
/// the median set-up time (s) and the median host-probe time (µs)
/// around the set-ups.
fn setup(pairs: &[serve_warm::Pair]) -> Result<(Fixture, f64, f64), String> {
    let mut times = Vec::new();
    let mut probes = Vec::new();
    let mut kept: Option<Fixture> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            old.server.shutdown();
        }
        probes.extend([trace::probe_us(), trace::probe_us()]);
        let t0 = Instant::now();
        let server = serve_warm::setup(pairs)?;
        let targets = query_fresh::setup()?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(Fixture { server, targets });
    }
    let fixture = kept.expect("at least one set-up");
    Ok((fixture, median(&times), median(&probes)))
}

/// The samples of all three workloads, accumulated over a run's rounds.
struct Runs {
    serve: serve_warm::Run,
    build: build_cold::Run,
    query: query_fresh::Run,
}

impl Runs {
    fn new(epoch: Option<Instant>) -> Runs {
        Runs {
            serve: serve_warm::Run::new(epoch.map(Tracer::new)),
            build: build_cold::Run::new(epoch.map(Tracer::new)),
            query: query_fresh::Run::new(epoch.map(Tracer::new)),
        }
    }

    /// The focus workload's headline figure (the trace-overhead
    /// reference).
    fn headline(&self, w: Workload) -> f64 {
        match w {
            Workload::ServeWarm => self.serve.headline(),
            Workload::BuildCold => self.build.headline(),
            Workload::QueryFresh => self.query.headline(),
        }
    }

    fn into_tracers(self) -> [Option<Tracer>; 3] {
        [
            self.serve.into_tracer(),
            self.build.into_tracer(),
            self.query.into_tracer(),
        ]
    }
}

struct Bench<'a> {
    args: &'a Args,
    fixture: Fixture,
    pairs: &'a [serve_warm::Pair],
    refs: build_cold::References,
    build_rng: Rng,
    query_rng: Rng,
    tally: Tally,
    /// Host-probe times (µs), two per keep-alive slice and interlude.
    probes: Vec<f64>,
}

impl Bench<'_> {
    fn probe(&mut self) {
        self.probes.extend([trace::probe_us(), trace::probe_us()]);
    }

    /// Slice lengths are multiplied by [`FOCUS_WEIGHT`] for the focus.
    fn weight(&self, w: Workload) -> u32 {
        if w == self.args.workload {
            FOCUS_WEIGHT
        } else {
            1
        }
    }

    fn keepalive(&mut self, runs: &mut Runs) -> Result<(), String> {
        let budget = KEEPALIVE_SLICE * self.weight(Workload::ServeWarm);
        let seed = self.args.seed;
        serve_warm::keepalive_slice(
            &self.fixture.server,
            self.pairs,
            budget,
            seed,
            &mut runs.serve,
            &mut self.tally,
        )
    }

    /// One workload's part of an interlude: a fresh-connection
    /// serve-warm slice, or a query-fresh slice.
    fn interlude(&mut self, w: Workload, runs: &mut Runs) -> Result<(), String> {
        let weight = self.weight(w);
        match w {
            Workload::ServeWarm => serve_warm::fresh_slice(
                &self.fixture.server,
                self.pairs,
                FRESH_SLICE * weight.min(2) as usize,
                self.args.seed,
                &mut runs.serve,
                &mut self.tally,
            )?,
            Workload::QueryFresh => query_fresh::slice(
                &mut self.fixture.targets,
                QUERY_SLICE * weight,
                &mut self.query_rng,
                &mut runs.query,
                &mut self.tally,
            ),
            Workload::BuildCold => {}
        }
        Ok(())
    }
}

/// Peak resident set size of this process so far (MiB).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Runs the benchmark; returns the op tally and the median host-probe
/// time (µs).
fn run(args: &Args, metrics: &mut Metrics) -> Result<(Tally, f64), String> {
    let pairs = serve_warm::references()?;
    let (fixture, setup_s, setup_probe_us) = setup(&pairs)?;
    let mut bench = Bench {
        args,
        fixture,
        pairs: &pairs,
        refs: build_cold::References::default(),
        build_rng: Rng::new(args.seed ^ 0xB0_11D),
        query_rng: Rng::new(args.seed ^ 0xF0_4E5),
        tally: Tally::default(),
        probes: Vec::new(),
    };
    let epoch = Instant::now();
    // Indexed by "traced pass".
    let mut runs = [Runs::new(None), Runs::new(Some(epoch))];
    // The passes a workload's slices run in: untraced, or traced — and a
    // traced run also runs the focus untraced, for the tracing overhead.
    let focus = args.workload;
    let passes = |w: Workload| -> &'static [bool] {
        match (args.trace, w == focus) {
            (false, _) => &[false],
            (true, true) => &[false, true],
            (true, false) => &[true],
        }
    };
    let mut interludes = [Workload::ServeWarm, Workload::QueryFresh];
    interludes.sort_by_key(|w| *w != focus);
    // Rounds until about `--seconds` have passed. A round is a
    // keep-alive slice, then every build-cold op in a seeded order, with
    // an interlude — a fresh-connection slice and a query-fresh slice,
    // the focus first — after every op that ends at least
    // INTERLUDE_EVERY after the last interlude: every workload's samples
    // spread over the whole run.
    let started = Instant::now();
    let mut last_interlude = started;
    let mut rounds = 0;
    loop {
        let round = Instant::now();
        bench.probe();
        for &traced_pass in passes(Workload::ServeWarm) {
            bench.keepalive(&mut runs[usize::from(traced_pass)])?;
        }
        for i in build_cold::round_order(&mut bench.build_rng) {
            for &traced_pass in passes(Workload::BuildCold) {
                let build = &mut runs[usize::from(traced_pass)].build;
                build_cold::op(i, &mut bench.refs, build, &mut bench.tally);
            }
            // Interludes at most every INTERLUDE_EVERY of build time.
            if last_interlude.elapsed() < INTERLUDE_EVERY {
                continue;
            }
            last_interlude = Instant::now();
            bench.probe();
            for w in interludes {
                for &traced_pass in passes(w) {
                    bench.interlude(w, &mut runs[usize::from(traced_pass)])?;
                }
            }
        }
        rounds += 1;
        // Stop when another round would overrun by more than half.
        let projected = started.elapsed() + round.elapsed() / 2;
        if rounds >= MIN_ROUNDS && projected.as_secs_f64() >= args.seconds {
            break;
        }
    }
    let [untraced, traced] = runs;
    let probe_us = median(&bench.probes);
    if args.trace {
        traced.serve.per_layer(metrics);
        traced.build.per_layer(metrics);
        traced.query.per_layer(metrics);
        let w = args.workload;
        let overhead = 100.0 * (traced.headline(w) / untraced.headline(w).max(1e-12) - 1.0);
        metrics.push("trace.overhead_pct", overhead, "%");
        metrics.push("host.probe_us", probe_us, "us");
        let mut all = Tracer::new(epoch);
        for t in traced.into_tracers().into_iter().flatten() {
            all.absorb(t);
        }
        let path = out_dir().join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
        all.write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        metrics.push("setup_s", setup_s * PROBE_REF_US / setup_probe_us, "s");
        metrics.push("peak_rss_mb", peak_rss_mb()?, "MiB");
        untraced.serve.end_to_end(metrics);
        untraced.build.end_to_end(metrics);
        untraced.query.end_to_end(metrics);
        // Scale CPU-bound times to the reference host speed (`setup_s`
        // already is, by the probes around the set-ups). Keep-alive
        // figures stay raw: the delayed-ACK timer, not the CPU, sets them.
        for (name, value, unit) in &mut metrics.0 {
            let scaled = matches!(*unit, "s" | "ms" | "us")
                && name != "setup_s"
                && !name.starts_with("keepalive_");
            if scaled {
                *value *= PROBE_REF_US / probe_us;
            }
        }
    }
    let report = bench.fixture.server.shutdown();
    if !report.drained {
        bench.tally.fail(format!(
            "server drain left {} workers",
            report.forced_workers
        ));
    }
    Ok((bench.tally, probe_us))
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// FNV-1a over the repository's sources and manifests: names the code
/// measured even where no git metadata is available.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f
            .strip_prefix(&root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in name.bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    hm_serve::json::esc(&mut out, s);
    out
}

fn env_json(args: &Args, probe_us: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let ports = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range")
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join("-"))
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"env\":{{\"workload\":{},\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\
         \"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"rustc\":{},\"profile\":{},\
         \"commit\":{},\"source_digest\":{},\"ip_local_port_range\":{},\
         \"probe_us\":{probe_us},\"probe_ref_us\":{PROBE_REF_US}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&git_commit()),
        json_str(&source_digest()),
        json_str(&ports),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload serve-warm|build-cold|query-fresh \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut metrics = Metrics::default();
    let (mut tally, probe_us) = match run(&args, &mut metrics) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            tally.fail(format!("metric {name} is not finite"));
        }
    }
    for e in &tally.errors {
        eprintln!("perfbench: failed op: {e}");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            line,
            "{}{}:{{\"value\":{value},\"unit\":{}}}",
            if i == 0 { "" } else { "," },
            json_str(name),
            json_str(unit)
        );
    }
    line.push_str("}}");
    let env = env_json(&args, probe_us);
    let path = out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{env}\n{line}\n")))
    {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    println!("{env}");
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
