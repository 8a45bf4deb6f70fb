//! `hm` — the scenario CLI: every worked frame of Halpern–Moses,
//! reachable from one spec string, no Rust required.
//!
//! ```text
//! hm list                               catalog of registered scenarios
//! hm describe <name>                    parameters, ranges, example
//! hm check [opts] <spec> <formula>      lint a query without building
//! hm ask [opts] <spec> <formula>        build the frame, print the verdict
//! hm exp [E1 E2 …]                      run the E1–E18 experiment driver
//! hm serve [opts]                       answer queries over HTTP
//! hm help
//! ```
//!
//! `ask` options:
//!
//! ```text
//! --horizon N    override the scenario's time horizon
//! --minimize     answer quotient-safe queries on the bisimulation quotient
//! --show N       list at most N satisfying points (default 10; 0 = none)
//! --max-runs N   cap enumerated runs (exceeding exits 3)
//! --max-worlds N cap interpreted-system points (exceeding exits 3)
//! --timeout S    wall-clock budget in seconds, fractions allowed
//! --partial      degrade instead of failing: a run budget or deadline
//!                hit truncates the frame and the verdict turns
//!                three-valued (definitely / possibly / unknown)
//! ```
//!
//! `exp` accepts the same resource options (`--max-runs`,
//! `--max-worlds`, `--timeout`), applied to every frame it builds; an
//! unknown experiment name exits 2 with a suggestion, before any runs.
//!
//! `check` lints a formula against the scenario's declared *surface*
//! (vocabulary, agent count, temporal capability, horizon) without
//! enumerating a single run; options: `--json` (machine-readable
//! report), `--explain` (inferred-facts table), `--minimize`
//! (quotient-safety warnings), `--horizon N`, and `--catalog` (lint
//! every registered scenario's example query).
//!
//! Examples:
//!
//! ```text
//! hm ask generals "K1 dispatched & !K0 K1 dispatched"
//! hm ask agreement:n=3,f=1 "C{0,1,2} min0"
//! hm ask muddy:n=6,dirty=3 "K0 muddy0"
//! hm ask r2d2:eps=3 "Ceps[3]{0,1} sent"
//! hm check generals "C{0,1} dispatchd"       # typo caught pre-build
//! hm check --json agreement:n=4,f=2 "C{0,1,2,3} min0"
//! ```
//!
//! Exit codes: 0 = success, 1 = evaluation error (`ask`) or any
//! diagnostic (`check`), 2 = usage/spec/parse error, 3 = a resource
//! limit (run/world budget, deadline, cancellation) was exceeded.

use hm_bench::experiments::ExperimentError;
use hm_engine::{check_spec, Engine, EngineError, Limits, Query, Scenario, ScenarioRegistry};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        None | Some("help") | Some("-h") | Some("--help") => {
            print!("{}", USAGE);
            0
        }
        Some("list") => list(),
        Some("describe") => describe(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("ask") => ask(&args[1..]),
        Some("exp") => exp(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some(other) => {
            eprintln!("unknown command `{other}` (try `hm help`)");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
hm — epistemic queries against the Halpern-Moses scenario registry

usage:
  hm list                          catalog of registered scenarios
  hm describe <name>               parameters, ranges, example invocation
  hm check [opts] <spec> <formula> lint a query without building the frame
  hm ask [opts] <spec> <formula>   build the frame, print the verdict
  hm exp [E1 E2 ...]               run the E1-E18 experiment driver
  hm serve [opts]                  answer queries over HTTP (JSON in/out)
  hm help                          this text

ask options:
  --horizon N    override the scenario's time horizon
  --minimize     answer quotient-safe queries on the bisimulation quotient
  --show N       list at most N satisfying points (default 10; 0 = none)
  --max-runs N   cap enumerated runs; exceeding the cap exits 3
  --max-worlds N cap interpreted-system points; exceeding exits 3
  --timeout S    wall-clock budget in seconds (fractions allowed)
  --partial      degrade instead of failing: a run budget or deadline hit
                 truncates the frame and the verdict turns three-valued
                 (definitely / possibly / unknown)

exp options:
  --max-runs N / --max-worlds N / --timeout S
                 as for ask, applied to every frame the driver builds
                 (the deadline re-anchors per build); an unknown
                 experiment name exits 2 before any experiment runs

serve options:
  --addr A:P         bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --workers N        worker threads answering requests (default 4)
  --engines N        built engines kept warm in the LRU cache (default 8)
  --queue-depth N    accepted connections allowed to wait for a worker
                     (default 64); beyond workers + queue, connections
                     are shed with 503 + Retry-After
  --drain-timeout S  graceful-shutdown budget in seconds (default 5):
                     in-flight and queued requests finish, then workers
                     still busy are abandoned
  --selftest         start an ephemeral server, drive the whole request
                     contract against it from the outside, and exit
  --overload-smoke   deterministically saturate an ephemeral server and
                     verify the shed path (503 + Retry-After, no hangs),
                     then exit

  the server answers GET /healthz, GET /stats (optionally
  /stats?window=60s for per-second history), and POST /query with a
  JSON body {\"spec\",\"formula\",\"horizon\"?,\"minimize\"?,\"limits\"?};
  it stops cleanly when stdin reaches end-of-file (ctrl-d, or the
  supervisor closing the pipe)

check options:
  --json         print the full report as one JSON object
  --explain      print the inferred-facts table (depths, footprint,
                 quotient safety, instruction counts)
  --minimize     warn about operators unsafe on the bisimulation quotient
  --horizon N    check temporal depth against this horizon
  --catalog      lint every registered scenario's example query instead

exit codes: 0 = clean, 1 = diagnostics reported (check) or evaluation
error (ask), 2 = usage/spec/parse error, 3 = resource limit exceeded

a <spec> is name:key=value,... e.g. generals, agreement:n=3,f=1,
muddy:n=6,dirty=3, r2d2:eps=3 — see `hm list` and SCENARIOS.md.
";

fn list() -> i32 {
    let reg = ScenarioRegistry::builtin();
    println!("registered scenarios (spec syntax: name:key=value,...):");
    for s in reg.iter() {
        println!("  {:<22}{}", s.name(), s.summary());
    }
    println!("use `hm describe <name>` for parameters and an example.");
    0
}

fn describe(args: &[String]) -> i32 {
    let [name] = args else {
        eprintln!("usage: hm describe <name>");
        return 2;
    };
    let reg = ScenarioRegistry::builtin();
    // Resolving the bare name also catches typos with a suggestion.
    let scenario = match reg.resolve(name) {
        Ok((s, _)) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    print_description(scenario);
    0
}

fn print_description(s: &dyn Scenario) {
    println!("{} — {}", s.name(), s.summary());
    let exercised = s.experiments();
    if !exercised.is_empty() {
        println!("  exercised by: {exercised}");
    }
    let params = s.params();
    if params.is_empty() {
        println!("  parameters: none");
    } else {
        println!("  parameters:");
        for p in &params {
            println!(
                "    {:<14}{:<22}(default {})  {}",
                p.key,
                p.kind.to_string(),
                p.default,
                p.doc
            );
        }
    }
    println!("  example: hm ask {} \"{}\"", s.name(), s.example_query());
}

fn check(args: &[String]) -> i32 {
    let mut horizon: Option<u64> = None;
    let mut minimize = false;
    let mut json = false;
    let mut explain = false;
    let mut catalog = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--horizon" => {
                let Some(value) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--horizon needs an integer argument");
                    return 2;
                };
                horizon = Some(value);
            }
            "--minimize" => minimize = true,
            "--json" => json = true,
            "--explain" => explain = true,
            "--catalog" => catalog = true,
            other if other.starts_with("--") => {
                eprintln!("unknown option `{other}` (try `hm help`)");
                return 2;
            }
            _ => positional.push(arg),
        }
    }
    if catalog {
        if !positional.is_empty() {
            eprintln!("--catalog takes no <spec>/<formula> arguments");
            return 2;
        }
        return check_catalog(horizon, minimize);
    }
    let [spec, formula] = positional[..] else {
        eprintln!("usage: hm check [opts] <spec> <formula>");
        return 2;
    };
    let report = match check_spec(spec, formula, horizon, minimize) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if json {
        println!("{}", report.to_json());
    } else {
        for d in report.errors().iter().chain(report.warnings().iter()) {
            println!("{d}");
        }
        if report.is_clean() {
            println!("ok: no diagnostics for `{formula}` on `{spec}`");
        }
        if explain {
            print_facts(&report);
        }
    }
    i32::from(!report.is_clean())
}

fn print_facts(report: &hm_engine::Diagnostics) {
    let f = report.facts();
    println!("facts:");
    println!("  nodes                 {}", f.nodes);
    println!("  modal depth           {}", f.modal_depth);
    println!("  temporal depth        {}", f.temporal_depth);
    let agents: Vec<String> = f.agents.iter().map(ToString::to_string).collect();
    println!("  agents                {{{}}}", agents.join(", "));
    println!(
        "  atoms                 {}",
        if f.atoms.is_empty() {
            "(none)".to_string()
        } else {
            f.atoms.join(", ")
        }
    );
    let safety = if f.quotient_safe {
        "yes".to_string()
    } else {
        match &f.quotient_unsafe {
            Some((path, op)) if path.is_empty() => format!("no (`{op}` at the root)"),
            Some((path, op)) => format!("no (`{op}` at {path})"),
            None => "no".to_string(),
        }
    };
    println!("  quotient-safe         {safety}");
    if let Some(n) = f.instructions {
        println!("  instructions          {n}");
    }
    if let Some(n) = f.instructions_simplified {
        println!("  after simplification  {n}  (as: {})", f.simplified);
    }
}

fn check_catalog(horizon: Option<u64>, minimize: bool) -> i32 {
    let reg = ScenarioRegistry::builtin();
    let mut dirty = 0;
    for s in reg.iter() {
        let name = s.name();
        let q = s.example_query();
        match check_spec(&name, &q, horizon, minimize) {
            Ok(r) if r.is_clean() => println!("ok    {name:<22}\"{q}\""),
            Ok(r) => {
                dirty += 1;
                println!("DIRTY {name:<22}\"{q}\"");
                for d in r.errors().iter().chain(r.warnings().iter()) {
                    println!("      {d}");
                }
            }
            Err(e) => {
                dirty += 1;
                println!("DIRTY {name:<22}\"{q}\": {e}");
            }
        }
    }
    i32::from(dirty > 0)
}

/// Report a build/evaluation failure: typed resource-limit errors exit
/// 3 so scripts can tell "over budget" from "query is broken" (1).
fn fail(e: &EngineError) -> i32 {
    eprintln!("{e}");
    if e.limit().is_some() {
        3
    } else {
        1
    }
}

/// Parse `--timeout`'s argument: non-negative finite seconds, fractions
/// allowed (`0.25` = 250 ms).
fn parse_timeout(arg: Option<&String>) -> Option<Duration> {
    arg.and_then(|v| v.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 0.0)
        .map(Duration::from_secs_f64)
}

fn ask(args: &[String]) -> i32 {
    let mut horizon: Option<u64> = None;
    let mut minimize = false;
    let mut partial = false;
    let mut show: usize = 10;
    let mut limits = Limits::none();
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--horizon" | "--show" | "--max-runs" | "--max-worlds" => {
                let Some(value) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("{arg} needs an integer argument");
                    return 2;
                };
                match arg.as_str() {
                    "--horizon" => horizon = Some(value),
                    "--show" => show = value as usize,
                    "--max-runs" => limits = limits.max_runs(value),
                    _ => limits = limits.max_worlds(value),
                }
            }
            "--timeout" => {
                let Some(d) = parse_timeout(it.next()) else {
                    eprintln!("--timeout needs a non-negative number of seconds");
                    return 2;
                };
                limits = limits.timeout(d);
            }
            "--minimize" => minimize = true,
            "--partial" => partial = true,
            other if other.starts_with("--") => {
                eprintln!("unknown option `{other}` (try `hm help`)");
                return 2;
            }
            _ => positional.push(arg),
        }
    }
    let [spec, formula] = positional[..] else {
        eprintln!("usage: hm ask [opts] <spec> <formula>");
        return 2;
    };

    let query = match Query::parse(formula) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut engine = Engine::for_scenario(spec)
        .minimize(minimize)
        .limits(limits.allow_partial(partial));
    if let Some(h) = horizon {
        engine = engine.horizon(h);
    }
    let session = match engine.build() {
        Ok(s) => s,
        Err(EngineError::Spec(e)) => {
            eprintln!("{e}");
            return 2;
        }
        Err(e) => return fail(&e),
    };
    let kind = if session.interpreted().is_some() {
        "points"
    } else {
        "worlds"
    };

    // A truncated frame (only reachable with --partial) cannot answer
    // two-valued queries; report the three-valued verdict instead.
    if session.is_partial() {
        let pv = match session.ask_partial(&query) {
            Ok(v) => v,
            Err(e) => return fail(&e),
        };
        println!("scenario: {spec}");
        println!("formula:  {query}");
        println!("frame:    partial (budget hit; verdict is three-valued)");
        println!(
            "definitely {} / possibly {} / unknown {} of {} {kind}",
            pv.definitely().count(),
            pv.possibly().count(),
            pv.unknown_count(),
            session.num_worlds()
        );
        for w in pv.definitely().iter().take(show) {
            println!("  {}", session.world_name(w));
        }
        let shown = pv.definitely().count().min(show);
        if pv.definitely().count() > shown && shown > 0 {
            println!("  … ({} more)", pv.definitely().count() - shown);
        }
        return 0;
    }

    let verdict = match session.ask(&query) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };

    println!("scenario: {spec}");
    println!("formula:  {query}");
    println!(
        "holds at {}/{} {kind}{}",
        verdict.count(),
        session.num_worlds(),
        if verdict.is_valid() {
            " (valid: everywhere)"
        } else if verdict.is_empty() {
            " (nowhere)"
        } else {
            ""
        }
    );
    for w in verdict.satisfying().iter().take(show) {
        println!("  {}", session.world_name(w));
    }
    if verdict.count() > show && show > 0 {
        println!("  … ({} more)", verdict.count() - show);
    }
    0
}

fn exp(args: &[String]) -> i32 {
    let mut limits = Limits::none();
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-runs" | "--max-worlds" => {
                let Some(value) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("{arg} needs an integer argument");
                    return 2;
                };
                limits = if arg == "--max-runs" {
                    limits.max_runs(value)
                } else {
                    limits.max_worlds(value)
                };
            }
            "--timeout" => {
                let Some(d) = parse_timeout(it.next()) else {
                    eprintln!("--timeout needs a non-negative number of seconds");
                    return 2;
                };
                limits = limits.timeout(d);
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option `{other}` (try `hm help`)");
                return 2;
            }
            _ => names.push(arg.clone()),
        }
    }
    match hm_bench::experiments::run(&names, &limits) {
        Ok(()) => 0,
        Err(ExperimentError::Engine(e)) => fail(&e),
        Err(e @ ExperimentError::Unknown { .. }) => {
            eprintln!("{e}");
            2
        }
    }
}

fn serve(args: &[String]) -> i32 {
    let mut config = hm_serve::ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..hm_serve::ServeConfig::default()
    };
    let mut run_selftest = false;
    let mut run_overload_smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                let Some(a) = it.next() else {
                    eprintln!("--addr needs an address:port argument");
                    return 2;
                };
                config.addr = a.clone();
            }
            "--workers" | "--engines" | "--queue-depth" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("{arg} needs a positive integer argument");
                    return 2;
                };
                match arg.as_str() {
                    "--workers" => config.workers = n,
                    "--engines" => config.engine_capacity = n,
                    _ => config.queue_depth = n,
                }
            }
            "--drain-timeout" => {
                let Some(secs) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--drain-timeout needs a duration in seconds");
                    return 2;
                };
                if !(secs >= 0.0 && secs.is_finite()) {
                    eprintln!("--drain-timeout needs a non-negative finite duration");
                    return 2;
                }
                config.drain_timeout = std::time::Duration::from_secs_f64(secs);
            }
            "--selftest" => run_selftest = true,
            "--overload-smoke" => run_overload_smoke = true,
            other => {
                eprintln!("unknown option `{other}` (try `hm help`)");
                return 2;
            }
        }
    }

    if run_selftest {
        return match hm_serve::selftest(config.workers) {
            Ok(report) => {
                print!("{report}");
                0
            }
            Err(e) => {
                eprintln!("selftest failed: {e}");
                1
            }
        };
    }
    if run_overload_smoke {
        return match hm_serve::overload_smoke() {
            Ok(report) => {
                print!("{report}");
                0
            }
            Err(e) => {
                eprintln!("overload smoke failed: {e}");
                1
            }
        };
    }

    let server = match hm_serve::Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", config.addr);
            return 2;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot resolve bound address: {e}");
            return 2;
        }
    };
    let handle = match server.start() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return 2;
        }
    };
    println!(
        "listening on http://{addr} ({} workers, {} warm engines)",
        config.workers.max(1),
        config.engine_capacity
    );
    println!("close stdin (ctrl-d) to stop");
    // Block until stdin reaches EOF — the supervisor-friendly shutdown
    // signal available without OS signal handlers (the workspace
    // forbids unsafe code, hence no sigaction).
    let mut sink = String::new();
    loop {
        sink.clear();
        match std::io::stdin().read_line(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let drain = handle.shutdown();
    if drain.drained {
        println!("stopped (drained in {:.0?})", drain.waited);
    } else {
        println!(
            "stopped ({} workers still busy after the {:.0?} drain window)",
            drain.forced_workers, drain.waited
        );
    }
    0
}
