//! `serve-warm`: an in-process `hm serve` answering a fixed mix of
//! warm queries over loopback HTTP, first on persistent connections
//! (`keepalive`), then on a new connection per request (`fresh`).
//! Every timed request is an engine-cache hit.

use crate::trace::{mean, median, quantile, Rng, Tracer};
use crate::{Metrics, Tally};
use hm_engine::{Engine, Query, ScenarioRegistry, Session};
use hm_serve::json::Value;
use hm_serve::{read_response, send_request, ServeConfig, Server, ServerHandle};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request mix: 31 (spec, formula, minimize) pairs over six specs.
const PAIRS: &[(&str, &str, bool)] = &[
    ("generals", "C{0,1} dispatched", false),
    ("generals", "K1 dispatched", false),
    ("generals", "K0 K1 dispatched", false),
    ("generals", "E{0,1} dispatched & !C{0,1} attacking", false),
    ("generals", "Ceps[1]{0,1} dispatched", false),
    ("agreement:n=3,f=1", "C{0,1,2} min0", false),
    ("agreement:n=3,f=1", "K0 min0", false),
    ("agreement:n=3,f=1", "E{0,1,2} decided0", false),
    ("agreement:n=3,f=1", "D{0,1} min0", false),
    ("agreement:n=3,f=1", "S{0,1,2} min0", false),
    ("agreement:n=3,f=1", "C{0,1,2} min0", true),
    ("muddy:n=8", "K0 muddy0", false),
    ("muddy:n=8", "E{0,1,2,3,4,5,6,7} m", false),
    ("muddy:n=8", "C{0,1,2,3,4,5,6,7} m", false),
    ("muddy:n=8", "!K0 muddy0 & !K0 !muddy0", false),
    ("muddy:n=8", "D{0,1} muddy0", false),
    ("r2d2:eps=3", "K0 K1 sent", false),
    ("r2d2:eps=3", "K1 sent_focus", false),
    ("r2d2:eps=3", "Ceps[3]{0,1} sent_focus", false),
    ("r2d2:eps=3", "Cev{0,1} sent_focus", false),
    ("r2d2:eps=3", "C{0,1} sent_focus", false),
    ("deadlock", "K0 deadlock", false),
    ("deadlock", "detected -> deadlock", false),
    ("deadlock", "C{0,1,2} deadlock", false),
    ("deadlock", "E{0,1,2} detected", false),
    ("deadlock", "once detected", false),
    ("skewed:skew=2", "CT[6]{0,1} sent_v", false),
    ("skewed:skew=2", "K0 sent_v", false),
    ("skewed:skew=2", "E{0,1} sent_v", false),
    ("skewed:skew=2", "C{0,1} sent_v", false),
    ("skewed:skew=2", "alw sent_v", false),
];

/// Server worker threads, and client threads per phase.
const WORKERS: usize = 2;
const CLIENTS: usize = 2;

/// One request of the mix with its verdict computed off the clock, and
/// the in-process session the traced run replays it against.
pub struct Pair {
    spec: &'static str,
    formula: &'static str,
    body: String,
    expected_count: u64,
    session: Arc<Session>,
}

/// Builds one in-process session per (spec, minimize) and computes each
/// pair's verdict with the tree-walking oracle.
pub fn references() -> Result<Vec<Pair>, String> {
    let mut sessions: Vec<(&str, bool, Arc<Session>)> = Vec::new();
    let mut pairs = Vec::new();
    for &(spec, formula, minimize) in PAIRS {
        let session = match sessions
            .iter()
            .find(|(s, m, _)| *s == spec && *m == minimize)
        {
            Some((_, _, s)) => Arc::clone(s),
            None => {
                let s = Arc::new(
                    Engine::for_scenario(spec)
                        .minimize(minimize)
                        .build()
                        .map_err(|e| format!("{spec}: {e}"))?,
                );
                sessions.push((spec, minimize, Arc::clone(&s)));
                s
            }
        };
        let query = Query::parse(formula).map_err(|e| format!("{formula}: {e}"))?;
        let oracle = hm_logic::evaluate_tree(session.frame(), query.formula())
            .map_err(|e| format!("{spec} {formula}: {e}"))?;
        let mut body = String::from("{\"spec\":");
        hm_serve::json::esc(&mut body, spec);
        body.push_str(",\"formula\":");
        hm_serve::json::esc(&mut body, formula);
        if minimize {
            body.push_str(",\"minimize\":true");
        }
        body.push('}');
        pairs.push(Pair {
            spec,
            formula,
            body,
            expected_count: oracle.count() as u64,
            session,
        });
    }
    Ok(pairs)
}

/// Starts the server and sends every pair once, so each engine the mix
/// needs is built and cached before anything is timed.
pub fn setup(pairs: &[Pair]) -> Result<ServerHandle, String> {
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::bind(&config).map_err(|e| format!("bind: {e}"))?;
    let handle = server.start().map_err(|e| format!("start: {e}"))?;
    for p in pairs {
        let mut stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        send_request(&mut stream, "POST", "/query", &p.body, false)
            .map_err(|e| format!("warm-up send: {e}"))?;
        let (status, _, body) =
            read_response(&mut BufReader::new(stream)).map_err(|e| format!("warm-up read: {e}"))?;
        check_reply(p, status, &body, false)?;
    }
    Ok(handle)
}

/// What a checked `200` reply carried.
struct Reply {
    session_us: f64,
    ask_us: f64,
}

/// Checks one reply against the pair's oracle verdict (and, for timed
/// requests, that the engine cache answered it).
fn check_reply(p: &Pair, status: u16, body: &str, want_hit: bool) -> Result<Reply, String> {
    if status != 200 {
        return Err(format!(
            "{} `{}`: status {status}: {body}",
            p.spec, p.formula
        ));
    }
    let v = Value::parse(body)?;
    let count = v.field("verdict")?.field("count")?.u64()?;
    if count != p.expected_count {
        return Err(format!(
            "{} `{}`: served verdict holds at {count} worlds, oracle at {}",
            p.spec, p.formula, p.expected_count
        ));
    }
    let cache = v.field("engine_cache")?.string()?;
    if want_hit && cache != "hit" {
        return Err(format!("{} `{}`: engine cache {cache}", p.spec, p.formula));
    }
    let timing = v.field("timing_us")?;
    Ok(Reply {
        session_us: timing.field("session")?.u64()? as f64,
        ask_us: timing.field("ask")?.u64()? as f64,
    })
}

/// The `/stats` counters the guards and per-layer metrics read.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    bypass: u64,
    shed: u64,
    read_timeouts: u64,
    write_aborts: u64,
    socket_errors: u64,
    panics: u64,
    query_micros: u64,
    queries: u64,
}

impl Counters {
    fn read(handle: &ServerHandle) -> Result<Counters, String> {
        let v = Value::parse(&handle.stats_json())?;
        let e = v.field("engines")?;
        let r = v.field("requests")?;
        Ok(Counters {
            hits: e.field("hits")?.u64()?,
            misses: e.field("misses")?.u64()?,
            bypass: e.field("bypass")?.u64()?,
            shed: r.field("shed")?.u64()?,
            read_timeouts: r.field("read_timeouts")?.u64()?,
            write_aborts: r.field("write_aborts")?.u64()?,
            socket_errors: r.field("socket_errors")?.u64()?,
            panics: r.field("panics")?.u64()?,
            query_micros: v.field("query_micros_total")?.u64()?,
            queries: v.field("queries")?.u64()?,
        })
    }

    /// Field-wise `self + sign * o`.
    fn combine(self, o: Counters, sign: i8) -> Counters {
        let f = |a: u64, b: u64| if sign < 0 { a - b } else { a + b };
        Counters {
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            bypass: f(self.bypass, o.bypass),
            shed: f(self.shed, o.shed),
            read_timeouts: f(self.read_timeouts, o.read_timeouts),
            write_aborts: f(self.write_aborts, o.write_aborts),
            socket_errors: f(self.socket_errors, o.socket_errors),
            panics: f(self.panics, o.panics),
            query_micros: f(self.query_micros, o.query_micros),
            queries: f(self.queries, o.queries),
        }
    }
}

/// Client-side samples of one phase, over every slice of a run.
#[derive(Default)]
struct Phase {
    /// Each slice's client latencies (µs), and its length (s).
    latency: Vec<Vec<f64>>,
    secs: Vec<f64>,
    session_us: Vec<f64>,
    ask_us: Vec<f64>,
    response_bytes: Vec<f64>,
    delta: Counters,
}

impl Phase {
    fn pooled(&self) -> Vec<f64> {
        self.latency.concat()
    }

    /// Requests completed per second of the phase's slices.
    fn rate(&self) -> f64 {
        self.latency.iter().map(Vec::len).sum::<usize>() as f64
            / self.secs.iter().sum::<f64>().max(1e-9)
    }
}

/// Requests per client at the start of each slice left out of the
/// latency samples (they are still sent and checked).
const WARMUP_KEEPALIVE: usize = 2;
const WARMUP_FRESH: usize = 10;

/// An open keep-alive connection: write half and buffered read half.
type Conn = (TcpStream, BufReader<TcpStream>);

fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let writer = stream.try_clone()?;
    Ok((writer, BufReader::new(stream)))
}

/// One closed-loop client thread: draws pairs from its own seeded
/// stream until the phase budget (or its share of the request cap) is
/// spent.
#[allow(clippy::too_many_arguments)]
fn client(
    addr: SocketAddr,
    pairs: &[Pair],
    fresh: bool,
    budget: Duration,
    max_requests: usize,
    seed: u64,
    mut tracer: Option<Tracer>,
    op_base: u64,
) -> (Phase, Tally, Option<Tracer>) {
    let mut rng = Rng::new(seed);
    let mut out = Phase::default();
    let mut latency_us = Vec::new();
    let mut tally = Tally::default();
    let mut conn: Option<Conn> = None;
    let started = Instant::now();
    let mut op = op_base;
    while started.elapsed() < budget && (tally.attempted as usize) < max_requests {
        let p = &pairs[rng.below(pairs.len())];
        op += 1;
        tally.attempted += 1;
        let root = tracer.as_mut().map(|t| t.open(op, None, "serve.request"));
        let t0 = Instant::now();
        if fresh || conn.is_none() {
            let span = tracer.as_mut().map(|t| t.open(op, root, "serve.connect"));
            let c = connect(addr);
            if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
                t.close(s);
            }
            match c {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    tally.fail(format!("connect: {e}"));
                    continue;
                }
            }
        }
        let (writer, reader) = conn.as_mut().expect("connected above");
        let span = tracer.as_mut().map(|t| t.open(op, root, "serve.send"));
        let sent = send_request(writer, "POST", "/query", &p.body, !fresh);
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.close(s);
        }
        let span = tracer.as_mut().map(|t| t.open(op, root, "serve.wait"));
        let response = sent.and_then(|()| read_response(reader));
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.close(s);
        }
        let latency = t0.elapsed();
        if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
            t.close(r);
        }
        if fresh {
            conn = None;
        }
        let (status, _, body) = match response {
            Ok(r) => r,
            Err(e) => {
                conn = None;
                tally.fail(format!("request: {e}"));
                continue;
            }
        };
        match check_reply(p, status, &body, true) {
            Ok(reply) => {
                latency_us.push(latency.as_secs_f64() * 1e6);
                out.session_us.push(reply.session_us);
                out.ask_us.push(reply.ask_us);
                out.response_bytes.push(body.len() as f64);
            }
            Err(e) => {
                tally.fail(e);
                continue;
            }
        }
        if let Some(t) = tracer.as_mut() {
            replay(t, op, p);
        }
    }
    // The first requests of a slice follow an idle gap the interleaving
    // creates (and, on keep-alive, the connect): untimed warm-up.
    let warmup = if fresh {
        WARMUP_FRESH
    } else {
        WARMUP_KEEPALIVE
    };
    latency_us.drain(..warmup.min(latency_us.len()));
    out.latency.push(latency_us);
    (out, tally, tracer)
}

/// Replays the server's in-process work for one request body, each
/// step in its own span under a `serve.replica` root.
fn replay(t: &mut Tracer, op: u64, p: &Pair) {
    let replica = t.open(op, None, "serve.replica");
    let root = Some(replica);
    let (spec, formula) = t.span(op, root, "serve.json_parse", || {
        let v = Value::parse(&p.body).expect("request body is valid JSON");
        let spec = v.field("spec").and_then(Value::string).expect("spec");
        let formula = v.field("formula").and_then(Value::string).expect("formula");
        let minimize = v.opt_field("minimize").map(Value::boolean);
        std::hint::black_box(minimize);
        (spec, formula)
    });
    t.span(op, root, "engine.canonical_spec", || {
        std::hint::black_box(ScenarioRegistry::builtin().canonical_spec(&spec)).ok();
    });
    let query = t.span(op, root, "logic.query_parse", || {
        Query::parse(&formula).expect("pair formulas parse")
    });
    t.span(op, root, "serve.replica_ask", || {
        std::hint::black_box(p.session.ask(&query)).ok();
    });
    t.span(op, root, "engine.check_json", || {
        std::hint::black_box(p.session.check(&query).to_json());
    });
    t.close(replica);
}

/// Op ids carry the slice, the phase and the client, so spans of
/// different requests never share one.
fn op_base(slice: u64, fresh: bool, client: usize) -> u64 {
    slice << 32 | u64::from(fresh) << 31 | (client as u64) << 30
}

fn is_fresh(op: u64) -> bool {
    (op >> 31) & 1 == 1
}

/// Runs one phase: `CLIENTS` closed-loop threads against `handle`, with
/// the cache-regime guards checked over the phase's `/stats` delta.
#[allow(clippy::too_many_arguments)]
fn phase(
    handle: &ServerHandle,
    pairs: &[Pair],
    fresh: bool,
    budget: Duration,
    max_requests: usize,
    seed: u64,
    slice: u64,
    run: &mut Run,
    tally: &mut Tally,
) -> Result<(), String> {
    let before = Counters::read(handle)?;
    let addr = handle.addr();
    let epoch = run.tracer.as_ref().map(Tracer::epoch);
    let started = Instant::now();
    let results = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client_seed = seed ^ (0xC1_1E47 * (c as u64 + 1)) ^ u64::from(fresh);
                let tracer = epoch.map(Tracer::new);
                let ops = op_base(slice, fresh, c);
                let cap = max_requests / CLIENTS;
                scope.spawn(move || {
                    client(addr, pairs, fresh, budget, cap, client_seed, tracer, ops)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let out = if fresh {
        &mut run.fresh
    } else {
        &mut run.keepalive
    };
    let mut latency = Vec::new();
    for (p, t, tr) in results {
        latency.extend(p.latency.concat());
        out.session_us.extend(p.session_us);
        out.ask_us.extend(p.ask_us);
        out.response_bytes.extend(p.response_bytes);
        tally.merge(t);
        if let (Some(all), Some(tr)) = (run.tracer.as_mut(), tr) {
            all.absorb(tr);
        }
    }
    out.latency.push(latency);
    out.secs.push(started.elapsed().as_secs_f64());
    let d = Counters::read(handle)?.combine(before, -1);
    out.delta = out.delta.combine(d, 1);
    // Cache-regime guards, from the server's side: every timed request
    // must be an engine-cache hit, and none may be shed.
    for (what, n) in [
        ("engine-cache misses", d.misses),
        ("engine-cache bypasses", d.bypass),
        ("shed requests", d.shed),
    ] {
        if n > 0 {
            let phase = if fresh { "fresh" } else { "keepalive" };
            tally.fail(format!("{phase} phase: {n} {what}"));
        }
    }
    Ok(())
}

/// Samples of both phases, accumulated over every slice of a run.
pub struct Run {
    keepalive: Phase,
    fresh: Phase,
    tracer: Option<Tracer>,
    slices: u64,
}

impl Run {
    pub fn new(tracer: Option<Tracer>) -> Run {
        Run {
            keepalive: Phase::default(),
            fresh: Phase::default(),
            tracer,
            slices: 0,
        }
    }
}

/// A `keepalive` slice: each client keeps one connection for `budget`.
pub fn keepalive_slice(
    handle: &ServerHandle,
    pairs: &[Pair],
    budget: Duration,
    seed: u64,
    run: &mut Run,
    tally: &mut Tally,
) -> Result<(), String> {
    run.slices += 1;
    let (n, seed) = (run.slices, seed ^ run.slices.wrapping_mul(0x9E37_79B9));
    phase(
        handle,
        pairs,
        false,
        budget,
        usize::MAX,
        seed,
        n,
        run,
        tally,
    )
}

/// A `fresh` slice of `requests` requests, each on a new connection.
/// The time cap only bounds a stalled server.
pub fn fresh_slice(
    handle: &ServerHandle,
    pairs: &[Pair],
    requests: usize,
    seed: u64,
    run: &mut Run,
    tally: &mut Tally,
) -> Result<(), String> {
    run.slices += 1;
    let (n, seed) = (run.slices, seed ^ run.slices.wrapping_mul(0x9E37_79B9));
    let cap = Duration::from_secs(30);
    phase(handle, pairs, true, cap, requests, seed, n, run, tally)
}

impl Run {
    /// Keep-alive p50 (ms): the trace-overhead reference.
    pub fn headline(&self) -> f64 {
        median(&self.keepalive.pooled()) / 1e3
    }

    pub fn end_to_end(&self, m: &mut Metrics) {
        let keepalive = self.keepalive.pooled();
        m.push("keepalive_p50_ms", median(&keepalive) / 1e3, "ms");
        m.push("keepalive_p99_ms", quantile(&keepalive, 0.99) / 1e3, "ms");
        m.push("keepalive_qps", self.keepalive.rate(), "1/s");
        m.push("fresh_p50_ms", median(&self.fresh.pooled()) / 1e3, "ms");
        // Fresh slices are short bursts whose tails are set by thread
        // scheduling on two vCPUs: the typical slice's p99 is steady
        // where the pooled p99 is one burst's outlier.
        let p99s: Vec<f64> = self
            .fresh
            .latency
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| quantile(l, 0.99))
            .collect();
        m.push("fresh_p99_ms", median(&p99s) / 1e3, "ms");
    }

    pub fn per_layer(&self, m: &mut Metrics) {
        let t = self
            .tracer
            .as_ref()
            .expect("per-layer metrics need a traced run");
        let total = self.keepalive.delta.combine(self.fresh.delta, 1);
        let service_us = total.query_micros as f64 / total.queries.max(1) as f64;
        // Spans of each phase, split by the phase bit in the op id.
        let in_phase = |name: &str, fresh: bool| -> Vec<f64> {
            t.spans()
                .iter()
                .filter(|s| s.name == name && is_fresh(s.op) == fresh)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect()
        };
        m.push(
            "serve.connect_us",
            median(&in_phase("serve.connect", true)),
            "us",
        );
        m.push(
            "serve.send_us",
            median(&in_phase("serve.send", false)),
            "us",
        );
        m.push(
            "serve.wait_us",
            median(&in_phase("serve.wait", false)),
            "us",
        );
        m.push(
            "serve.fresh_wait_us",
            median(&in_phase("serve.wait", true)),
            "us",
        );
        m.push("serve.service_us", service_us, "us");
        let mut session = self.keepalive.session_us.clone();
        session.extend(&self.fresh.session_us);
        let mut ask = self.keepalive.ask_us.clone();
        ask.extend(&self.fresh.ask_us);
        m.push("serve.session_us", median(&session), "us");
        m.push("serve.ask_us", median(&ask), "us");
        m.push(
            "serve.wire_keepalive_us",
            median(&self.keepalive.pooled()) - service_us,
            "us",
        );
        m.push(
            "serve.wire_fresh_us",
            median(&self.fresh.pooled()) - service_us,
            "us",
        );
        for (metric, span) in [
            ("serve.json_parse_us", "serve.json_parse"),
            ("engine.canonical_spec_us", "engine.canonical_spec"),
            ("logic.query_parse_us", "logic.query_parse"),
            ("serve.replica_ask_us", "serve.replica_ask"),
            ("engine.check_json_us", "engine.check_json"),
        ] {
            m.push(metric, median(&t.self_us(span)), "us");
        }
        // Unattributed: the share of each request's client latency that
        // no in-process replica step accounts for.
        let request = t.per_op_us("serve.request");
        let mut replica = t.per_op_us("serve.replica");
        for (fresh, metric) in [
            (false, "serve.keepalive_unattributed_pct"),
            (true, "serve.fresh_unattributed_pct"),
        ] {
            let shares: Vec<f64> = request
                .iter()
                .filter(|(op, _)| is_fresh(**op) == fresh)
                .filter_map(|(op, lat)| {
                    replica
                        .remove(op)
                        .map(|r| 100.0 * (lat - r) / lat.max(1e-9))
                })
                .collect();
            m.push(metric, median(&shares), "%");
        }
        let lookups = total.hits + total.misses + total.bypass;
        m.push(
            "serve.engine_hit_ratio",
            total.hits as f64 / lookups.max(1) as f64,
            "ratio",
        );
        m.push("serve.shed", total.shed as f64, "count");
        m.push("serve.read_timeouts", total.read_timeouts as f64, "count");
        m.push("serve.write_aborts", total.write_aborts as f64, "count");
        m.push("serve.socket_errors", total.socket_errors as f64, "count");
        m.push("serve.panics", total.panics as f64, "count");
        let mut bytes = self.keepalive.response_bytes.clone();
        bytes.extend(&self.fresh.response_bytes);
        m.push("serve.response_bytes", mean(&bytes), "bytes");
    }

    pub fn into_tracer(self) -> Option<Tracer> {
        self.tracer
    }
}
