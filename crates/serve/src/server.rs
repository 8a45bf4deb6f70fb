//! The server proper: listener, admission gate, worker pool, routing,
//! graceful drain, and self-tests.
//!
//! # Overload behaviour
//!
//! Admission is bounded end to end. Accepted connections go through a
//! *bounded* queue ([`ServeConfig::queue_depth`]); the worker pool caps
//! requests actually in flight. When both are full the acceptor sheds
//! the connection immediately — `503` with a `Retry-After` estimated
//! from the backlog and the rolling mean query time — instead of
//! queueing without bound and timing everyone out. Each connection is
//! further deadline-bounded in both directions (see `http`): a request
//! that trickles in past [`ServeConfig::request_timeout`] gets `408`, a
//! response the peer stops reading past [`ServeConfig::write_timeout`]
//! is aborted. A spec whose requests keep panicking is quarantined by
//! the engine cache's circuit breaker and answers `503` for a cooldown.
//!
//! [`ServerHandle::shutdown`] drains: stop accepting, finish queued and
//! in-flight requests (keep-alive answers switch to
//! `Connection: close`), and join — for at most
//! [`ServeConfig::drain_timeout`], after which the remaining workers
//! are abandoned to wind down on their own and the [`DrainReport`] says
//! so.

use crate::cache::EngineCache;
use crate::http::{
    discard_arrived, discard_body, read_request, write_response, ReadOutcome, Request,
};
use crate::json::{esc, Value};
use crate::stats::{Observation, Stats};
use hm_engine::limits::Deadline;
use hm_engine::{Engine, EngineError, Limits, Query, ScenarioRegistry, Session, Verdict};
use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server is shaped: where to listen, how much to keep warm,
/// and where its overload limits sit.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port.
    pub addr: String,
    /// Worker threads answering requests (minimum 1). Also the cap on
    /// requests in flight: each worker owns one connection at a time.
    pub workers: usize,
    /// Engine-cache capacity: how many built sessions stay warm.
    pub engine_capacity: usize,
    /// Accepted connections waiting for a worker (minimum 1). Beyond
    /// this the acceptor sheds with `503` + `Retry-After`.
    pub queue_depth: usize,
    /// Wall-clock budget for one request to arrive, measured from its
    /// first byte (slowloris bound); past it the answer is `408`.
    pub request_timeout: Duration,
    /// Wall-clock budget for one response to drain to the peer; past it
    /// the write is aborted and the connection dropped.
    pub write_timeout: Duration,
    /// How long [`ServerHandle::shutdown`] waits for in-flight and
    /// queued requests before abandoning the remaining workers.
    pub drain_timeout: Duration,
    /// Consecutive contained panics that quarantine a spec (minimum 1).
    pub quarantine_threshold: u32,
    /// How long a quarantined spec answers `503` before one probe
    /// request is let through.
    pub quarantine_cooldown: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            engine_capacity: 8,
            queue_depth: 64,
            request_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(5),
            quarantine_threshold: 5,
            quarantine_cooldown: Duration::from_secs(30),
        }
    }
}

/// How long a worker waits on an idle keep-alive connection before
/// checking for shutdown.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Idle polls before a keep-alive connection is dropped (~30 s).
const IDLE_POLLS_MAX: u32 = 150;

/// Fallback mean query time for `Retry-After` before any query has
/// completed (100 ms — the order of a cold engine build).
const RETRY_AFTER_FALLBACK_MICROS: u64 = 100_000;

/// Window (seconds) of query history feeding the `Retry-After` estimate.
const RETRY_AFTER_WINDOW: u64 = 10;

/// Write budget for a shed response: the acceptor writes these itself
/// and must never be parked long by a slow victim.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Most request bytes the acceptor drops from a shed connection before
/// closing it: a full request head (8 KiB at most) and a small body.
const SHED_DISCARD_CAP: usize = 16 * 1024;

/// State shared by the acceptor and every worker.
struct ServerState {
    engines: EngineCache,
    stats: Stats,
    /// Graceful stop: no new connections, in-flight requests finish,
    /// keep-alive answers switch to `Connection: close`.
    stop: AtomicBool,
    /// Forced stop (drain deadline passed): workers exit at the next
    /// loop edge even with connections still queued.
    hard_stop: AtomicBool,
    /// Workers currently running (drain watches this reach zero).
    alive_workers: AtomicUsize,
    workers: usize,
    queue_depth: usize,
    request_timeout: Duration,
    write_timeout: Duration,
    drain_timeout: Duration,
    quarantine_cooldown: Duration,
}

/// A bound-but-not-yet-running server: the listener exists (so the
/// ephemeral port is known) but no thread has started.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener described by `config`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                engines: EngineCache::new(
                    config.engine_capacity,
                    config.quarantine_threshold,
                    config.quarantine_cooldown,
                ),
                stats: Stats::default(),
                stop: AtomicBool::new(false),
                hard_stop: AtomicBool::new(false),
                alive_workers: AtomicUsize::new(0),
                workers: config.workers.max(1),
                queue_depth: config.queue_depth.max(1),
                request_timeout: config.request_timeout,
                write_timeout: config.write_timeout,
                drain_timeout: config.drain_timeout,
                quarantine_cooldown: config.quarantine_cooldown,
            }),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the acceptor and worker threads and returns the handle
    /// that owns them.
    ///
    /// # Errors
    ///
    /// Propagates the address lookup failure (no thread is spawned).
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            mpsc::sync_channel(self.state.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(self.state.workers);
        for _ in 0..self.state.workers {
            let state = Arc::clone(&self.state);
            let rx = Arc::clone(&rx);
            state.alive_workers.fetch_add(1, Ordering::Relaxed);
            workers.push(std::thread::spawn(move || worker_loop(&state, &rx)));
        }
        let state = Arc::clone(&self.state);
        let listener = self.listener;
        let acceptor = std::thread::spawn(move || {
            // `tx` lives in this thread: when the acceptor exits, the
            // channel disconnects and drained workers shut down.
            for conn in listener.incoming() {
                if state.stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => shed(&state, stream),
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        });
        Ok(ServerHandle {
            addr,
            state: self.state,
            workers,
            acceptor: Some(acceptor),
        })
    }
}

/// Answers a connection the bounded queue has no room for: `503` with a
/// `Retry-After` estimating when the backlog will have cleared, written
/// by the acceptor itself under a short deadline so a slow victim can
/// not stall accepting.
fn shed(state: &ServerState, mut stream: TcpStream) {
    state.stats.shed.fetch_add(1, Ordering::Relaxed);
    state.stats.history.record(Observation::Shed);
    let secs = retry_after_secs(state);
    let body = error_body("shed", "server is saturated; retry later");
    let _ = write_response(
        &mut stream,
        503,
        &body,
        false,
        Some(secs),
        SHED_WRITE_TIMEOUT,
    );
    // Half-close, so the answer is followed by a FIN, then drop the part
    // of the request that has arrived: closing over unread bytes resets
    // the connection, and the reset can beat the 503 to the client.
    let _ = stream.shutdown(Shutdown::Write);
    discard_arrived(&mut stream, SHED_DISCARD_CAP);
}

/// `Retry-After` for shed connections: the full backlog (queue plus the
/// request being shed), spread over the workers, at the rolling mean
/// query service time — clamped to at least one second.
fn retry_after_secs(state: &ServerState) -> u64 {
    let mean = state
        .stats
        .history
        .mean_query_micros(RETRY_AFTER_WINDOW)
        .unwrap_or(RETRY_AFTER_FALLBACK_MICROS);
    let backlog = state.queue_depth as u64 + 1;
    let rounds = backlog.div_ceil(state.workers as u64).max(1);
    (rounds * mean).div_ceil(1_000_000).max(1)
}

/// What [`ServerHandle::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// `true` when every worker finished within the drain timeout.
    pub drained: bool,
    /// Workers abandoned at the deadline (zero on a clean drain). They
    /// observe the forced-stop flag at their next loop edge, but a
    /// worker deep in an unbounded engine build cannot be interrupted.
    pub forced_workers: usize,
    /// How long the drain phase took.
    pub waited: Duration,
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) signals both stop flags and detaches
/// the threads, which wind down on their own; only `shutdown` waits for
/// them.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server answers on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The current `/stats` document, without a request.
    #[must_use]
    pub fn stats_json(&self) -> String {
        stats_json(&self.state)
    }

    /// Stops accepting and drains: queued and in-flight requests finish
    /// (keep-alive answers carry `Connection: close`, idle connections
    /// are released within one poll interval), then every thread is
    /// joined — for at most the configured drain timeout. Workers still
    /// busy at the deadline are told to stop at their next loop edge
    /// and abandoned; the report says how many.
    pub fn shutdown(mut self) -> DrainReport {
        self.state.stop.store(true, Ordering::Relaxed);
        // Unblock the acceptor, which is parked in `accept`.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        let started = Instant::now();
        let deadline = Deadline::after(self.state.drain_timeout);
        let drained = loop {
            if self.state.alive_workers.load(Ordering::Relaxed) == 0 {
                break true;
            }
            if deadline.expired() {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut forced_workers = 0;
        if drained {
            for t in self.workers.drain(..) {
                let _ = t.join();
            }
        } else {
            self.state.hard_stop.store(true, Ordering::Relaxed);
            forced_workers = self.state.alive_workers.load(Ordering::Relaxed);
            // Dropping the handles detaches the stragglers.
            self.workers.clear();
        }
        DrainReport {
            drained,
            forced_workers,
            waited: started.elapsed(),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Nothing left to do after `shutdown` (it empties both fields).
        if self.acceptor.is_none() && self.workers.is_empty() {
            return;
        }
        self.state.stop.store(true, Ordering::Relaxed);
        self.state.hard_stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
    }
}

fn worker_loop(state: &ServerState, rx: &Mutex<Receiver<TcpStream>>) {
    // Decrements on every exit path so the drain can watch it.
    struct Alive<'a>(&'a AtomicUsize);
    impl Drop for Alive<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let _alive = Alive(&state.alive_workers);
    loop {
        if state.hard_stop.load(Ordering::Relaxed) {
            return;
        }
        let stream = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv_timeout(IDLE_POLL)
        };
        match stream {
            Ok(stream) => handle_connection(state, stream),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return, // shutting down
        }
    }
}

/// One routed answer: status, JSON body, and an optional `Retry-After`.
struct Answer {
    status: u16,
    body: String,
    retry_after: Option<u64>,
}

impl Answer {
    fn plain(status: u16, body: String) -> Answer {
        Answer {
            status,
            body,
            retry_after: None,
        }
    }
}

fn handle_connection(state: &ServerState, stream: TcpStream) {
    // A socket that cannot be configured or cloned is dropped and
    // counted, not silently half-served with no timeout protection.
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        state.stats.socket_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        state.stats.socket_errors.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let mut idle_polls = 0u32;
    loop {
        match read_request(&mut reader, state.request_timeout) {
            ReadOutcome::Idle => {
                idle_polls += 1;
                if state.stop.load(Ordering::Relaxed)
                    || state.hard_stop.load(Ordering::Relaxed)
                    || idle_polls > IDLE_POLLS_MAX
                {
                    return;
                }
            }
            ReadOutcome::Closed => return,
            ReadOutcome::TooLarge {
                status,
                message,
                unread,
                deadline,
            } => {
                finish_write(state, &mut stream, status, &error_body("request", &message));
                // Half-close, then drain the unread upload, so closing
                // does not reset the connection under the unread answer.
                let _ = stream.shutdown(Shutdown::Write);
                discard_body(&mut reader, unread, deadline);
                return;
            }
            ReadOutcome::TimedOut => {
                state.stats.read_timeouts.fetch_add(1, Ordering::Relaxed);
                let body = error_body(
                    "timeout",
                    "request did not complete within the request deadline",
                );
                finish_write(state, &mut stream, 408, &body);
                return;
            }
            ReadOutcome::Malformed(msg) => {
                let body = error_body("request", &msg);
                finish_write(state, &mut stream, 400, &body);
                return;
            }
            ReadOutcome::Request(req) => {
                idle_polls = 0;
                state.stats.in_flight.fetch_add(1, Ordering::Relaxed);
                // Contain panics — including failpoint-injected ones —
                // to the request: the worker answers 500 and lives on.
                let result = catch_unwind(AssertUnwindSafe(|| route(state, &req)));
                state.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
                let answer = result.unwrap_or_else(|_| {
                    state.stats.panics.fetch_add(1, Ordering::Relaxed);
                    Answer::plain(500, error_body("panic", "request handler panicked"))
                });
                let keep_alive = req.keep_alive
                    && !state.stop.load(Ordering::Relaxed)
                    && !state.hard_stop.load(Ordering::Relaxed);
                match write_response(
                    &mut stream,
                    answer.status,
                    &answer.body,
                    keep_alive,
                    answer.retry_after,
                    state.write_timeout,
                ) {
                    Ok(()) if keep_alive => {}
                    Ok(()) => return,
                    Err(e) => {
                        if e.kind() == io::ErrorKind::TimedOut {
                            state.stats.write_aborts.fetch_add(1, Ordering::Relaxed);
                        }
                        return;
                    }
                }
            }
        }
    }
}

/// Writes a terminal error response, counting a stalled-reader abort.
fn finish_write(state: &ServerState, stream: &mut TcpStream, status: u16, body: &str) {
    if let Err(e) = write_response(stream, status, body, false, None, state.write_timeout) {
        if e.kind() == io::ErrorKind::TimedOut {
            state.stats.write_aborts.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// How a `/query` answer should be counted.
enum QueryOutcome {
    Ok,
    ClientError,
    Limit,
    Quarantined,
    Panicked,
}

fn route(state: &ServerState, req: &Request) -> Answer {
    let (path, query_string) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            state.stats.healthz.fetch_add(1, Ordering::Relaxed);
            Answer::plain(200, "{\"ok\":true}".to_string())
        }
        ("GET", "/stats") => {
            state.stats.stats.fetch_add(1, Ordering::Relaxed);
            match query_string.map(parse_window).unwrap_or(Ok(None)) {
                Ok(Some(window)) => Answer::plain(200, state.stats.history.window_json(window)),
                Ok(None) => Answer::plain(200, stats_json(state)),
                Err(msg) => Answer::plain(400, error_body("request", &msg)),
            }
        }
        ("POST", "/query") => {
            let started = Instant::now();
            let (answer, outcome) = answer_query(state, &req.body);
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            state
                .stats
                .query_micros
                .fetch_add(micros, Ordering::Relaxed);
            match outcome {
                QueryOutcome::Ok => {
                    state.stats.query_ok.fetch_add(1, Ordering::Relaxed);
                    state.stats.history.record(Observation::Ok(micros));
                }
                QueryOutcome::ClientError => {
                    state
                        .stats
                        .query_client_error
                        .fetch_add(1, Ordering::Relaxed);
                    state.stats.history.record(Observation::ClientError(micros));
                }
                QueryOutcome::Limit => {
                    state.stats.query_limit.fetch_add(1, Ordering::Relaxed);
                    state.stats.history.record(Observation::Limit(micros));
                }
                QueryOutcome::Quarantined => {
                    state.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                }
                QueryOutcome::Panicked => {
                    state.stats.panics.fetch_add(1, Ordering::Relaxed);
                }
            }
            answer
        }
        ("GET" | "POST", _) => {
            state.stats.not_found.fetch_add(1, Ordering::Relaxed);
            Answer::plain(
                404,
                error_body("not-found", &format!("no route `{}`", req.path)),
            )
        }
        _ => {
            state.stats.not_found.fetch_add(1, Ordering::Relaxed);
            Answer::plain(
                405,
                error_body("method", &format!("method `{}` not allowed", req.method)),
            )
        }
    }
}

/// Parses a `/stats` query string: `window=60s` (or bare `60`) selects
/// the history window; no `window` key means the full document.
fn parse_window(query: &str) -> Result<Option<u64>, String> {
    for pair in query.split('&') {
        if let Some(value) = pair.strip_prefix("window=") {
            let digits = value.strip_suffix('s').unwrap_or(value);
            return match digits.parse::<u64>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(format!("bad window `{value}` (want e.g. `60s`)")),
            };
        }
    }
    Ok(None)
}

fn stats_json(state: &ServerState) -> String {
    state.stats.to_json(
        state.engines.len(),
        state.engines.capacity(),
        state.engines.evictions(),
        state.engines.quarantined_specs(),
        state.engines.formula_counts(),
    )
}

/// The parsed, validated body of a `/query` request.
struct QueryRequest {
    spec: String,
    formula: String,
    horizon: Option<u64>,
    minimize: bool,
    limits: Option<Limits>,
}

fn parse_query_request(body: &str) -> Result<QueryRequest, String> {
    let v = Value::parse(body)?;
    let spec = v.field("spec")?.string()?;
    let formula = v.field("formula")?.string()?;
    let horizon = v.opt_field("horizon").map(Value::u64).transpose()?;
    let minimize = v
        .opt_field("minimize")
        .map(Value::boolean)
        .transpose()?
        .unwrap_or(false);
    let limits = match v.opt_field("limits") {
        None => None,
        Some(lv) => {
            let mut limits = Limits::none();
            if let Some(n) = lv.opt_field("max_runs").map(Value::u64).transpose()? {
                limits = limits.max_runs(n);
            }
            if let Some(n) = lv.opt_field("max_worlds").map(Value::u64).transpose()? {
                limits = limits.max_worlds(n);
            }
            if let Some(n) = lv
                .opt_field("max_states_visited")
                .map(Value::u64)
                .transpose()?
            {
                limits = limits.max_states_visited(n);
            }
            if let Some(ms) = lv.opt_field("timeout_ms").map(Value::u64).transpose()? {
                limits = limits.timeout(Duration::from_millis(ms));
            }
            if limits.is_unlimited() {
                None
            } else {
                Some(limits)
            }
        }
    };
    Ok(QueryRequest {
        spec,
        formula,
        horizon,
        minimize,
        limits,
    })
}

fn answer_query(state: &ServerState, body: &str) -> (Answer, QueryOutcome) {
    let req = match parse_query_request(body) {
        Ok(req) => req,
        Err(msg) => {
            return (
                Answer::plain(400, error_body("request", &msg)),
                QueryOutcome::ClientError,
            )
        }
    };
    // Normalise the spec (sort parameters, fill defaults) so the cache
    // key is stable across equivalent spellings; rejects unknown
    // scenarios and out-of-range parameters before any engine work.
    let canonical = match ScenarioRegistry::shared().canonical_spec(&req.spec) {
        Ok(c) => c,
        Err(e) => {
            return (
                Answer::plain(400, error_body("spec", &e.to_string())),
                QueryOutcome::ClientError,
            )
        }
    };
    // The circuit breaker: a spec that keeps panicking workers answers
    // 503 for the cooldown instead of burning a worker per request.
    if state.engines.is_quarantined(&canonical) {
        let answer = Answer {
            status: 503,
            body: error_body(
                "quarantined",
                &format!("spec `{canonical}` is quarantined after repeated worker panics"),
            ),
            retry_after: Some(state.quarantine_cooldown.as_secs().max(1)),
        };
        return (answer, QueryOutcome::Quarantined);
    }
    // Panics from here on are charged to this spec's breaker: the
    // engine work (build + ask) is what failpoints and scenario bugs
    // can blow up, and the spec is the natural quarantine key.
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        answer_query_engine(state, &req, &canonical)
    }));
    match attempt {
        Ok((answer, outcome)) => {
            state.engines.note_ok(&canonical);
            (answer, outcome)
        }
        Err(_) => {
            state.engines.note_panic(&canonical);
            (
                Answer::plain(500, error_body("panic", "request handler panicked")),
                QueryOutcome::Panicked,
            )
        }
    }
}

/// The engine half of a query: build (or fetch) the session and ask.
/// Runs under the per-spec panic containment in [`answer_query`].
fn answer_query_engine(
    state: &ServerState,
    req: &QueryRequest,
    canonical: &str,
) -> (Answer, QueryOutcome) {
    let query = match Query::parse(&req.formula) {
        Ok(q) => q,
        Err(e) => return engine_error_answer(&e),
    };

    let build = |limits: Option<Limits>| -> Result<Session, EngineError> {
        let mut engine = Engine::for_scenario(canonical);
        if let Some(h) = req.horizon {
            engine = engine.horizon(h);
        }
        if let Some(l) = limits {
            engine = engine.limits(l);
        }
        engine.minimize(req.minimize).build()
    };

    let build_started = Instant::now();
    let (session, cache_state) = if let Some(limits) = req.limits.clone() {
        // A budget is anchored at build time and spent over the
        // session's whole life, so limited sessions are never shared:
        // build fresh, use once, drop.
        state.stats.engine_bypass.fetch_add(1, Ordering::Relaxed);
        match build(Some(limits)) {
            Ok(s) => (Arc::new(s), "bypass"),
            Err(e) => return engine_error_answer(&e),
        }
    } else {
        let key = format!(
            "{canonical}|horizon={:?}|minimize={}",
            req.horizon, req.minimize
        );
        match state.engines.get_or_build(&key, || build(None)) {
            Ok((s, true)) => {
                state.stats.engine_hits.fetch_add(1, Ordering::Relaxed);
                (s, "hit")
            }
            Ok((s, false)) => {
                state.stats.engine_misses.fetch_add(1, Ordering::Relaxed);
                (s, "miss")
            }
            Err(e) => return engine_error_answer(&e),
        }
    };
    let build_micros = u64::try_from(build_started.elapsed().as_micros()).unwrap_or(u64::MAX);

    let ask_started = Instant::now();
    let verdict = match session.ask(&query) {
        Ok(v) => v,
        Err(e) => return engine_error_answer(&e),
    };
    let ask_micros = u64::try_from(ask_started.elapsed().as_micros()).unwrap_or(u64::MAX);
    let diagnostics = session.check(&query);

    let mut out = String::new();
    out.push_str("{\"spec\":");
    esc(&mut out, canonical);
    out.push_str(",\"formula\":");
    esc(&mut out, &query.to_string());
    let _ = write!(out, ",\"verdict\":{}", verdict_json(&verdict, &session));
    let _ = write!(out, ",\"diagnostics\":{}", diagnostics.to_json());
    let _ = write!(
        out,
        ",\"engine_cache\":\"{cache_state}\",\
         \"timing_us\":{{\"session\":{build_micros},\"ask\":{ask_micros}}}}}"
    );
    (Answer::plain(200, out), QueryOutcome::Ok)
}

fn verdict_json(verdict: &Verdict, session: &Session) -> String {
    format!(
        "{{\"count\":{},\"worlds\":{},\"valid\":{},\"empty\":{}}}",
        verdict.count(),
        session.num_worlds(),
        verdict.is_valid(),
        verdict.is_empty(),
    )
}

/// `{"error":{"kind":…,"message":…}}`.
fn error_body(kind: &str, message: &str) -> String {
    let mut out = String::from("{\"error\":{\"kind\":");
    esc(&mut out, kind);
    out.push_str(",\"message\":");
    esc(&mut out, message);
    out.push_str("}}");
    out
}

/// Maps an [`EngineError`] to an answer: resource exhaustion is the
/// server's fault under load (`503`), everything else is the
/// request's (`400`).
fn engine_error_answer(e: &EngineError) -> (Answer, QueryOutcome) {
    if let Some(l) = e.limit() {
        let mut out = String::from("{\"error\":{\"kind\":\"limit\",\"resource\":");
        esc(&mut out, &l.resource.to_string());
        out.push_str(",\"phase\":");
        esc(&mut out, &l.phase.to_string());
        let _ = write!(out, ",\"spent\":{},\"limit\":{},", l.spent, l.limit);
        out.push_str("\"message\":");
        esc(&mut out, &e.to_string());
        out.push_str("}}");
        return (Answer::plain(503, out), QueryOutcome::Limit);
    }
    let kind = match e {
        EngineError::Spec(_) => "spec",
        EngineError::Parse(_) => "parse",
        EngineError::Eval(_) => "eval",
        EngineError::Enumerate(_) => "enumerate",
        EngineError::NoRunStructure => "no-run-structure",
        EngineError::PartialFrame => "partial-frame",
        EngineError::LimitExceeded(_) => unreachable!("limit() above matched"),
    };
    (
        Answer::plain(400, error_body(kind, &e.to_string())),
        QueryOutcome::ClientError,
    )
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

/// Starts a server on an ephemeral port and drives it through the whole
/// contract from the outside: health, a good query (cold then warm), a
/// malformed body, an unknown scenario, a limit-exhausted query, an
/// unknown route, and a small concurrent burst. Returns a human-readable
/// report on success.
///
/// # Errors
///
/// The first failed expectation, described.
pub fn selftest(workers: usize) -> Result<String, String> {
    let io_err = |e: io::Error| format!("io: {e}");
    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let server = Server::bind(&config).map_err(io_err)?;
    let handle = server.start().map_err(io_err)?;
    let addr = handle.addr();
    let mut report = format!("selftest against {addr} ({workers} workers)\n");

    let result = (|| -> Result<(), String> {
        let (status, body) = crate::http::http_call(addr, "GET", "/healthz", "").map_err(io_err)?;
        expect(status, 200, "healthz", &body)?;
        report.push_str("  healthz            200\n");

        let good = r#"{"spec":"generals","formula":"K1 dispatched & !K0 K1 dispatched"}"#;
        let (status, body) =
            crate::http::http_call(addr, "POST", "/query", good).map_err(io_err)?;
        expect(status, 200, "good query", &body)?;
        if !body.contains("\"engine_cache\":\"miss\"") {
            return Err(format!("first query should miss the cache: {body}"));
        }
        let (status, body) =
            crate::http::http_call(addr, "POST", "/query", good).map_err(io_err)?;
        expect(status, 200, "warm query", &body)?;
        if !body.contains("\"engine_cache\":\"hit\"") {
            return Err(format!("second query should hit the cache: {body}"));
        }
        report.push_str("  query cold/warm    200 miss, 200 hit\n");

        let (status, body) =
            crate::http::http_call(addr, "POST", "/query", "{not json").map_err(io_err)?;
        expect(status, 400, "malformed body", &body)?;
        let (status, body) = crate::http::http_call(
            addr,
            "POST",
            "/query",
            r#"{"spec":"no-such-scenario","formula":"true"}"#,
        )
        .map_err(io_err)?;
        expect(status, 400, "unknown scenario", &body)?;
        report.push_str("  malformed/unknown  400, 400\n");

        let limited = r#"{"spec":"generals:horizon=8","formula":"C{0,1} dispatched","limits":{"max_runs":2}}"#;
        let (status, body) =
            crate::http::http_call(addr, "POST", "/query", limited).map_err(io_err)?;
        expect(status, 503, "limit exhaustion", &body)?;
        if !body.contains("\"kind\":\"limit\"") {
            return Err(format!("limit error should be structured: {body}"));
        }
        report.push_str("  limit exhausted    503 structured\n");

        let (status, body) = crate::http::http_call(addr, "GET", "/nope", "").map_err(io_err)?;
        expect(status, 404, "unknown route", &body)?;

        // A small concurrent burst over one cached engine.
        let burst_threads = 4;
        let burst_each = 8;
        let mut joins = Vec::new();
        for _ in 0..burst_threads {
            joins.push(std::thread::spawn(move || -> Result<(), String> {
                for _ in 0..burst_each {
                    let (status, body) = crate::http::http_call(
                        addr,
                        "POST",
                        "/query",
                        r#"{"spec":"generals","formula":"K1 dispatched"}"#,
                    )
                    .map_err(|e| format!("io: {e}"))?;
                    expect(status, 200, "burst query", &body)?;
                }
                Ok(())
            }));
        }
        for j in joins {
            j.join()
                .map_err(|_| "burst thread panicked".to_string())??;
        }
        report.push_str(&format!(
            "  burst              {} queries over {burst_threads} connections\n",
            burst_threads * burst_each
        ));

        let (status, stats) = crate::http::http_call(addr, "GET", "/stats", "").map_err(io_err)?;
        expect(status, 200, "stats", &stats)?;
        Value::parse(&stats).map_err(|e| format!("stats is not valid JSON ({e}): {stats}"))?;
        report.push_str("  stats              200 valid JSON\n");

        let (status, windowed) =
            crate::http::http_call(addr, "GET", "/stats?window=60s", "").map_err(io_err)?;
        expect(status, 200, "stats window", &windowed)?;
        let v = Value::parse(&windowed)
            .map_err(|e| format!("windowed stats is not valid JSON ({e}): {windowed}"))?;
        if v.field("window_s").and_then(|w| w.u64()) != Ok(60) {
            return Err(format!("windowed stats should echo the window: {windowed}"));
        }
        report.push_str("  stats?window=60s   200 valid JSON\n");
        Ok(())
    })();
    let drain = handle.shutdown();
    result?;
    if !drain.drained {
        return Err(format!(
            "shutdown failed to drain: {} workers abandoned",
            drain.forced_workers
        ));
    }
    report.push_str("  shutdown           drained clean\nok\n");
    Ok(report)
}

/// Deterministically overloads a small server and checks the shed path:
/// every worker is parked on a live keep-alive connection, the bounded
/// queue is filled with idle connections, and further requests must be
/// shed with `503` + `Retry-After` — immediately, never by hanging.
/// Finishes with a drained shutdown. Returns a report on success.
///
/// # Errors
///
/// The first failed expectation, described.
pub fn overload_smoke() -> Result<String, String> {
    let io_err = |e: io::Error| format!("io: {e}");
    let config = ServeConfig {
        workers: 2,
        queue_depth: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind(&config).map_err(io_err)?;
    let handle = server.start().map_err(io_err)?;
    let addr = handle.addr();
    let mut report = format!("overload smoke against {addr} (2 workers, queue depth 2)\n");

    let result = (|| -> Result<(), String> {
        // Park every worker on a keep-alive connection: one answered
        // request proves the worker owns the socket, then it idles.
        let mut parked = Vec::new();
        for _ in 0..config.workers {
            let stream = TcpStream::connect(addr).map_err(io_err)?;
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .map_err(io_err)?;
            let mut writer = stream.try_clone().map_err(io_err)?;
            crate::http::send_request(&mut writer, "GET", "/healthz", "", true).map_err(io_err)?;
            let mut reader = BufReader::new(stream);
            let (status, _, body) = crate::http::read_response(&mut reader).map_err(io_err)?;
            expect(status, 200, "park request", &body)?;
            parked.push((reader, writer));
        }
        report.push_str("  workers parked     2 keep-alive connections\n");

        // Fill the bounded queue with connections that never speak.
        let fillers: Vec<TcpStream> = (0..config.queue_depth)
            .map(|_| TcpStream::connect(addr))
            .collect::<io::Result<_>>()
            .map_err(io_err)?;
        // Let the acceptor move both into the queue.
        std::thread::sleep(Duration::from_millis(150));
        report.push_str("  queue filled       2 idle connections\n");

        // Everything beyond workers + queue must shed, fast.
        let shed_attempts = 4;
        for i in 0..shed_attempts {
            let started = Instant::now();
            let (status, headers, body) =
                crate::http::http_call_headers(addr, "GET", "/healthz", "").map_err(io_err)?;
            expect(status, 503, "shed connection", &body)?;
            if !body.contains("\"kind\":\"shed\"") {
                return Err(format!("shed answer should be structured: {body}"));
            }
            let retry = headers
                .iter()
                .find(|(name, _)| name == "retry-after")
                .ok_or_else(|| format!("shed answer missing retry-after: {headers:?}"))?;
            if !retry.1.parse::<u64>().is_ok_and(|secs| secs > 0) {
                return Err(format!(
                    "retry-after should be a positive integer: {retry:?}"
                ));
            }
            if started.elapsed() > Duration::from_secs(5) {
                return Err(format!(
                    "shed {i} took {:?} — it must be immediate",
                    started.elapsed()
                ));
            }
        }
        report.push_str(&format!(
            "  shed               {shed_attempts} connections got 503 + retry-after\n"
        ));

        // Release everything; workers free up and normal service resumes.
        drop(parked);
        drop(fillers);
        std::thread::sleep(Duration::from_millis(150));
        let (status, stats) = crate::http::http_call(addr, "GET", "/stats", "").map_err(io_err)?;
        expect(status, 200, "stats after overload", &stats)?;
        let v = Value::parse(&stats).map_err(|e| format!("stats is not valid JSON ({e})"))?;
        let shed = v
            .field("requests")
            .and_then(|r| r.field("shed").map(Value::u64))
            .and_then(|n| n)
            .map_err(|e| format!("stats missing requests.shed ({e}): {stats}"))?;
        if shed < shed_attempts {
            return Err(format!("expected ≥{shed_attempts} shed, stats says {shed}"));
        }
        report.push_str(&format!("  stats              shed={shed} recorded\n"));
        Ok(())
    })();
    let drain = handle.shutdown();
    result?;
    if !drain.drained {
        return Err(format!(
            "shutdown failed to drain: {} workers abandoned",
            drain.forced_workers
        ));
    }
    report.push_str("  shutdown           drained clean\nok\n");
    Ok(report)
}

fn expect(got: u16, want: u16, what: &str, body: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: expected {want}, got {got}: {body}"))
    }
}
