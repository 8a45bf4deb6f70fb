//! Service counters behind `/stats`, plus a small per-second history
//! ring so load can be observed over a window (`/stats?window=60s`).
//!
//! All counters are relaxed atomics: they are monotone telemetry, read
//! at a single point in time by the stats endpoint, and never used for
//! control flow — exact cross-counter consistency is not required. The
//! history ring tolerates the same slack: a slot being reset while
//! another thread records into it can lose a tick of telemetry, never
//! corrupt control flow.

use crate::cache::FormulaCounts;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Seconds of history the ring retains; `window=` requests are clamped
/// to this.
pub(crate) const HISTORY_SECONDS: u64 = 120;

/// What a completed `/query` (or a shed connection) is recorded as.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Observation {
    /// `/query` answered 200, with its service time.
    Ok(u64),
    /// `/query` answered 400, with its service time.
    ClientError(u64),
    /// `/query` answered 503 for an exhausted resource limit.
    Limit(u64),
    /// A connection shed at the accept gate (503 + `Retry-After`).
    Shed,
}

/// One second of history.
#[derive(Debug, Default)]
struct Slot {
    /// The second this slot currently holds, offset by one so zero
    /// means "never written". Stale slots are reset on first touch of a
    /// new second.
    sec_plus_one: AtomicU64,
    ok: AtomicU64,
    client_error: AtomicU64,
    limit: AtomicU64,
    shed: AtomicU64,
    query_micros: AtomicU64,
}

impl Slot {
    fn reset(&self) {
        self.ok.store(0, Ordering::Relaxed);
        self.client_error.store(0, Ordering::Relaxed);
        self.limit.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
        self.query_micros.store(0, Ordering::Relaxed);
    }
}

/// A fixed ring of per-second buckets covering the last
/// [`HISTORY_SECONDS`] seconds.
#[derive(Debug)]
pub(crate) struct History {
    started: Instant,
    slots: Vec<Slot>,
}

impl Default for History {
    fn default() -> Self {
        History {
            started: Instant::now(),
            slots: (0..HISTORY_SECONDS).map(|_| Slot::default()).collect(),
        }
    }
}

impl History {
    /// Seconds since the server started (the ring's clock).
    fn now_sec(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The live slot for second `sec`, reset if it still holds an older
    /// second. The reset races benignly with concurrent recorders.
    fn slot(&self, sec: u64) -> &Slot {
        let slot = &self.slots[(sec % HISTORY_SECONDS) as usize];
        if slot.sec_plus_one.swap(sec + 1, Ordering::Relaxed) != sec + 1 {
            slot.reset();
        }
        slot
    }

    /// Records one observation into the current second.
    pub(crate) fn record(&self, obs: Observation) {
        let slot = self.slot(self.now_sec());
        match obs {
            Observation::Ok(us) => {
                slot.ok.fetch_add(1, Ordering::Relaxed);
                slot.query_micros.fetch_add(us, Ordering::Relaxed);
            }
            Observation::ClientError(us) => {
                slot.client_error.fetch_add(1, Ordering::Relaxed);
                slot.query_micros.fetch_add(us, Ordering::Relaxed);
            }
            Observation::Limit(us) => {
                slot.limit.fetch_add(1, Ordering::Relaxed);
                slot.query_micros.fetch_add(us, Ordering::Relaxed);
            }
            Observation::Shed => {
                slot.shed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Mean `/query` service time over the last `window` seconds, if
    /// any query completed in it. Feeds the shed path's `Retry-After`.
    pub(crate) fn mean_query_micros(&self, window: u64) -> Option<u64> {
        let (mut queries, mut micros) = (0u64, 0u64);
        let now = self.now_sec();
        for back in 0..window.min(HISTORY_SECONDS) {
            let Some(sec) = now.checked_sub(back) else {
                break;
            };
            let slot = &self.slots[(sec % HISTORY_SECONDS) as usize];
            if slot.sec_plus_one.load(Ordering::Relaxed) != sec + 1 {
                continue;
            }
            queries += slot.ok.load(Ordering::Relaxed)
                + slot.client_error.load(Ordering::Relaxed)
                + slot.limit.load(Ordering::Relaxed);
            micros += slot.query_micros.load(Ordering::Relaxed);
        }
        (queries > 0).then(|| micros / queries)
    }

    /// Renders the last `window` seconds as one JSON object: aggregate
    /// counters plus a `samples` array of the non-empty seconds (oldest
    /// first, each tagged with its age in seconds).
    pub(crate) fn window_json(&self, window: u64) -> String {
        let window = window.clamp(1, HISTORY_SECONDS);
        let now = self.now_sec();
        let (mut ok, mut client_error, mut limit, mut shed, mut micros) = (0, 0, 0, 0, 0u64);
        let mut samples = String::new();
        for back in (0..window).rev() {
            let Some(sec) = now.checked_sub(back) else {
                continue;
            };
            let slot = &self.slots[(sec % HISTORY_SECONDS) as usize];
            if slot.sec_plus_one.load(Ordering::Relaxed) != sec + 1 {
                continue;
            }
            let (o, c, l, s, us) = (
                slot.ok.load(Ordering::Relaxed),
                slot.client_error.load(Ordering::Relaxed),
                slot.limit.load(Ordering::Relaxed),
                slot.shed.load(Ordering::Relaxed),
                slot.query_micros.load(Ordering::Relaxed),
            );
            if o + c + l + s == 0 {
                continue;
            }
            ok += o;
            client_error += c;
            limit += l;
            shed += s;
            micros += us;
            if !samples.is_empty() {
                samples.push(',');
            }
            let _ = write!(
                samples,
                "{{\"ago_s\":{back},\"ok\":{o},\"client_error\":{c},\
                 \"limit\":{l},\"shed\":{s},\"query_micros\":{us}}}"
            );
        }
        format!(
            "{{\"window_s\":{window},\"ok\":{ok},\"client_error\":{client_error},\
             \"limit\":{limit},\"shed\":{shed},\"query_micros\":{micros},\
             \"samples\":[{samples}]}}"
        )
    }
}

/// Counter block shared by every worker.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    /// Engine-cache hits (`/query` served from a cached session).
    pub engine_hits: AtomicU64,
    /// Engine-cache misses (a session was built and cached).
    pub engine_misses: AtomicU64,
    /// Requests that bypassed the cache because they carried limits.
    pub engine_bypass: AtomicU64,
    /// Requests currently being handled (gauge).
    pub in_flight: AtomicU64,
    /// `GET /healthz` hits.
    pub healthz: AtomicU64,
    /// `GET /stats` hits.
    pub stats: AtomicU64,
    /// `/query` answered 200.
    pub query_ok: AtomicU64,
    /// `/query` answered 400 (malformed request, spec/parse/eval error).
    pub query_client_error: AtomicU64,
    /// `/query` answered 503 (resource limit exhausted).
    pub query_limit: AtomicU64,
    /// Requests answered 500 after a contained worker panic.
    pub panics: AtomicU64,
    /// Requests for unknown paths or unsupported methods.
    pub not_found: AtomicU64,
    /// Connections shed at the accept gate (503 + `Retry-After`).
    pub shed: AtomicU64,
    /// `/query` answered 503 because the spec is quarantined.
    pub quarantined: AtomicU64,
    /// Requests answered 408 (header/body trickle past the deadline).
    pub read_timeouts: AtomicU64,
    /// Responses aborted because the peer stopped reading past the
    /// write deadline.
    pub write_aborts: AtomicU64,
    /// Connections dropped for socket configuration/clone failures.
    pub socket_errors: AtomicU64,
    /// Total microseconds spent answering `/query` (all verdicts).
    pub query_micros: AtomicU64,
    /// Per-second history ring behind `/stats?window=..`.
    pub history: History,
}

impl Stats {
    /// Renders every counter plus the cache shape as one JSON object.
    pub(crate) fn to_json(
        &self,
        engines: usize,
        capacity: usize,
        evictions: u64,
        quarantined_specs: usize,
        formulas: FormulaCounts,
    ) -> String {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let queries = g(&self.query_ok) + g(&self.query_client_error) + g(&self.query_limit);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"engines\":{{\"cached\":{engines},\"capacity\":{capacity},\
             \"hits\":{},\"misses\":{},\"bypass\":{},\"evictions\":{evictions},\
             \"quarantined_specs\":{quarantined_specs},\
             \"formulas_cached\":{},\"formula_evictions\":{}}},",
            g(&self.engine_hits),
            g(&self.engine_misses),
            g(&self.engine_bypass),
            formulas.cached,
            formulas.evictions,
        );
        let _ = write!(
            out,
            "\"requests\":{{\"healthz\":{},\"stats\":{},\"query_ok\":{},\
             \"query_client_error\":{},\"query_limit\":{},\"panics\":{},\
             \"not_found\":{},\"shed\":{},\"quarantined\":{},\
             \"read_timeouts\":{},\"write_aborts\":{},\"socket_errors\":{}}},",
            g(&self.healthz),
            g(&self.stats),
            g(&self.query_ok),
            g(&self.query_client_error),
            g(&self.query_limit),
            g(&self.panics),
            g(&self.not_found),
            g(&self.shed),
            g(&self.quarantined),
            g(&self.read_timeouts),
            g(&self.write_aborts),
            g(&self.socket_errors),
        );
        let _ = write!(
            out,
            "\"in_flight\":{},\"query_micros_total\":{},\"queries\":{queries}}}",
            g(&self.in_flight),
            g(&self.query_micros),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_is_well_formed() {
        let s = Stats::default();
        s.engine_hits.store(3, Ordering::Relaxed);
        s.query_ok.store(2, Ordering::Relaxed);
        s.query_limit.store(1, Ordering::Relaxed);
        s.shed.store(4, Ordering::Relaxed);
        let formulas = FormulaCounts {
            cached: 5,
            evictions: 7,
        };
        let json = s.to_json(2, 8, 1, 0, formulas);
        let v = crate::json::Value::parse(&json).unwrap();
        assert_eq!(
            v.field("engines").unwrap().field("hits").unwrap().u64(),
            Ok(3)
        );
        assert_eq!(
            v.field("engines").unwrap().field("capacity").unwrap().u64(),
            Ok(8)
        );
        let engines = v.field("engines").unwrap();
        assert_eq!(engines.field("formulas_cached").unwrap().u64(), Ok(5));
        assert_eq!(engines.field("formula_evictions").unwrap().u64(), Ok(7));
        assert_eq!(v.field("queries").unwrap().u64(), Ok(3));
        let requests = v.field("requests").unwrap();
        assert_eq!(requests.field("query_limit").unwrap().u64(), Ok(1));
        assert_eq!(requests.field("shed").unwrap().u64(), Ok(4));
        assert_eq!(requests.field("read_timeouts").unwrap().u64(), Ok(0));
    }

    #[test]
    fn history_aggregates_and_serializes() {
        let h = History::default();
        h.record(Observation::Ok(100));
        h.record(Observation::Ok(300));
        h.record(Observation::Shed);
        h.record(Observation::Limit(50));
        let json = h.window_json(60);
        let v = crate::json::Value::parse(&json).unwrap();
        assert_eq!(v.field("window_s").unwrap().u64(), Ok(60));
        assert_eq!(v.field("ok").unwrap().u64(), Ok(2));
        assert_eq!(v.field("shed").unwrap().u64(), Ok(1));
        assert_eq!(v.field("limit").unwrap().u64(), Ok(1));
        assert_eq!(v.field("query_micros").unwrap().u64(), Ok(450));
        assert_eq!(v.field("samples").unwrap().array().unwrap().len(), 1);
        // Mean over the window: (100 + 300 + 50) / 3.
        assert_eq!(h.mean_query_micros(10), Some(150));
        // Oversized windows clamp instead of failing.
        let v = crate::json::Value::parse(&h.window_json(10_000)).unwrap();
        assert_eq!(v.field("window_s").unwrap().u64(), Ok(HISTORY_SECONDS));
    }

    #[test]
    fn history_slots_recycle_across_the_ring() {
        let h = History::default();
        // Write "second 0" and a fake far-future second that maps to the
        // same slot; the slot must reset rather than accumulate.
        h.slot(0).ok.fetch_add(7, Ordering::Relaxed);
        let recycled = h.slot(HISTORY_SECONDS);
        assert_eq!(recycled.ok.load(Ordering::Relaxed), 0);
        assert_eq!(h.mean_query_micros(0), None);
    }
}
