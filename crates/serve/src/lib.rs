//! `hm-serve` — the epistemic query service.
//!
//! Halpern–Moses frames are expensive to build (adversarial run
//! enumeration, interpreted-system construction, optional bisimulation
//! minimisation) and cheap to query once built — and a [`Session`] is
//! `Send + Sync`, its formula caches lock-striped. This crate turns
//! that shape into a long-lived service: a std-only HTTP/1.1 server
//! (the workspace is offline — `std::net` and a fixed worker-thread
//! pool, no async runtime) that keeps the last few built engines warm
//! in an LRU cache keyed by canonical scenario spec and answers JSON
//! queries concurrently from every worker. Each cached session analyzes
//! and compiles a formula once, on its first ask, and answers repeats
//! from its own program cache.
//!
//! # Endpoints
//!
//! | Route           | Answer |
//! |-----------------|--------|
//! | `GET /healthz`  | `{"ok":true}` — liveness |
//! | `GET /stats`    | engine-cache hits/misses/evictions, formula-cache size/evictions, request counters, in-flight gauge |
//! | `POST /query`   | verdict + analyzer diagnostics + timing for one formula |
//!
//! A query body names a scenario spec and a formula, with optional
//! build options and per-request resource limits:
//!
//! ```json
//! {"spec": "generals:horizon=8",
//!  "formula": "K1 dispatched & !K0 K1 dispatched",
//!  "minimize": false,
//!  "limits": {"max_runs": 5000, "timeout_ms": 250}}
//! ```
//!
//! Malformed bodies, unknown scenarios, parse failures, and evaluation
//! errors answer `400` with a structured `{"error":{...}}` document;
//! an exhausted resource limit answers `503` carrying the resource,
//! phase, and spend; a panicking worker (exercised by failpoint
//! injection in the tests) answers `500` and keeps serving.
//!
//! # Overload and fault tolerance
//!
//! The server is hardened end to end against overload and hostile
//! peers:
//!
//! * **Admission control** — accepted connections flow through a
//!   *bounded* queue ([`ServeConfig::queue_depth`]); when it and every
//!   worker are busy, new connections are shed immediately with `503`
//!   plus a `Retry-After` header estimated from the backlog and the
//!   rolling mean query time, counted under `requests.shed` in
//!   `/stats`.
//! * **Deadlines both ways** — a request must arrive within
//!   [`ServeConfig::request_timeout`] of its first byte (a slowloris
//!   trickle gets `408`), and a response must drain within
//!   [`ServeConfig::write_timeout`] (a reader that stops draining gets
//!   the write aborted, freeing the worker).
//! * **Graceful drain** — [`ServerHandle::shutdown`] stops accepting,
//!   finishes queued and in-flight requests with `Connection: close`,
//!   and joins — bounded by [`ServeConfig::drain_timeout`], reporting
//!   abandoned workers in its [`DrainReport`].
//! * **Quarantine** — a spec whose requests keep panicking trips a
//!   per-spec circuit breaker after
//!   [`ServeConfig::quarantine_threshold`] consecutive contained
//!   panics and answers `503 quarantined` for the cooldown, then
//!   half-opens with one probe.
//! * **`/stats?window=60s`** — a per-second history ring serves
//!   windowed load aggregates next to the cumulative counters.
//!
//! The [`faultnet`] module provides the deterministic socket-level
//! fault-injection proxy (partial writes, stalls, byte-trickle,
//! mid-stream resets) the integration suites drive these paths with.
//!
//! # In-process use
//!
//! The server binds separately from starting, so tests and embedders
//! can learn the ephemeral port before any request races in:
//!
//! ```
//! use hm_serve::{http_call, ServeConfig, Server};
//! let server = Server::bind(&ServeConfig::default())?;
//! let addr = server.local_addr()?;
//! let handle = server.start()?;
//! let (status, body) = http_call(addr, "GET", "/healthz", "")?;
//! assert_eq!((status, body.as_str()), (200, "{\"ok\":true}"));
//! handle.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`Session`]: hm_engine::Session

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod faultnet;
mod http;
mod server;
mod stats;

/// The request/response JSON codec: `hm-logic`'s shared, depth-capped
/// reader and writer.
pub use hm_engine::json;
pub use http::{http_call, http_call_headers, read_response, send_request, Response};
pub use server::{overload_smoke, selftest, DrainReport, ServeConfig, Server, ServerHandle};
