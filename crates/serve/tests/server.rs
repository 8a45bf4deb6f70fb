//! End-to-end tests over a real ephemeral-port server: the self-test
//! contract, and the concurrency stress of the acceptance criteria —
//! many client threads firing mixed good/bad/limited queries must get
//! responses byte-identical to a serial run.

use hm_serve::{http_call, read_response, selftest, ServeConfig, Server, ServerHandle};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn start(workers: usize) -> (ServerHandle, SocketAddr) {
    let config = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("addr");
    (server.start().expect("start"), addr)
}

/// Responses carry wall-clock timings; everything before them is
/// deterministic. Strips the `"timing_us"` suffix so bodies can be
/// compared byte-for-byte.
fn stable_prefix(body: &str) -> &str {
    match body.find(",\"timing_us\"") {
        Some(at) => &body[..at],
        None => body,
    }
}

#[test]
fn selftest_covers_the_contract() {
    let report = selftest(2).expect("selftest");
    assert!(report.contains("ok"), "{report}");
}

#[test]
fn concurrent_mixed_queries_match_serial() {
    // The mix: two cacheable specs, a malformed body, an unknown
    // scenario, a parse error, and a deterministic run-budget
    // exhaustion. No timeouts — wall-clock limits are not reproducible.
    let mix: &[(&str, u16)] = &[
        (
            r#"{"spec":"generals","formula":"K1 dispatched & !K0 K1 dispatched"}"#,
            200,
        ),
        (r#"{"spec":"muddy:n=3,dirty=2","formula":"K0 muddy0"}"#, 200),
        (
            r#"{"spec":"generals:horizon=8","formula":"C{0,1} dispatched"}"#,
            200,
        ),
        ("{oops", 400),
        (r#"{"spec":"no-such","formula":"true"}"#, 400),
        (r#"{"spec":"generals","formula":"K1 ((("}"#, 400),
        (
            r#"{"spec":"generals","formula":"C{0,1} dispatched","limits":{"max_runs":2}}"#,
            503,
        ),
    ];

    let (handle, addr) = start(4);

    // Serial reference pass. Run the whole mix twice and keep the second
    // round, so every cacheable engine is warm and `engine_cache` is
    // stable at `"hit"` for the comparison.
    let mut reference = Vec::new();
    for round in 0..2 {
        reference.clear();
        for (body, want_status) in mix {
            let (status, response) = http_call(addr, "POST", "/query", body).expect("serial call");
            assert_eq!(status, *want_status, "round {round}: {response}");
            reference.push(response);
        }
    }

    // Concurrent pass: every thread runs the full mix several times and
    // checks each response against the serial reference, byte for byte
    // (minus timings).
    let threads = 8;
    let rounds = 5;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..rounds {
                    for ((body, want_status), expect) in mix.iter().zip(reference) {
                        let (status, response) =
                            http_call(addr, "POST", "/query", body).expect("concurrent call");
                        assert_eq!(status, *want_status, "thread {t} round {round}: {response}");
                        assert_eq!(
                            stable_prefix(&response),
                            stable_prefix(expect),
                            "thread {t} round {round}: concurrent response diverged from serial"
                        );
                    }
                }
            });
        }
    });

    // The counters saw everything: serial 2×, concurrent threads×rounds.
    let total = (2 + threads * rounds) as u64;
    let per_kind = |n: usize| total * n as u64;
    let (status, stats) = http_call(addr, "GET", "/stats", "").expect("stats");
    assert_eq!(status, 200);
    let requests = |key: &str| -> u64 {
        let tag = format!("\"{key}\":");
        let at = stats
            .find(&tag)
            .unwrap_or_else(|| panic!("{key} in {stats}"));
        stats[at + tag.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("counter")
    };
    assert_eq!(requests("query_ok"), per_kind(3), "{stats}");
    assert_eq!(requests("query_client_error"), per_kind(3), "{stats}");
    assert_eq!(requests("query_limit"), per_kind(1), "{stats}");
    // The warm sessions hold their compiled formulas, far below the
    // per-session capacity, so nothing was evicted.
    assert!(requests("formulas_cached") > 0, "{stats}");
    assert_eq!(requests("formula_evictions"), 0, "{stats}");
    handle.shutdown();
}

#[test]
fn keep_alive_connections_serve_multiple_requests() {
    // http_call opens a fresh connection per request; this drives the
    // keep-alive path by hand.
    use std::io::{BufRead, BufReader, Read, Write};
    let (handle, addr) = start(1);
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for _ in 0..3 {
        writer
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .expect("write");
        writer.flush().expect("flush");
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status");
        assert!(status_line.contains("200"), "{status_line}");
        let mut length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().expect("length");
                }
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).expect("body");
        assert_eq!(body, b"{\"ok\":true}");
    }
    handle.shutdown();
}

#[test]
fn oversized_and_bad_method_requests_are_rejected() {
    let (handle, addr) = start(1);
    let big = format!(
        r#"{{"spec":"generals","formula":"{}"}}"#,
        "K1 dispatched & ".repeat(80_000)
    );
    assert!(big.len() > 1 << 20);
    // Repeated: the server drains the unread upload before closing, so
    // the client reads the 413 every time instead of a connection reset.
    for attempt in 0..20 {
        let (status, _) = http_call(addr, "POST", "/query", &big)
            .unwrap_or_else(|e| panic!("big call {attempt}: {e}"));
        assert_eq!(status, 413, "attempt {attempt}");
    }
    let (status, _) = http_call(addr, "DELETE", "/query", "").expect("bad method");
    assert_eq!(status, 405);
    let (status, _) = http_call(addr, "GET", "/query", "").expect("query via GET");
    assert_eq!(status, 404);
    handle.shutdown();
}

#[test]
fn deeply_nested_formulas_are_parse_errors_not_fatal() {
    // Nesting past the parser's cap is answered like any other parse
    // error, and the worker survives to serve the next request.
    let (handle, addr) = start(1);
    // Deep enough to overflow a worker stack if the parser recursed.
    let n = 20_000;
    for (open, close) in [("(", ")"), ("!", ""), ("K0 ", ""), ("nu X. ", "")] {
        let formula = format!("{}dispatched{}", open.repeat(n), close.repeat(n));
        let body = format!(r#"{{"spec":"generals","formula":"{formula}"}}"#);
        assert!(body.len() < 1 << 20, "inside the body cap");
        let (status, response) = http_call(addr, "POST", "/query", &body).expect("deep call");
        assert_eq!(status, 400, "{open}: {response}");
        assert!(
            response.contains(r#""kind":"parse""#) && response.contains("nesting deeper than"),
            "{open}: {response}"
        );
        let (status, _) = http_call(addr, "GET", "/healthz", "").expect("healthz");
        assert_eq!(status, 200, "after {open}");
    }
    handle.shutdown();
}

/// Sends `head` (request line and headers, without the blank line) plus
/// an empty body on a fresh connection and returns the status.
fn raw_status(addr: SocketAddr, head: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(format!("{head}content-length: 0\r\nconnection: close\r\n\r\n").as_bytes())
        .expect("send");
    let (status, _, _) = read_response(&mut BufReader::new(stream)).expect("response");
    status
}

#[test]
fn oversized_request_heads_are_refused_and_free_the_worker() {
    // One worker: if a refused head kept it busy, the follow-up health
    // check would queue behind it.
    let (handle, addr) = start(1);
    let big_header = format!(
        "GET /healthz HTTP/1.1\r\nx-big: {}\r\n",
        "a".repeat(16 * 1024)
    );
    let flood = format!("GET /healthz HTTP/1.1\r\n{}", "x-h: 1\r\n".repeat(2_000));
    let long_line = format!("GET /healthz?{} HTTP/1.1\r\n", "a".repeat(16 * 1024));
    for attempt in 0..5 {
        for (name, head) in [
            ("header", &big_header),
            ("flood", &flood),
            ("line", &long_line),
        ] {
            assert_eq!(raw_status(addr, head), 400, "{name} attempt {attempt}");
            let started = Instant::now();
            let (status, _) = http_call(addr, "GET", "/healthz", "").expect("healthz");
            assert_eq!(status, 200, "{name} attempt {attempt}");
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "worker still held after a refused {name}"
            );
        }
    }
    // A head well inside the budget is served.
    let modest = format!(
        "GET /healthz HTTP/1.1\r\nx-ok: {}\r\n",
        "a".repeat(4 * 1024)
    );
    assert_eq!(raw_status(addr, &modest), 200);
    handle.shutdown();
}

#[test]
fn agreement_builds_that_cannot_fit_are_refused() {
    // Naive enumeration at n=5,f=2 or f=3 would run for minutes and
    // gigabytes; the spec is refused with a 400 before enumeration.
    let (handle, addr) = start(2);
    for spec in [
        "agreement:n=5,f=2,mode=naive",
        "agreement:n=4,f=3,mode=naive",
    ] {
        let body = format!(r#"{{"spec":"{spec}","formula":"C{{0,1,2}} min0"}}"#);
        let (status, response) = http_call(addr, "POST", "/query", &body).expect(spec);
        assert_eq!(status, 400, "{spec}: {response}");
        assert!(response.contains("mode=reduced"), "{spec}: {response}");
    }
    handle.shutdown();
}

#[test]
fn horizon_and_minimize_options_shape_the_cache_key() {
    let (handle, addr) = start(2);
    let with_h8 = r#"{"spec":"generals","formula":"K1 dispatched","horizon":8}"#;
    let plain = r#"{"spec":"generals","formula":"K1 dispatched"}"#;
    let (status, first) = http_call(addr, "POST", "/query", with_h8).expect("h8");
    assert_eq!(status, 200, "{first}");
    assert!(first.contains("\"engine_cache\":\"miss\""), "{first}");
    // Different options ⇒ different cached engine, even though the
    // canonical spec string is the same.
    let (status, second) = http_call(addr, "POST", "/query", plain).expect("plain");
    assert_eq!(status, 200, "{second}");
    assert!(second.contains("\"engine_cache\":\"miss\""), "{second}");
    let (status, third) = http_call(addr, "POST", "/query", with_h8).expect("h8 again");
    assert_eq!(status, 200, "{third}");
    assert!(third.contains("\"engine_cache\":\"hit\""), "{third}");
    // Equivalent spec spellings share one engine: defaults are filled
    // and parameters sorted before keying.
    let spelled = r#"{"spec":"generals:horizon=8","formula":"K1 dispatched"}"#;
    let (status, fourth) = http_call(addr, "POST", "/query", spelled).expect("spelled");
    assert_eq!(status, 200, "{fourth}");
    assert!(fourth.contains("\"engine_cache\":\"hit\""), "{fourth}");
    handle.shutdown();
}
