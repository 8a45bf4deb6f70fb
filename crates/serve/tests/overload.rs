//! Admission control and graceful-drain integration tests: the bounded
//! queue sheds deterministically once every worker and queue slot is
//! occupied, `/stats?window=` serves the per-second history, and
//! `shutdown` drains in-flight work — or gives up on schedule when a
//! connection is wedged.

use hm_serve::json::Value;
use hm_serve::{
    http_call, http_call_headers, read_response, send_request, ServeConfig, Server, ServerHandle,
};
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(config: &ServeConfig) -> ServerHandle {
    let server = Server::bind(config).expect("bind");
    server.start().expect("start")
}

/// Parks `n` workers on live keep-alive connections (each proves
/// ownership with one answered request) and returns the held sockets.
fn park_workers(addr: std::net::SocketAddr, n: usize) -> Vec<(BufReader<TcpStream>, TcpStream)> {
    (0..n)
        .map(|_| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let mut writer = stream.try_clone().expect("clone");
            send_request(&mut writer, "GET", "/healthz", "", true).expect("send");
            let mut reader = BufReader::new(stream);
            let (status, _, _) = read_response(&mut reader).expect("read");
            assert_eq!(status, 200);
            (reader, writer)
        })
        .collect()
}

#[test]
fn saturated_server_sheds_with_retry_after() {
    let config = ServeConfig {
        workers: 2,
        queue_depth: 2,
        ..ServeConfig::default()
    };
    let handle = start(&config);
    let addr = handle.addr();

    let parked = park_workers(addr, config.workers);
    let fillers: Vec<TcpStream> = (0..config.queue_depth)
        .map(|_| TcpStream::connect(addr).expect("filler"))
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    // A burst of 4× the worker count beyond capacity: every one must be
    // shed immediately with a structured 503 and a positive Retry-After.
    for _ in 0..(4 * config.workers) {
        let started = Instant::now();
        let (status, headers, body) =
            http_call_headers(addr, "GET", "/healthz", "").expect("shed call");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("\"kind\":\"shed\""), "{body}");
        let retry = headers
            .iter()
            .find(|(name, _)| name == "retry-after")
            .unwrap_or_else(|| panic!("missing retry-after in {headers:?}"));
        assert!(
            retry.1.parse::<u64>().is_ok_and(|secs| secs >= 1),
            "retry-after must be a positive integer: {retry:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shedding must be immediate"
        );
    }

    drop(parked);
    drop(fillers);
    std::thread::sleep(Duration::from_millis(150));

    // Service recovered, and the stats carry the evidence.
    let (status, stats) = http_call(addr, "GET", "/stats", "").expect("stats");
    assert_eq!(status, 200);
    let v = Value::parse(&stats).expect("stats json");
    let shed = v
        .field("requests")
        .and_then(|r| r.field("shed").map(|f| f.u64()))
        .and_then(|n| n)
        .expect("requests.shed");
    assert!(shed >= 4 * config.workers as u64, "{stats}");

    let report = handle.shutdown();
    assert!(report.drained, "{report:?}");
}

#[test]
fn shed_answers_survive_requests_sent_before_the_shed() {
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    };
    let handle = start(&config);
    let addr = handle.addr();
    let parked = park_workers(addr, config.workers);
    let filler = TcpStream::connect(addr).expect("filler");
    std::thread::sleep(Duration::from_millis(150));

    // Every client sends its whole request at once, so the acceptor
    // sheds connections whose request bytes have already arrived —
    // bytes that, left unread at close, make the kernel reset the
    // connection under the 503.
    let body = r#"{"spec":"generals","formula":"K1 dispatched"}"#;
    let clients: Vec<TcpStream> = (0..24)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            send_request(&mut stream, "POST", "/query", body, false).expect("send");
            stream
        })
        .collect();
    for (i, stream) in clients.into_iter().enumerate() {
        let mut reader = BufReader::new(stream);
        let (status, headers, body) =
            read_response(&mut reader).unwrap_or_else(|e| panic!("client {i}: {e}"));
        assert_eq!(status, 503, "client {i}: {body}");
        assert!(body.contains("\"kind\":\"shed\""), "client {i}: {body}");
        assert!(
            headers.iter().any(|(name, _)| name == "retry-after"),
            "client {i}: no retry-after in {headers:?}"
        );
    }

    drop(parked);
    drop(filler);
    let report = handle.shutdown();
    assert!(report.drained, "{report:?}");
}

#[test]
fn overload_smoke_passes() {
    let report = hm_serve::overload_smoke().expect("overload smoke");
    assert!(report.contains("ok"), "{report}");
}

#[test]
fn stats_window_serves_recent_history() {
    let handle = start(&ServeConfig::default());
    let addr = handle.addr();
    let (status, body) = http_call(
        addr,
        "POST",
        "/query",
        r#"{"spec":"generals","formula":"K1 dispatched"}"#,
    )
    .expect("query");
    assert_eq!(status, 200, "{body}");

    let (status, windowed) = http_call(addr, "GET", "/stats?window=5s", "").expect("window");
    assert_eq!(status, 200, "{windowed}");
    let v = Value::parse(&windowed).expect("window json");
    assert_eq!(v.field("window_s").unwrap().u64(), Ok(5));
    assert_eq!(v.field("ok").unwrap().u64(), Ok(1), "{windowed}");
    let samples = v.field("samples").unwrap().array().expect("samples");
    assert!(!samples.is_empty(), "{windowed}");

    // Bare seconds work; malformed windows are the client's fault.
    let (status, _) = http_call(addr, "GET", "/stats?window=60", "").expect("bare window");
    assert_eq!(status, 200);
    let (status, body) = http_call(addr, "GET", "/stats?window=soon", "").expect("bad window");
    assert_eq!(status, 400, "{body}");

    let report = handle.shutdown();
    assert!(report.drained, "{report:?}");
}

#[test]
fn shutdown_drains_an_in_flight_request() {
    let handle = start(&ServeConfig {
        workers: 1,
        drain_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // A deadline-bounded engine build gives a machine-independent
    // in-flight duration: the `agreement:n=4,f=2` frame takes >1 s to
    // enumerate, so the 700 ms deadline fires first and the request
    // resolves as a structured 503 limit answer after ~700 ms.
    let slow =
        r#"{"spec":"agreement:n=4,f=2","formula":"C{0,1} decided0","limits":{"timeout_ms":700}}"#;
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    send_request(&mut writer, "POST", "/query", slow, true).expect("send");
    // Let the sole worker pick it up before shutting down.
    std::thread::sleep(Duration::from_millis(150));

    let shutdown = std::thread::spawn(move || handle.shutdown());
    let mut reader = BufReader::new(stream);
    let (status, headers, body) = read_response(&mut reader).expect("drained answer");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("\"kind\":\"limit\""), "{body}");
    // The keep-alive request was answered, but the drain forces the
    // connection closed.
    let connection = headers
        .iter()
        .find(|(name, _)| name == "connection")
        .map(|(_, v)| v.as_str());
    assert_eq!(connection, Some("close"), "{headers:?}");

    let report = shutdown.join().expect("shutdown thread");
    assert!(report.drained, "{report:?}");
    assert_eq!(report.forced_workers, 0);
}

#[test]
fn shutdown_gives_up_on_a_wedged_connection() {
    let handle = start(&ServeConfig {
        workers: 1,
        request_timeout: Duration::from_secs(3),
        drain_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Send half a request line and go silent: the worker is stuck
    // waiting out the request deadline, longer than the drain budget.
    let mut wedged = TcpStream::connect(addr).expect("connect");
    std::io::Write::write_all(&mut wedged, b"POST /query HTT").expect("partial write");
    std::thread::sleep(Duration::from_millis(300));

    let started = Instant::now();
    let report = handle.shutdown();
    assert!(!report.drained, "{report:?}");
    assert_eq!(report.forced_workers, 1, "{report:?}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "forced shutdown must respect the drain budget, took {:?}",
        started.elapsed()
    );
    drop(wedged);
}
