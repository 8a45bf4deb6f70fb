//! Network-fault integration tests: the server behind the `faultnet`
//! proxy, driven through slow clients, truncated requests, mid-stream
//! resets, and readers that stop draining. Each test pins a specific
//! defence: `408` for slowloris, `400` for truncation, survival across
//! response resets, and write-abort (a freed worker) for stalled
//! readers.

use hm_serve::faultnet::{FaultNet, FaultPlan, Step};
use hm_serve::json::Value;
use hm_serve::{http_call, ServeConfig, Server, ServerHandle};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(config: &ServeConfig) -> ServerHandle {
    let server = Server::bind(config).expect("bind");
    server.start().expect("start")
}

fn stat(handle: &ServerHandle, group: &str, field: &str) -> u64 {
    let v = Value::parse(&handle.stats_json()).expect("stats json");
    v.field(group)
        .and_then(|g| g.field(field).map(|f| f.u64()))
        .and_then(|n| n)
        .unwrap_or_else(|e| panic!("stats.{group}.{field}: {e}"))
}

#[test]
fn slowloris_request_gets_408_not_a_hostage_worker() {
    let handle = start(&ServeConfig {
        workers: 1,
        request_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    let net = FaultNet::start(handle.addr()).expect("faultnet");
    // The client sends promptly; the proxy dribbles one byte per 60 ms
    // toward the server, so the request cannot complete within its
    // 500 ms deadline.
    net.push(FaultPlan {
        client_to_server: vec![Step::Trickle {
            bytes: 64,
            delay: Duration::from_millis(60),
        }],
        server_to_client: Vec::new(),
    });

    let started = Instant::now();
    let mut conn = TcpStream::connect(net.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    conn.write_all(b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n")
        .expect("write");
    let mut response = String::new();
    let _ = conn.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408, got: {response:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the slow request must be cut off, not served at trickle pace"
    );
    assert_eq!(stat(&handle, "requests", "read_timeouts"), 1);

    // The sole worker is free again immediately.
    let (status, _) = http_call(handle.addr(), "GET", "/healthz", "").expect("after slowloris");
    assert_eq!(status, 200);
    net.shutdown();
    let report = handle.shutdown();
    assert!(report.drained, "{report:?}");
}

#[test]
fn truncated_body_answers_400() {
    let handle = start(&ServeConfig {
        workers: 1,
        request_timeout: Duration::from_millis(800),
        ..ServeConfig::default()
    });
    let net = FaultNet::start(handle.addr()).expect("faultnet");
    let body = r#"{"spec":"generals","formula":"K1 dispatched"}"#;
    let request = format!(
        "POST /query HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    // Forward everything except the last 20 bytes, then EOF the
    // server's read side: a mid-body disconnect.
    net.push(FaultPlan {
        client_to_server: vec![Step::Forward(request.len() - 20), Step::Close],
        server_to_client: Vec::new(),
    });

    let mut conn = TcpStream::connect(net.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    conn.write_all(request.as_bytes()).expect("write");
    let mut response = String::new();
    let _ = conn.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 400"),
        "expected 400, got: {response:?}"
    );
    assert!(response.contains("truncated body"), "{response:?}");
    net.shutdown();
    let report = handle.shutdown();
    assert!(report.drained, "{report:?}");
}

#[test]
fn mid_response_reset_leaves_the_server_serving() {
    let handle = start(&ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let net = FaultNet::start(handle.addr()).expect("faultnet");
    // Let 50 response bytes through, then snap the client-facing side.
    net.push(FaultPlan {
        client_to_server: Vec::new(),
        server_to_client: vec![Step::Forward(50), Step::Close],
    });

    let mut conn = TcpStream::connect(net.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    conn.write_all(b"GET /healthz HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n")
        .expect("write");
    let mut partial = String::new();
    let _ = conn.read_to_string(&mut partial);
    assert!(partial.len() <= 50, "reset should truncate: {partial:?}");
    drop(conn);

    // The worker and listener both survived the reset.
    for _ in 0..3 {
        let (status, _) = http_call(handle.addr(), "GET", "/healthz", "").expect("after reset");
        assert_eq!(status, 200);
    }
    let report = handle.shutdown();
    assert!(report.drained, "{report:?}");
}

#[test]
fn stalled_reader_aborts_the_write_and_frees_the_worker() {
    let handle = start(&ServeConfig {
        workers: 1,
        write_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    let net = FaultNet::start(handle.addr()).expect("faultnet");
    // Let a sliver of the response through, then stop draining the
    // server entirely: a reader that wedged mid-download. The unread
    // bytes can only pile up in the server's send buffer plus the
    // proxy's receive buffer — a few hundred KiB at most.
    net.push(FaultPlan {
        client_to_server: Vec::new(),
        server_to_client: vec![Step::Forward(256), Step::Delay(Duration::from_secs(60))],
    });

    // Cheap responses: the 404 answer echoes the request path, so a
    // 7 KiB path (inside the 8 KiB request-head budget) makes a 7 KiB
    // body with no engine work. The responses can vanish into an
    // auto-tuned send buffer (tcp_wmem allows several MiB), so pipeline
    // 1,200 keep-alive requests — ~8 MiB of responses — from a pusher
    // thread that simply stops when the aborting server tears the
    // connection down.
    let path = format!("/{}", "a".repeat(7 * 1024));
    let request = format!("GET {path} HTTP/1.1\r\n\r\n");
    let conn = TcpStream::connect(net.addr()).expect("connect");
    let mut writer = conn.try_clone().expect("clone");
    let pusher = std::thread::spawn(move || {
        for _ in 0..1_200 {
            if writer.write_all(request.as_bytes()).is_err() {
                return;
            }
        }
    });

    // Never read a byte; the server's writes must back up and abort at
    // the write deadline instead of parking the sole worker forever.
    let started = Instant::now();
    loop {
        if stat(&handle, "requests", "write_aborts") >= 1 {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "write never aborted; stats: {}",
            handle.stats_json()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The worker is free: a normal request (not via the proxy)
    // completes promptly.
    let (status, _) = http_call(handle.addr(), "GET", "/healthz", "").expect("after stall");
    assert_eq!(status, 200);
    drop(conn);
    // Shutting the proxy down severs the pusher's socket, so its
    // possibly-blocked write errors out and the thread exits.
    net.shutdown();
    pusher.join().expect("pusher");
    let report = handle.shutdown();
    assert!(report.drained, "{report:?}");
}

#[test]
fn faultnet_passthrough_carries_a_full_query() {
    // Sanity for the harness itself against the real server: an empty
    // plan must be invisible.
    let handle = start(&ServeConfig::default());
    let net = FaultNet::start(handle.addr()).expect("faultnet");
    let (status, body) = http_call(
        net.addr(),
        "POST",
        "/query",
        r#"{"spec":"generals","formula":"K1 dispatched"}"#,
    )
    .expect("query through proxy");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verdict\""), "{body}");
    net.shutdown();
    let report = handle.shutdown();
    assert!(report.drained, "{report:?}");
}

#[test]
fn oversized_reader_helpers_used_by_reader() {
    // `read_to_string` on a half-closed BufReader path exercised above
    // covers reads; this pins that a proxied 413 (body over the cap)
    // still surfaces through faultnet untouched.
    let handle = start(&ServeConfig::default());
    let net = FaultNet::start(handle.addr()).expect("faultnet");
    let mut conn = TcpStream::connect(net.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    conn.write_all(
        format!(
            "POST /query HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            (1 << 20) + 1
        )
        .as_bytes(),
    )
    .expect("write");
    let mut reader = BufReader::new(conn);
    let mut response = String::new();
    let _ = reader.read_to_string(&mut response);
    assert!(
        response.starts_with("HTTP/1.1 413"),
        "expected 413, got: {response:?}"
    );
    net.shutdown();
    let report = handle.shutdown();
    assert!(report.drained, "{report:?}");
}
