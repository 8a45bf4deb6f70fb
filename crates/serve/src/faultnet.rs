//! `faultnet` — a deterministic socket-level fault-injection proxy.
//!
//! The paper's central lesson is that guarantees evaporate over an
//! unreliable channel; the engine's failpoints (PR 7) inject faults at
//! *compute* phase boundaries, and this module is their counterpart at
//! the *wire*: a std-only TCP proxy that sits in front of a server and
//! perturbs the byte streams according to scripted, per-connection
//! [`FaultPlan`]s — partial writes, mid-body half-closes, stalls, and
//! byte-trickle — so the integration suites can pin how the service
//! behaves under slow clients, truncated requests, and readers that
//! stop draining responses.
//!
//! Plans are consumed in FIFO order, one per accepted connection;
//! connections beyond the queued plans pass bytes through untouched.
//! Each direction of a connection runs its own [`Script`]: a sequence
//! of [`Step`]s applied to the byte stream, after which any remaining
//! bytes are forwarded verbatim (so a script is a *prefix* perturbation
//! — exactly what request/response framing faults need).
//!
//! ```no_run
//! use hm_serve::faultnet::{FaultNet, FaultPlan, Step};
//! use std::time::Duration;
//!
//! # fn demo(server_addr: std::net::SocketAddr) -> std::io::Result<()> {
//! let net = FaultNet::start(server_addr)?;
//! // Next connection: forward 20 request bytes, stall 2 s, then the rest.
//! net.push(FaultPlan {
//!     client_to_server: vec![Step::Forward(20), Step::Delay(Duration::from_secs(2))],
//!     server_to_client: Vec::new(),
//! });
//! let addr = net.addr(); // point the client here instead of the server
//! # let _ = addr;
//! net.shutdown();
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// One scripted perturbation of a unidirectional byte stream.
#[derive(Debug, Clone)]
pub enum Step {
    /// Forward exactly this many bytes (or until EOF) untouched.
    Forward(usize),
    /// Forward nothing for this long — the upstream peer sees a stall,
    /// the downstream peer's bytes back up in kernel buffers.
    Delay(Duration),
    /// Forward this many bytes one at a time, sleeping between each:
    /// the slow-trickle shape (slowloris when aimed at a request).
    Trickle {
        /// Bytes to dribble through.
        bytes: usize,
        /// Pause between consecutive bytes.
        delay: Duration,
    },
    /// Half-close the destination's write side and stop pumping this
    /// direction: the receiver sees EOF mid-stream (a truncated request
    /// or response) while the opposite direction keeps flowing.
    Close,
}

/// Per-direction scripts for one proxied connection. An empty script is
/// a pure pass-through for that direction.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Steps applied to bytes flowing client → server (requests).
    pub client_to_server: Script,
    /// Steps applied to bytes flowing server → client (responses).
    pub server_to_client: Script,
}

/// A sequence of [`Step`]s; bytes beyond the script pass through.
pub type Script = Vec<Step>;

/// Granularity of proxy reads, and of stop-flag checks inside delays.
const POLL: Duration = Duration::from_millis(25);

/// Shared state between the harness handle and its threads.
struct NetState {
    plans: Mutex<VecDeque<FaultPlan>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
    stop: AtomicBool,
}

/// A running fault-injection proxy. Point clients at [`addr`](Self::addr);
/// bytes are relayed to the upstream server through the queued plans.
pub struct FaultNet {
    addr: SocketAddr,
    state: Arc<NetState>,
    acceptor: Option<JoinHandle<()>>,
}

impl FaultNet {
    /// Binds an ephemeral port on localhost and starts proxying to
    /// `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates the bind/introspection failure.
    pub fn start(upstream: SocketAddr) -> io::Result<FaultNet> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let state = Arc::new(NetState {
            plans: Mutex::new(VecDeque::new()),
            pumps: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let accept_state = Arc::clone(&state);
        let acceptor = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_state.stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(client) = conn else { continue };
                let plan = lock(&accept_state.plans).pop_front().unwrap_or_default();
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue;
                };
                let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                let up_state = Arc::clone(&accept_state);
                let down_state = Arc::clone(&accept_state);
                let up = std::thread::spawn(move || {
                    pump(&client, &server, &plan.client_to_server, &up_state.stop);
                });
                let down = std::thread::spawn(move || {
                    pump(&s2, &c2, &plan.server_to_client, &down_state.stop);
                });
                let mut pumps = lock(&accept_state.pumps);
                pumps.push(up);
                pumps.push(down);
            }
        });
        Ok(FaultNet {
            addr,
            state,
            acceptor: Some(acceptor),
        })
    }

    /// The proxy's listening address (give this to the client).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queues `plan` for the next accepted connection (FIFO).
    pub fn push(&self, plan: FaultPlan) {
        lock(&self.state.plans).push_back(plan);
    }

    /// Stops accepting, interrupts every pump, and joins all threads.
    pub fn shutdown(mut self) {
        self.state.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr); // unblock accept
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        let pumps: Vec<_> = lock(&self.state.pumps).drain(..).collect();
        for t in pumps {
            let _ = t.join();
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sleeps `total` in [`POLL`] slices, bailing early on `stop`.
fn interruptible_sleep(total: Duration, stop: &AtomicBool) {
    let mut left = total;
    while !left.is_zero() && !stop.load(Ordering::Relaxed) {
        let nap = left.min(POLL);
        std::thread::sleep(nap);
        left = left.saturating_sub(nap);
    }
}

/// Copies up to `limit` bytes (`None` = until EOF) from `src` to `dst`
/// in chunks of at most `chunk`, sleeping `gap` between chunks. Returns
/// `false` when this direction is finished (EOF, error, or stop).
fn copy_bytes(
    src: &TcpStream,
    dst: &TcpStream,
    limit: Option<usize>,
    chunk: usize,
    gap: Duration,
    stop: &AtomicBool,
) -> bool {
    let mut src = src;
    let mut dst = dst;
    let _ = src.set_read_timeout(Some(POLL));
    let mut buf = vec![0u8; chunk.max(1)];
    let mut remaining = limit;
    loop {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        let want = match remaining {
            Some(0) => return true,
            Some(n) => n.min(buf.len()),
            None => buf.len(),
        };
        match src.read(&mut buf[..want]) {
            Ok(0) => {
                let _ = dst.shutdown(Shutdown::Write);
                return false;
            }
            Ok(n) => {
                if dst.write_all(&buf[..n]).is_err() {
                    return false;
                }
                if let Some(r) = remaining.as_mut() {
                    *r -= n;
                }
                if !gap.is_zero() {
                    interruptible_sleep(gap, stop);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Runs one direction's script, then forwards the remainder verbatim.
fn pump(src: &TcpStream, dst: &TcpStream, script: &[Step], stop: &AtomicBool) {
    for step in script {
        match step {
            Step::Forward(n) => {
                if !copy_bytes(src, dst, Some(*n), 4096, Duration::ZERO, stop) {
                    return;
                }
            }
            Step::Delay(d) => interruptible_sleep(*d, stop),
            Step::Trickle { bytes, delay } => {
                if !copy_bytes(src, dst, Some(*bytes), 1, *delay, stop) {
                    return;
                }
            }
            Step::Close => {
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
        }
    }
    copy_bytes(src, dst, None, 4096, Duration::ZERO, stop);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny echo server: accepts one connection, echoes until EOF.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let t = std::thread::spawn(move || {
            // One connection is all the tests need.
            if let Ok((mut conn, _)) = listener.accept() {
                let mut buf = [0u8; 1024];
                loop {
                    match conn.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if conn.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, t)
    }

    #[test]
    fn passthrough_relays_both_directions() {
        let (upstream, server) = echo_server();
        let net = FaultNet::start(upstream).expect("start");
        let mut conn = TcpStream::connect(net.addr()).expect("connect");
        conn.write_all(b"hello faultnet").expect("write");
        conn.shutdown(Shutdown::Write).expect("half-close");
        let mut echoed = Vec::new();
        conn.read_to_end(&mut echoed).expect("read");
        assert_eq!(echoed, b"hello faultnet");
        net.shutdown();
        let _ = server.join();
    }

    #[test]
    fn close_step_truncates_mid_stream() {
        let (upstream, server) = echo_server();
        let net = FaultNet::start(upstream).expect("start");
        // Forward only 5 request bytes, then EOF the server's view;
        // responses flow untouched.
        net.push(FaultPlan {
            client_to_server: vec![Step::Forward(5), Step::Close],
            server_to_client: Vec::new(),
        });
        let mut conn = TcpStream::connect(net.addr()).expect("connect");
        conn.write_all(b"0123456789").expect("write");
        let mut echoed = Vec::new();
        conn.read_to_end(&mut echoed).expect("read");
        assert_eq!(echoed, b"01234", "server only ever saw five bytes");
        net.shutdown();
        let _ = server.join();
    }

    #[test]
    fn trickle_step_paces_the_bytes() {
        let (upstream, server) = echo_server();
        let net = FaultNet::start(upstream).expect("start");
        net.push(FaultPlan {
            client_to_server: vec![Step::Trickle {
                bytes: 4,
                delay: Duration::from_millis(30),
            }],
            server_to_client: Vec::new(),
        });
        let started = std::time::Instant::now();
        let mut conn = TcpStream::connect(net.addr()).expect("connect");
        conn.write_all(b"abcd-rest").expect("write");
        conn.shutdown(Shutdown::Write).expect("half-close");
        let mut echoed = Vec::new();
        conn.read_to_end(&mut echoed).expect("read");
        assert_eq!(echoed, b"abcd-rest");
        assert!(
            started.elapsed() >= Duration::from_millis(90),
            "four trickled bytes must take at least three gaps"
        );
        net.shutdown();
        let _ = server.join();
    }
}
