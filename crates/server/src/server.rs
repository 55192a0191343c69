//! The threaded evaluation server.
//!
//! ## Architecture
//!
//! ```text
//!   accept loop (non-blocking poll, owns shutdown; every wake cancels
//!        │       the running evals past their deadline)
//!        │ spawn per connection
//!   connection threads ──admit──► Gate ──slot──► api::execute on the same thread
//!                          (503 when full, 504 when a waiter's deadline passes)
//! ```
//!
//! - **Backpressure**: `POST /v1/eval` passes the admission [`Gate`]: at
//!   most `--workers` evals run and at most `--queue-depth` wait for a
//!   slot; past that the request is answered `503` with `Retry-After`
//!   immediately.
//! - **Deadlines**: each request carries a [`CancelToken`] the gate keeps
//!   while its eval runs; the accept loop cancels it once the deadline
//!   has passed (the simulator stops at its next scheduling round) and
//!   the eval answers `504`. A request still waiting at its deadline
//!   answers `504` from the gate.
//! - **Graceful drain**: SIGTERM/SIGINT (or the in-process
//!   [`ServerHandle::shutdown`]) stops the accept loop and closes the
//!   gate; connection threads finish every admitted eval, answer
//!   anything newly read with `503`, and exit. Nothing admitted is
//!   dropped without a response.

use crate::api::{self, ApiError};
use crate::gate::{Gate, Refused};
use crate::http::{read_request, ReadError, Request, Response};
use crate::metrics::ServerMetrics;
use crate::signal;
use simt_sim::CancelToken;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};
use workloads::eval::Engine;

/// Server configuration (the `specrecon serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8077` (`:0` picks a free port).
    pub addr: String,
    /// Evals that run at once, each on the connection thread that read
    /// its request.
    pub workers: usize,
    /// Bound on evals waiting for a running slot.
    pub queue_depth: usize,
    /// Deadline applied when a request does not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Compiled-image cache bound (LRU eviction above it).
    pub cache_capacity: usize,
    /// Emit one structured JSON log line per request on stderr.
    pub log: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8077".into(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_depth: 64,
            default_deadline_ms: 30_000,
            cache_capacity: 128,
            log: true,
        }
    }
}

/// Shared state between the accept loop and the connections.
struct Shared {
    engine: Engine,
    gate: Gate,
    metrics: ServerMetrics,
    /// Set once shutdown begins; connections answer 503 from then on.
    draining: AtomicBool,
    cfg: ServeConfig,
}

impl Shared {
    fn log_request(&self, peer: &str, method: &str, path: &str, status: u16, start: Instant) {
        if !self.cfg.log {
            return;
        }
        let ts = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64());
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let depth = self.gate.waiting();
        eprintln!(
            "{{\"ts\":{ts:.3},\"peer\":{},\"method\":{},\"path\":{},\"status\":{status},\"latency_ms\":{latency_ms:.3},\"queue_depth\":{depth}}}",
            crate::json::escape(peer),
            crate::json::escape(method),
            crate::json::escape(path),
        );
    }
}

/// Handle for stopping a running server from another thread (tests, the
/// ctrl-c path is handled internally via [`signal`]).
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain, exactly like delivering SIGTERM.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// A bound, running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    handle: ServerHandle,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

/// Drain summary returned by [`Server::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests answered 2xx over the server's lifetime.
    pub ok: u64,
    /// Evals still waiting or running when shutdown began — all of them
    /// were completed (or answered 504) before exit.
    pub drained: u64,
}

impl Server {
    /// Binds the listener. The accept loop does not run until
    /// [`Server::run`].
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            engine: Engine::with_capacity(1, cfg.cache_capacity),
            gate: Gate::new(cfg.workers, cfg.queue_depth),
            metrics: ServerMetrics::default(),
            draining: AtomicBool::new(false),
            cfg,
        });

        let handle = ServerHandle { stop: Arc::new(AtomicBool::new(false)), addr };
        Ok(Server { listener, shared, handle, connections: Arc::new(Mutex::new(Vec::new())) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    /// A cloneable shutdown handle.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Runs the accept loop until SIGTERM/SIGINT or
    /// [`ServerHandle::shutdown`], then drains: stops accepting, lets
    /// connections finish every admitted eval, joins every thread.
    pub fn run(self) -> std::io::Result<DrainReport> {
        let Server { listener, shared, handle, connections } = self;
        loop {
            shared.gate.cancel_expired(Instant::now());
            if handle.stop.load(Ordering::Relaxed) || signal::shutdown_requested() {
                break;
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    let shared = Arc::clone(&shared);
                    let conn = std::thread::Builder::new()
                        .name("conn".into())
                        .spawn(move || connection_loop(stream, peer, &shared))
                        .expect("spawn connection thread");
                    let mut conns = connections.lock().expect("connection registry poisoned");
                    conns.push(conn);
                    // Opportunistically reap finished connection threads
                    // so the registry stays small under load.
                    conns.retain(|c| !c.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: no new connections (loop exited), no new admissions
        // (gate closed + draining flag); connection threads finish what
        // was admitted, see `draining` at their next read timeout
        // (bounded by the read-timeout interval) and exit. Deadlines are
        // still enforced on the same tick meanwhile.
        let drained = shared.gate.in_flight() as u64;
        shared.draining.store(true, Ordering::Relaxed);
        shared.gate.close();
        let conns = std::mem::take(&mut *connections.lock().expect("registry poisoned"));
        for c in conns {
            while !c.is_finished() {
                shared.gate.cancel_expired(Instant::now());
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = c.join();
        }
        Ok(DrainReport { ok: shared.metrics.ok_count(), drained })
    }
}

/// How long a connection read blocks before re-checking the draining
/// flag; also bounds how long shutdown waits on idle keep-alive
/// connections.
const READ_POLL: Duration = Duration::from_millis(200);

/// Runs one eval with a panic contained to it: the connection answers
/// 500, counts it, and lives to read the next request. What an eval
/// shares with the rest of the server stays usable across the unwind —
/// the metrics are atomics, the engine's image cache and the gate recover
/// a poisoned lock (every update leaves them valid) — hence
/// `AssertUnwindSafe`.
fn isolated<T>(
    metrics: &ServerMetrics,
    job: impl FnOnce() -> Result<T, ApiError>,
) -> Result<T, ApiError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).unwrap_or_else(|panic| {
        metrics.record_worker_panic();
        let what = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("no message");
        Err(ApiError { status: 500, message: format!("internal error: eval panicked: {what}") })
    })
}

fn connection_loop(stream: TcpStream, peer: SocketAddr, shared: &Shared) {
    let peer = peer.to_string();
    // Accepted sockets don't inherit the listener's non-blocking mode on
    // every platform; force blocking + poll-interval read timeout.
    // TCP_NODELAY because request/response exchanges are small and
    // latency-bound — Nagle + delayed ACK would add ~40ms per exchange.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(READ_POLL)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(r) => r,
            Err(ReadError::TimedOut) => {
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(ReadError::Eof) => return,
            Err(ReadError::TooLarge(what)) => {
                // The oversized body was rejected *before* buffering it,
                // so its bytes are still unread on the socket and the
                // parser is desynchronized — the connection MUST close
                // (`close: true` + return), never continue to the next
                // read. Pinned by `oversized_body_closes_the_connection`.
                let resp = Response::json(
                    413,
                    format!("{{\"error\":{}}}", crate::json::escape(&format!("{what} too large"))),
                );
                let _ = resp.write(&mut writer, true);
                shared.metrics.record_status(413);
                return;
            }
            Err(ReadError::Malformed(m)) => {
                let resp =
                    Response::json(400, format!("{{\"error\":{}}}", crate::json::escape(&m)));
                let _ = resp.write(&mut writer, true);
                shared.metrics.record_status(400);
                return;
            }
            Err(ReadError::Io(_)) => return,
        };
        let start = Instant::now();
        let close = request.wants_close();
        let (status, response) = route(&request, shared, start);
        shared.metrics.record_status(status);
        shared.log_request(&peer, &request.method, &request.path, status, start);
        if response.write(&mut writer, close).is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

/// Dispatches one request, returning `(status, response)`.
fn route(request: &Request, shared: &Shared, start: Instant) -> (u16, Response) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let body = if shared.draining.load(Ordering::Relaxed) { "draining\n" } else { "ok\n" };
            (200, Response::text(200, body))
        }
        ("GET", "/metrics") => {
            let text = shared.metrics.render(
                shared.gate.waiting(),
                shared.gate.peak(),
                shared.gate.capacity(),
                shared.engine.cache_stats(),
            );
            (200, Response::text(200, text))
        }
        ("POST", "/v1/eval") => eval_route(request, shared, start),
        ("GET", "/v1/eval") => (405, error_response(405, "use POST")),
        _ => (404, error_response(404, "not found (try /healthz, /metrics, POST /v1/eval)")),
    }
}

fn eval_route(request: &Request, shared: &Shared, start: Instant) -> (u16, Response) {
    let result = api::parse_request(&request.body).and_then(|parsed| {
        let deadline_ms = parsed.deadline_ms.unwrap_or(shared.cfg.default_deadline_ms).max(1);
        let token = CancelToken::new();
        let refused = |status, message: &str| ApiError { status, message: message.into() };
        // Held until the eval's answer exists; dropping it frees the slot.
        let _slot = match shared.gate.admit(start + Duration::from_millis(deadline_ms), &token) {
            Ok(slot) => slot,
            Err(Refused::Full) => {
                shared.metrics.record_rejected_full();
                return Err(refused(503, "queue full"));
            }
            Err(Refused::Closed) => {
                shared.metrics.record_rejected_draining();
                return Err(refused(503, "draining"));
            }
            Err(Refused::Expired) => return Err(refused(504, "deadline exceeded while queued")),
        };
        shared.metrics.running(|| {
            isolated(&shared.metrics, || {
                api::execute(&shared.engine, &parsed, &token, Some(&shared.metrics))
                    .map(|json| json.render())
            })
        })
    });
    match result {
        Ok(body) => {
            shared.metrics.record_latency(start.elapsed().as_secs_f64());
            (200, Response::json(200, body))
        }
        Err(e) => {
            if e.status == 504 {
                shared.metrics.record_deadline_expired();
            }
            let mut response = Response::json(e.status, api::error_body(&e));
            if e.status == 503 {
                // 503s carry `Retry-After` so well-behaved clients back off.
                response = response.with_header("Retry-After", "1");
            }
            (e.status, response)
        }
    }
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\":{}}}", crate::json::escape(message)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::eval::CacheStats;

    /// An eval that panics — an index slip in an engine, say — costs its
    /// request a 500 and one count, not the connection: the same wrapper
    /// runs the next eval.
    #[test]
    fn a_panicking_job_answers_500_and_the_worker_survives() {
        let metrics = ServerMetrics::default();
        let slip = |i: usize| vec![1u8; 3][i];
        let failed = isolated(&metrics, || Ok(slip(7)));
        let e = failed.expect_err("the job panicked");
        assert_eq!(e.status, 500);
        assert!(e.message.contains("index out of bounds"), "{}", e.message);
        assert_eq!(isolated(&metrics, || Ok(slip(2))).expect("a healthy job"), 1);
        let refused =
            isolated(&metrics, || Err::<u8, _>(ApiError { status: 422, message: "x".into() }));
        assert_eq!(refused.expect_err("errors pass through").status, 422);
        let empty = CacheStats { hits: 0, misses: 0, evictions: 0, entries: 0 };
        let text = metrics.render(0, 0, 1, empty);
        assert!(text.contains("specrecon_worker_panics_total 1"), "{text}");
    }
}
