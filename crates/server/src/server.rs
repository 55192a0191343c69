//! The threaded evaluation server.
//!
//! ## Architecture
//!
//! ```text
//!            accept loop (non-blocking poll, owns shutdown)
//!                 │ spawn per connection
//!            connection threads ──try_push──► Bounded<Job> ──pop──► worker pool
//!                 ▲                               (503 when full)        │
//!                 └────────── per-job mpsc reply channel ◄──────────────┘
//! ```
//!
//! - **Backpressure**: `POST /v1/eval` is admitted through a bounded
//!   queue; a full queue answers `503` with `Retry-After` immediately —
//!   the queue depth can never exceed `--queue-depth`.
//! - **Deadlines**: the connection thread creates a [`CancelToken`] per
//!   request and waits on the reply channel with a timeout; at the
//!   deadline it cancels the token (the simulator stops at its next
//!   scheduling round) and answers `504`.
//! - **Graceful drain**: SIGTERM/SIGINT (or the in-process
//!   [`ServerHandle::shutdown`]) stops the accept loop, closes the
//!   queue, and lets workers finish every admitted job; connection
//!   threads deliver those replies, answer anything newly read with
//!   `503`, and exit. Nothing admitted is dropped without a response.

use crate::api::{self, ApiError};
use crate::http::{read_request, ReadError, Request, Response};
use crate::metrics::ServerMetrics;
use crate::queue::{Bounded, PushError};
use crate::signal;
use simt_sim::CancelToken;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};
use workloads::eval::Engine;

/// Server configuration (the `specrecon serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8077` (`:0` picks a free port).
    pub addr: String,
    /// Evaluation worker threads.
    pub workers: usize,
    /// Bound on queued (admitted, not yet running) eval jobs.
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

/// One admitted eval job travelling from a connection thread to a
/// worker.
struct Job {
    request: api::EvalRequest,
    token: CancelToken,
    deadline: Instant,
    reply: mpsc::Sender<Result<String, ApiError>>,
}

/// Shared state between the accept loop, connections, and workers.
struct Shared {
    engine: Engine,
    queue: Bounded<Job>,
    metrics: ServerMetrics,
    /// Set once shutdown begins; connections answer 503 from then on.
    draining: AtomicBool,
    /// In-flight `/v1/eval` exchanges (admitted, response not yet
    /// written). The drain waits for this to reach zero.
    in_flight: AtomicU64,
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
        let depth = self.queue.depth();
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
    workers: Vec<std::thread::JoinHandle<()>>,
    connections: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

/// Drain summary returned by [`Server::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests answered 2xx over the server's lifetime.
    pub ok: u64,
    /// Eval jobs still queued or running when shutdown began — all of
    /// them were completed (or answered 504) before exit.
    pub drained: u64,
}

impl Server {
    /// Binds the listener and starts the worker pool. The accept loop
    /// does not run until [`Server::run`].
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            engine: Engine::with_capacity(1, cfg.cache_capacity),
            queue: Bounded::new(cfg.queue_depth),
            metrics: ServerMetrics::default(),
            draining: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            cfg: cfg.clone(),
        });

        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("eval-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let handle = ServerHandle { stop: Arc::new(AtomicBool::new(false)), addr };
        Ok(Server {
            listener,
            shared,
            handle,
            workers,
            connections: Arc::new(Mutex::new(Vec::new())),
        })
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
    /// workers finish every admitted job, joins every thread.
    pub fn run(self) -> std::io::Result<DrainReport> {
        let Server { listener, shared, handle, workers, connections } = self;
        loop {
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
        // (queue closed + draining flag), workers finish what was
        // admitted, connection threads deliver it. `in_flight` already
        // counts queued jobs (admitted but unanswered).
        let drained = shared.in_flight.load(Ordering::Relaxed);
        shared.draining.store(true, Ordering::Relaxed);
        shared.queue.close();
        for w in workers {
            let _ = w.join();
        }
        // Connection threads see `draining` at their next read timeout
        // (bounded by the read-timeout interval) and exit.
        let conns = std::mem::take(&mut *connections.lock().expect("registry poisoned"));
        for c in conns {
            let _ = c.join();
        }
        Ok(DrainReport { ok: shared.metrics.ok_count(), drained })
    }
}

/// How long a connection read blocks before re-checking the draining
/// flag; also bounds how long shutdown waits on idle keep-alive
/// connections.
const READ_POLL: Duration = Duration::from_millis(200);

/// Runs one job with a panic contained to it: the worker answers 500,
/// counts it, and lives to take the next job. What a job shares with the
/// rest of the server stays usable across the unwind — the metrics are
/// atomics, the engine's image cache recovers a poisoned lock (every
/// update leaves it valid) — hence `AssertUnwindSafe`.
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

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let result = if Instant::now() >= job.deadline || job.token.is_cancelled() {
            // Expired while queued: don't burn a worker on it.
            Err(ApiError { status: 504, message: "deadline exceeded while queued".into() })
        } else {
            shared.metrics.running(|| {
                isolated(&shared.metrics, || {
                    api::execute(&shared.engine, &job.request, &job.token, Some(&shared.metrics))
                        .map(|json| json.render())
                })
            })
        };
        // The connection thread may have timed out and moved on; a dead
        // receiver is fine (it already answered 504).
        let _ = job.reply.send(result);
    }
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
                shared.queue.depth(),
                shared.queue.peak(),
                shared.queue.capacity(),
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
    let parsed = match api::parse_request(&request.body) {
        Ok(p) => p,
        Err(e) => return (e.status, Response::json(e.status, api::error_body(&e))),
    };
    if shared.draining.load(Ordering::Relaxed) {
        shared.metrics.record_rejected_draining();
        return (503, error_response(503, "draining").with_status_headers());
    }

    let deadline_ms = parsed.deadline_ms.unwrap_or(shared.cfg.default_deadline_ms).max(1);
    let deadline = start + Duration::from_millis(deadline_ms);
    let token = CancelToken::new();
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job { request: parsed, token: token.clone(), deadline, reply: reply_tx };

    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    let outcome = match shared.queue.try_push(job) {
        Err(PushError::Full(_)) => {
            shared.metrics.record_rejected_full();
            (503, error_response(503, "queue full").with_status_headers())
        }
        Err(PushError::Closed(_)) => {
            shared.metrics.record_rejected_draining();
            (503, error_response(503, "draining").with_status_headers())
        }
        Ok(()) => {
            // Block until the worker answers or the deadline passes;
            // cancellation stops the simulation cooperatively.
            match reply_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(Ok(body)) => {
                    shared.metrics.record_latency(start.elapsed().as_secs_f64());
                    (200, Response::json(200, body))
                }
                Ok(Err(e)) => {
                    if e.status == 504 {
                        shared.metrics.record_deadline_expired();
                    }
                    (e.status, Response::json(e.status, api::error_body(&e)))
                }
                Err(_) => {
                    // Deadline hit (or the worker pool vanished mid-
                    // drain, which cancels the same way): stop the run.
                    token.cancel();
                    shared.metrics.record_deadline_expired();
                    let e = ApiError { status: 504, message: "deadline exceeded".into() };
                    (504, Response::json(504, api::error_body(&e)))
                }
            }
        }
    };
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    outcome
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, format!("{{\"error\":{}}}", crate::json::escape(message)))
}

trait RetryAfter {
    fn with_status_headers(self) -> Response;
}

impl RetryAfter for Response {
    /// 503s carry `Retry-After` so well-behaved clients back off.
    fn with_status_headers(self) -> Response {
        self.with_header("Retry-After", "1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::eval::CacheStats;

    /// A job that panics — an index slip in an engine, say — costs its
    /// request a 500 and one count, not the worker: the same wrapper runs
    /// the next job.
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
