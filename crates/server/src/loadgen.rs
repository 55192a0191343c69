//! `specrecon loadgen` — a closed-loop load generator for the eval
//! service.
//!
//! Drives `connections` concurrent keep-alive connections, each issuing
//! `requests` sequential `POST /v1/eval` calls, and reports throughput
//! plus a latency histogram. Closed-loop means each connection waits
//! for its response before sending the next request — throughput is
//! `completed / wall-clock`, the number the CI smoke gate checks.

use crate::http::Client;
use crate::json::Json;
use std::time::{Duration, Instant};

/// Load-generator configuration (the `specrecon loadgen` flags).
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:8077`.
    pub addr: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Requests per connection.
    pub requests: usize,
    /// Workload name sent in each request.
    pub workload: String,
    /// Warps per launch.
    pub warps: usize,
    /// Per-request deadline forwarded to the server.
    pub deadline_ms: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8077".into(),
            connections: 4,
            requests: 25,
            workload: "microbench".into(),
            warps: 1,
            deadline_ms: 10_000,
        }
    }
}

/// Outcome counts and latency distribution of one loadgen run.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests answered 2xx.
    pub ok: u64,
    /// Requests shed with 503 (backpressure).
    pub rejected: u64,
    /// Requests answered 504 (deadline).
    pub timed_out: u64,
    /// Any other status, transport errors included.
    pub failed: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Latencies of 2xx requests, microseconds, unsorted.
    pub latencies_us: Vec<u64>,
}

impl LoadgenReport {
    /// Completed requests (anything that got an HTTP answer).
    pub fn completed(&self) -> u64 {
        self.ok + self.rejected + self.timed_out
    }

    /// 2xx requests per second over the run.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.ok as f64 / secs
        } else {
            0.0
        }
    }

    /// Latency percentile over the 2xx population, in microseconds.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Human-readable summary (what the CLI prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "loadgen: {} ok, {} rejected (503), {} deadline (504), {} failed in {:.2}s",
            self.ok,
            self.rejected,
            self.timed_out,
            self.failed,
            self.elapsed.as_secs_f64()
        );
        let _ = writeln!(out, "throughput: {:.1} req/s (2xx only)", self.throughput());
        if !self.latencies_us.is_empty() {
            let _ = writeln!(
                out,
                "latency: p50 {:.2}ms  p90 {:.2}ms  p99 {:.2}ms  max {:.2}ms",
                self.percentile_us(50.0) as f64 / 1e3,
                self.percentile_us(90.0) as f64 / 1e3,
                self.percentile_us(99.0) as f64 / 1e3,
                self.latencies_us.iter().max().copied().unwrap_or(0) as f64 / 1e3,
            );
            let _ = writeln!(out, "histogram (2xx):\n{}", self.histogram(8));
        }
        out
    }

    /// A log-ish text histogram of 2xx latencies.
    fn histogram(&self, rows: usize) -> String {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let (min, max) = (sorted[0].max(1), *sorted.last().unwrap());
        let mut out = String::new();
        use std::fmt::Write as _;
        // Geometric buckets covering [min, max]; the last bucket's upper
        // edge is nudged up so rounding can't drop the max sample.
        let ratio = (max as f64 / min as f64).powf(1.0 / rows as f64).max(1.0001);
        let mut lo = min as f64 * 0.999;
        for row in 0..rows {
            let hi = if row + 1 == rows {
                max as f64 * 1.001
            } else {
                min as f64 * ratio.powi(row as i32 + 1)
            };
            let count = sorted.iter().filter(|&&v| (v as f64) > lo && (v as f64) <= hi).count();
            let bar = "#".repeat((count * 40 / sorted.len().max(1)).max(usize::from(count > 0)));
            let _ = writeln!(out, "  {:>9.2}ms {:>6} {}", hi / 1e3, count, bar);
            lo = hi;
        }
        out
    }
}

/// Runs the load, returning the merged report.
///
/// # Errors
///
/// Only setup failures (unresolvable address, zero connections); per-
/// request failures are counted in the report instead.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if cfg.connections == 0 || cfg.requests == 0 {
        return Err("loadgen needs at least one connection and one request".into());
    }
    let body = Json::Obj(vec![
        ("workload".into(), Json::str(cfg.workload.clone())),
        ("warps".into(), Json::u64(cfg.warps as u64)),
        ("deadline_ms".into(), Json::u64(cfg.deadline_ms)),
    ])
    .render();

    let started = Instant::now();
    let reports: Vec<LoadgenReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|_| s.spawn(|| drive_connection(&cfg.addr, &body, cfg.requests)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen thread panicked")).collect()
    });

    let mut merged = LoadgenReport::default();
    for r in reports {
        merged.ok += r.ok;
        merged.rejected += r.rejected;
        merged.timed_out += r.timed_out;
        merged.failed += r.failed;
        merged.latencies_us.extend(r.latencies_us);
    }
    merged.elapsed = started.elapsed();
    Ok(merged)
}

/// One connection's closed loop. Transport errors mark the remaining
/// requests failed (the server may be draining).
fn drive_connection(addr: &str, body: &str, requests: usize) -> LoadgenReport {
    let mut report = LoadgenReport::default();
    let mut client: Option<Client> = None;
    for _ in 0..requests {
        // (Re)connect lazily; a dropped keep-alive reconnects once per
        // request at most.
        if client.is_none() {
            client = Client::connect(addr).ok();
        }
        let Some(c) = client.as_mut() else {
            report.failed += 1;
            continue;
        };
        let t0 = Instant::now();
        match c.request("POST", "/v1/eval", body) {
            Ok(reply) => {
                match reply.status {
                    200..=299 => {
                        report.ok += 1;
                        report.latencies_us.push(t0.elapsed().as_micros() as u64);
                    }
                    503 => report.rejected += 1,
                    504 => report.timed_out += 1,
                    _ => report.failed += 1,
                }
                if reply.status == 503 {
                    // Honor backpressure: brief pause before retrying the
                    // connection's next request.
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            Err(_) => {
                report.failed += 1;
                client = None;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_math() {
        let r = LoadgenReport {
            ok: 8,
            rejected: 1,
            timed_out: 1,
            failed: 0,
            elapsed: Duration::from_secs(2),
            latencies_us: vec![1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000],
        };
        assert_eq!(r.completed(), 10);
        assert!((r.throughput() - 4.0).abs() < 1e-9);
        assert_eq!(r.percentile_us(50.0), 5000);
        assert_eq!(r.percentile_us(100.0), 8000);
        let text = r.render();
        assert!(text.contains("8 ok"));
        assert!(text.contains("req/s"));
    }

    #[test]
    fn zero_connections_is_a_setup_error() {
        let cfg = LoadgenConfig { connections: 0, ..LoadgenConfig::default() };
        assert!(run(&cfg).is_err());
    }
}
