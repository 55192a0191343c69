//! The `specrecon serve` child of the `serve-*` workloads, and the peak
//! memory of a process as `/proc` has it.

use crate::http::Conn;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running service. Dropping it kills the child and waits for it, so
/// that no exit path of the harness leaves a server behind.
pub struct Service {
    child: Child,
    /// Kept open: the service prints a line when it drains, and a closed
    /// pipe would turn that line into a panic.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    /// Spawn until the first `/healthz` answered.
    pub boot: Duration,
}

impl Service {
    /// Starts `specrecon serve` on a free port with two workers and waits
    /// until it answers.
    pub fn spawn(specrecon: &Path) -> Result<Service, String> {
        let start = Instant::now();
        let mut child = Command::new(specrecon)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", specrecon.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let addr = stdout
            .read_line(&mut banner)
            .ok()
            .and_then(|_| banner.trim().strip_prefix("listening on "))
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("service printed {banner:?}, not its address"));
        };
        let mut service = Service { child, _stdout: stdout, addr, boot: Duration::ZERO };
        let health = service.connect()?.send("GET", "/healthz", b"").map_err(|e| e.to_string())?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        service.boot = start.elapsed();
        Ok(service)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr).map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// `GET /metrics`, as text.
    pub fn scrape(&self) -> Result<String, String> {
        let r = self.connect()?.send("GET", "/metrics", b"").map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!("/metrics answered {}", r.status));
        }
        String::from_utf8(r.body).map_err(|e| e.to_string())
    }

    /// Asks the service to drain (SIGTERM) and waits for a clean exit;
    /// returns how long that took.
    pub fn drain(mut self) -> Result<Duration, String> {
        let start = Instant::now();
        let sent = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .map_err(|e| format!("cannot run kill: {e}"))?;
        if !sent.success() {
            return Err("kill -TERM failed".into());
        }
        let deadline = start + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(start.elapsed()),
                Some(status) => return Err(format!("service exited with {status} on SIGTERM")),
                None if Instant::now() > deadline => return Err("service did not drain".into()),
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Errors mean the child is already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The value of an unlabelled sample `name` in Prometheus text.
pub fn sample(metrics: &str, name: &str) -> Option<f64> {
    metrics.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Requests answered with a status outside 2xx, from
/// `specrecon_requests_total{code="..."}`.
pub fn non_2xx(metrics: &str) -> f64 {
    metrics
        .lines()
        .filter_map(|l| l.strip_prefix("specrecon_requests_total{code=\"")?.split_once("\"} "))
        .filter(|(code, _)| !code.starts_with('2'))
        .filter_map(|(_, n)| n.trim().parse::<f64>().ok())
        .sum()
}

/// Peak resident set of process `pid`, in MiB (`VmHWM`).
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_prometheus_samples() {
        let text = "# HELP x\nspecrecon_queue_depth_peak 3\nspecrecon_cache_hit_rate 0.75\n\
                    specrecon_requests_total{code=\"200\"} 40\n\
                    specrecon_requests_total{code=\"400\"} 2\n\
                    specrecon_requests_total{code=\"503\"} 1\n";
        assert_eq!(sample(text, "specrecon_queue_depth_peak"), Some(3.0));
        assert_eq!(sample(text, "specrecon_cache_hit_rate"), Some(0.75));
        assert_eq!(sample(text, "specrecon_queue_depth"), None);
        assert_eq!(non_2xx(text), 3.0);
    }

    #[test]
    fn reads_its_own_process_statistics() {
        let pid = std::process::id();
        assert!(peak_rss_mib(pid).unwrap() > 0.5);
    }
}
