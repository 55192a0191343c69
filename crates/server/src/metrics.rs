//! Service counters exported in the Prometheus text exposition format.
//!
//! Request counters by status code, a cumulative-bucket latency histogram
//! for `/v1/eval` and the in-flight gauge are lock-free atomics; the
//! simulator's counters are one running [`SimCounters`], folded once per
//! request and rendered from the [`Counters`] schema; the queue and
//! compiled-image cache gauges are sampled at scrape time.

use simt_sim::counters::{fold, Counter, CounterKind, Counters};
use simt_sim::{EngineStats, MemStats, ReconStats, SweepStats};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use workloads::eval::CacheStats;

/// Histogram bucket upper bounds, in seconds (Prometheus classic
/// buckets, truncated to the service's realistic range).
pub const LATENCY_BUCKETS: [f64; 12] =
    [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0];

/// Status codes the service emits, in export order.
const CODES: [u16; 9] = [200, 400, 404, 405, 413, 422, 500, 503, 504];

/// The simulator's counters of one request (its seeds folded), or of
/// every request the service answered.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimCounters {
    /// Memory-hierarchy counters (zero unless a hierarchy is configured).
    pub mem: MemStats,
    /// Hardware-reconvergence counters (zero under the barrier file).
    pub recon: ReconStats,
    /// How the decoded engine served its rounds.
    pub engine: EngineStats,
    /// The lockstep cohort's counters (zero unless seeds were a range).
    pub sweep: SweepStats,
}

impl SimCounters {
    /// `self` and `o` folded struct by struct ([`fold`]).
    #[must_use]
    pub fn fold(&self, o: &SimCounters) -> SimCounters {
        SimCounters {
            mem: fold(&self.mem, &o.mem),
            recon: fold(&self.recon, &o.recon),
            engine: fold(&self.engine, &o.engine),
            sweep: fold(&self.sweep, &o.sweep),
        }
    }
}

/// Shared counter registry.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests answered, indexed like [`CODES`].
    by_code: [AtomicU64; 9],
    /// `/v1/eval` latency histogram: per-bucket counts (non-cumulative;
    /// accumulated at render time) plus `+Inf`.
    latency_buckets: [AtomicU64; 13],
    /// Sum of observed latencies, in microseconds.
    latency_sum_us: AtomicU64,
    /// Count of observed latencies.
    latency_count: AtomicU64,
    /// Requests shed with 503 because the queue was full.
    rejected_full: AtomicU64,
    /// Requests shed with 503 because the server was draining.
    rejected_draining: AtomicU64,
    /// Requests that hit their deadline (504).
    deadline_expired: AtomicU64,
    /// Eval jobs that panicked inside a worker and were answered 500.
    worker_panics: AtomicU64,
    /// Eval jobs a worker is running right now (a gauge).
    running: AtomicU64,
    /// The simulator's counters over every answered eval.
    sim: Mutex<SimCounters>,
}

impl ServerMetrics {
    /// Records one answered request.
    pub fn record_status(&self, status: u16) {
        if let Some(i) = CODES.iter().position(|&c| c == status) {
            self.by_code[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one `/v1/eval` latency observation.
    pub fn record_latency(&self, seconds: f64) {
        let idx =
            LATENCY_BUCKETS.iter().position(|&ub| seconds <= ub).unwrap_or(LATENCY_BUCKETS.len());
        self.latency_buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a queue-full rejection.
    pub fn record_rejected_full(&self) {
        self.rejected_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a draining rejection.
    pub fn record_rejected_draining(&self) {
        self.rejected_draining.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a deadline expiry.
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a job that panicked inside a worker.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs `job` counted in the in-flight gauge: from the moment a
    /// worker takes it until its answer exists.
    pub fn running<T>(&self, job: impl FnOnce() -> T) -> T {
        self.running.fetch_add(1, Ordering::Relaxed);
        let out = job();
        self.running.fetch_sub(1, Ordering::Relaxed);
        out
    }

    /// Folds one request's simulator counters into the totals.
    pub fn record_sim(&self, c: &SimCounters) {
        let mut total = self.sim.lock().unwrap_or_else(PoisonError::into_inner);
        *total = total.fold(c);
    }

    /// Total requests answered with a 2xx status.
    pub fn ok_count(&self) -> u64 {
        self.by_code[0].load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition. Gauges (`queue_*`,
    /// cache counters) are sampled by the caller at scrape time.
    pub fn render(
        &self,
        queue_depth: usize,
        queue_peak: usize,
        queue_capacity: usize,
        cache: CacheStats,
    ) -> String {
        let mut out = String::with_capacity(8192);
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let family = |out: &mut String, name: &str, help: &str, kind: &str| {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        };

        family(
            &mut out,
            "specrecon_requests_total",
            "Requests answered, by status code.",
            "counter",
        );
        for (i, &code) in CODES.iter().enumerate() {
            let _ = writeln!(
                out,
                "specrecon_requests_total{{code=\"{code}\"}} {}",
                load(&self.by_code[i])
            );
        }
        family(
            &mut out,
            "specrecon_rejected_total",
            "Requests shed with 503, by reason.",
            "counter",
        );
        for (reason, n) in
            [("queue_full", &self.rejected_full), ("draining", &self.rejected_draining)]
        {
            let _ = writeln!(out, "specrecon_rejected_total{{reason=\"{reason}\"}} {}", load(n));
        }
        let scalars = [
            (
                "deadline_expired_total",
                "Requests that hit their deadline.",
                "counter",
                load(&self.deadline_expired) as f64,
            ),
            (
                "worker_panics_total",
                "Eval jobs that panicked and were answered 500.",
                "counter",
                load(&self.worker_panics) as f64,
            ),
            (
                "inflight_requests",
                "Evaluation jobs running in a worker.",
                "gauge",
                load(&self.running) as f64,
            ),
            (
                "queue_depth",
                "Evaluation jobs waiting in the bounded queue.",
                "gauge",
                queue_depth as f64,
            ),
            ("queue_depth_peak", "High-water mark of the queue depth.", "gauge", queue_peak as f64),
            ("queue_capacity", "Configured queue bound.", "gauge", queue_capacity as f64),
            ("cache_hits_total", "Compiled-image cache hits.", "counter", cache.hits as f64),
            ("cache_misses_total", "Compiled-image cache misses.", "counter", cache.misses as f64),
            (
                "cache_evictions_total",
                "Compiled images evicted by the LRU bound.",
                "counter",
                cache.evictions as f64,
            ),
            (
                "cache_hit_rate",
                "Hit fraction of the compiled-image cache.",
                "gauge",
                cache.hit_rate(),
            ),
        ];
        for (name, help, kind, value) in scalars {
            family(&mut out, &format!("specrecon_{name}"), help, kind);
            let _ = writeln!(out, "specrecon_{name} {value}");
        }

        let sim = *self.sim.lock().unwrap_or_else(PoisonError::into_inner);
        render_counters(&mut out, &sim.sweep);
        let occupancy = "Mean slots per lockstep issue over all sweeps.";
        family(&mut out, "specrecon_sweep_mean_occupancy", occupancy, "gauge");
        let _ = writeln!(out, "specrecon_sweep_mean_occupancy {}", sim.sweep.mean_occupancy());
        render_counters(&mut out, &sim.mem);
        render_counters(&mut out, &sim.recon);
        render_counters(&mut out, &sim.engine);

        let latency = "Wall-clock latency of /v1/eval requests.";
        family(&mut out, "specrecon_eval_latency_seconds", latency, "histogram");
        let mut cumulative = 0u64;
        for (i, ub) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += load(&self.latency_buckets[i]);
            let _ =
                writeln!(out, "specrecon_eval_latency_seconds_bucket{{le=\"{ub}\"}} {cumulative}");
        }
        cumulative += load(&self.latency_buckets[LATENCY_BUCKETS.len()]);
        let _ = writeln!(out, "specrecon_eval_latency_seconds_bucket{{le=\"+Inf\"}} {cumulative}");
        let sum = load(&self.latency_sum_us) as f64 / 1e6;
        let _ = writeln!(out, "specrecon_eval_latency_seconds_sum {sum}");
        let _ = writeln!(out, "specrecon_eval_latency_seconds_count {}", load(&self.latency_count));
        out
    }
}

/// A counter's Prometheus series name and metric type: a
/// [`CounterKind::Sum`] is `specrecon_<group>_<name>_total`, a counter; a
/// [`CounterKind::Max`] drops the suffix and is a gauge. A `.` in the
/// name becomes `_`; a per-level counter carries a `level="L<n>"` label.
pub fn series(group: &str, c: &Counter) -> (String, &'static str) {
    let name = format!("specrecon_{group}_{}", c.name.replace('.', "_"));
    match c.kind {
        CounterKind::Sum => (name + "_total", "counter"),
        CounterKind::Max => (name, "gauge"),
    }
}

/// Every counter of `stats`, one metric family per name (the levels of a
/// per-level counter are its samples).
fn render_counters<T: Counters>(out: &mut String, stats: &T) {
    let mut all = Vec::new();
    stats.visit(|c| all.push(c));
    for (i, c) in all.iter().enumerate() {
        if all[..i].iter().any(|p| p.name == c.name) {
            continue;
        }
        let (name, kind) = series(T::GROUP, c);
        let _ = writeln!(out, "# HELP {name} {}.\n# TYPE {name} {kind}", c.help);
        for s in all[i..].iter().filter(|s| s.name == c.name) {
            let _ = match s.level {
                Some(l) => writeln!(out, "{name}{{level=\"L{}\"}} {}", l + 1, s.value),
                None => writeln!(out, "{name} {}", s.value),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_sim::MemLevelStats;

    #[test]
    fn render_is_prometheus_shaped() {
        let m = ServerMetrics::default();
        m.record_status(200);
        m.record_status(200);
        m.record_status(503);
        m.record_rejected_full();
        m.record_latency(0.003);
        m.record_latency(0.3);
        m.record_latency(30.0); // lands in +Inf
        let cache = CacheStats { hits: 3, misses: 1, evictions: 0, entries: 1 };
        let inside = m.running(|| m.render(2, 4, 8, cache));
        assert!(inside.contains("specrecon_inflight_requests 1"), "{inside}");
        let text = m.render(2, 4, 8, cache);
        assert!(text.contains("specrecon_inflight_requests 0"), "{text}");
        assert!(text.contains("specrecon_requests_total{code=\"200\"} 2"), "{text}");
        assert!(text.contains("specrecon_requests_total{code=\"503\"} 1"), "{text}");
        assert!(text.contains("specrecon_rejected_total{reason=\"queue_full\"} 1"), "{text}");
        assert!(text.contains("specrecon_queue_depth 2"), "{text}");
        assert!(text.contains("specrecon_queue_depth_peak 4"), "{text}");
        assert!(text.contains("specrecon_cache_hit_rate 0.75"), "{text}");
        // Histogram buckets are cumulative and +Inf matches the count.
        assert!(text.contains("specrecon_eval_latency_seconds_bucket{le=\"0.005\"} 1"), "{text}");
        assert!(text.contains("specrecon_eval_latency_seconds_bucket{le=\"0.5\"} 2"), "{text}");
        assert!(text.contains("specrecon_eval_latency_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("specrecon_eval_latency_seconds_count 3"), "{text}");
    }

    #[test]
    fn sweep_counters_accumulate_and_render() {
        let m = ServerMetrics::default();
        let empty = CacheStats { hits: 0, misses: 0, evictions: 0, entries: 0 };
        // Before any sweep, the occupancy gauge must not divide by zero.
        let text = m.render(0, 0, 8, CacheStats { ..empty });
        assert!(text.contains("specrecon_sweep_mean_occupancy 0"), "{text}");
        let sweep = |forks, merges, scalar_steps, occupancy_sum, lockstep_issues, peak| {
            let sweep = SweepStats {
                forks,
                merges,
                scalar_steps,
                occupancy_sum,
                lockstep_issues,
                peak_subcohorts: peak,
                ..SweepStats::default()
            };
            m.record_sim(&SimCounters { sweep, ..SimCounters::default() });
        };
        sweep(3, 2, 0, 96, 4, 3);
        sweep(1, 1, 5, 32, 4, 2);
        let text = m.render(0, 0, 8, empty);
        assert!(text.contains("specrecon_sweep_forks_total 4"), "{text}");
        assert!(text.contains("specrecon_sweep_merges_total 3"), "{text}");
        assert!(text.contains("specrecon_sweep_scalar_steps_total 5"), "{text}");
        // (96 + 32) / (4 + 4) = 16 mean slots per issue.
        assert!(text.contains("specrecon_sweep_mean_occupancy 16"), "{text}");
        // A high-water mark is a gauge of the largest, not a sum.
        assert!(text.contains("# TYPE specrecon_sweep_peak_subcohorts gauge"), "{text}");
        assert!(text.contains("specrecon_sweep_peak_subcohorts 3\n"), "{text}");
    }

    #[test]
    fn mem_counters_accumulate_and_render() {
        let m = ServerMetrics::default();
        let empty = CacheStats { hits: 0, misses: 0, evictions: 0, entries: 0 };
        let mem = |levels: [[u64; 4]; 3], dram_accesses, dram_segments| {
            let levels = levels.map(|[hits, misses, mshr_merges, mshr_stall_cycles]| {
                MemLevelStats { hits, misses, mshr_merges, mshr_stall_cycles }
            });
            let mem = MemStats { levels, dram_accesses, dram_segments };
            m.record_sim(&SimCounters { mem, ..SimCounters::default() });
        };
        mem([[10, 2, 1, 8], [1, 1, 0, 0], [0, 0, 0, 0]], 1, 3);
        mem([[5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 0, 0);
        let text = m.render(0, 0, 8, empty);
        assert!(text.contains("specrecon_mem_hits_total{level=\"L1\"} 15"), "{text}");
        assert!(text.contains("specrecon_mem_misses_total{level=\"L1\"} 2"), "{text}");
        assert!(text.contains("specrecon_mem_hits_total{level=\"L2\"} 1"), "{text}");
        assert!(text.contains("specrecon_mem_mshr_merges_total{level=\"L1\"} 1"), "{text}");
        assert!(text.contains("specrecon_mem_mshr_stall_cycles_total{level=\"L1\"} 8"), "{text}");
        assert!(text.contains("specrecon_mem_dram_accesses_total 1"), "{text}");
        assert!(text.contains("specrecon_mem_dram_segments_total 3"), "{text}");
        // One family per counter: its HELP once, then every level.
        assert_eq!(text.matches("# HELP specrecon_mem_hits_total").count(), 1, "{text}");
        assert!(text.contains("specrecon_mem_hits_total{level=\"L3\"} 0"), "{text}");
    }

    #[test]
    fn recon_counters_accumulate_and_render() {
        let m = ServerMetrics::default();
        let empty = CacheStats { hits: 0, misses: 0, evictions: 0, entries: 0 };
        let recon = |stack_pushes, stack_pops, splits, fusions, deferrals, stack_max_depth| {
            let recon = ReconStats {
                stack_pushes,
                stack_pops,
                stack_max_depth,
                splits,
                fusions,
                deferrals,
            };
            m.record_sim(&SimCounters { recon, ..SimCounters::default() });
        };
        recon(4, 4, 0, 0, 0, 2);
        recon(0, 0, 3, 2, 1, 0);
        let text = m.render(0, 0, 8, empty);
        assert!(text.contains("specrecon_recon_stack_pushes_total 4"), "{text}");
        assert!(text.contains("specrecon_recon_stack_pops_total 4"), "{text}");
        assert!(text.contains("specrecon_recon_splits_total 3"), "{text}");
        assert!(text.contains("specrecon_recon_fusions_total 2"), "{text}");
        assert!(text.contains("specrecon_recon_deferrals_total 1"), "{text}");
        assert!(text.contains("specrecon_recon_stack_max_depth 2\n"), "{text}");
    }

    #[test]
    fn ok_count_tracks_2xx() {
        let m = ServerMetrics::default();
        assert_eq!(m.ok_count(), 0);
        m.record_status(200);
        m.record_status(404);
        assert_eq!(m.ok_count(), 1);
    }
}
