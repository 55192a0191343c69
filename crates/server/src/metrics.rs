//! Service counters exported in the Prometheus text exposition format.
//!
//! Everything is lock-free atomics: request counters by status code,
//! a cumulative-bucket latency histogram for `/v1/eval`, and gauges
//! sampled at scrape time (queue depth, compiled-image cache counters).

use std::sync::atomic::{AtomicU64, Ordering};
use workloads::eval::CacheStats;

/// Histogram bucket upper bounds, in seconds (Prometheus classic
/// buckets, truncated to the service's realistic range).
pub const LATENCY_BUCKETS: [f64; 12] =
    [0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0];

/// Status codes the service emits, in export order.
const CODES: [u16; 9] = [200, 400, 404, 405, 413, 422, 500, 503, 504];

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
    /// Sweep-engine sub-cohort forks across all sweep requests.
    sweep_forks: AtomicU64,
    /// Sweep-engine sub-cohort merges across all sweep requests.
    sweep_merges: AtomicU64,
    /// Scheduling rounds sweep instances spent on detached scalar
    /// machines (the escape hatch; 0 in healthy fork/merge traffic).
    sweep_scalar_steps: AtomicU64,
    /// Lockstep issues across all sweep requests (occupancy denominator).
    sweep_issues: AtomicU64,
    /// Summed issue widths across all sweep requests (occupancy
    /// numerator: `sweep_occupancy_sum / sweep_issues` is the mean
    /// slots-per-issue).
    sweep_occupancy_sum: AtomicU64,
    /// Cache hits per memory-hierarchy level (index 0 = L1) across all
    /// hierarchy-model runs.
    mem_hits: [AtomicU64; 3],
    /// Cache misses per memory-hierarchy level.
    mem_misses: [AtomicU64; 3],
    /// Misses merged into an in-flight MSHR entry, per level.
    mem_mshr_merges: [AtomicU64; 3],
    /// MSHR penalty cycles (merge waits + full-file stalls), per level.
    mem_mshr_stalls: [AtomicU64; 3],
    /// Global accesses that missed every cache level.
    mem_dram_accesses: AtomicU64,
    /// DRAM segments serviced.
    mem_dram_segments: AtomicU64,
    /// IPDOM reconvergence-stack pushes across all hardware-model runs.
    recon_stack_pushes: AtomicU64,
    /// IPDOM reconvergence-stack pops across all hardware-model runs.
    recon_stack_pops: AtomicU64,
    /// Warp splits forked across all hardware-model runs.
    recon_splits: AtomicU64,
    /// Warp-split re-fusions across all hardware-model runs.
    recon_fusions: AtomicU64,
    /// Issue slots given up inside the re-fusion window.
    recon_deferrals: AtomicU64,
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

    /// Folds one completed sweep's engine counters into the registry.
    /// Takes the raw counters (not the stats struct) so the metrics
    /// layer stays decoupled from the simulator types.
    pub fn record_sweep(
        &self,
        forks: u64,
        merges: u64,
        scalar_steps: u64,
        occupancy_sum: u64,
        lockstep_issues: u64,
    ) {
        self.sweep_forks.fetch_add(forks, Ordering::Relaxed);
        self.sweep_merges.fetch_add(merges, Ordering::Relaxed);
        self.sweep_scalar_steps.fetch_add(scalar_steps, Ordering::Relaxed);
        self.sweep_occupancy_sum.fetch_add(occupancy_sum, Ordering::Relaxed);
        self.sweep_issues.fetch_add(lockstep_issues, Ordering::Relaxed);
    }

    /// Folds one request's hardware-reconvergence counters into the
    /// registry. Raw counters (like [`ServerMetrics::record_sweep`]) so
    /// the metrics layer stays decoupled from the simulator types.
    pub fn record_recon(
        &self,
        stack_pushes: u64,
        stack_pops: u64,
        splits: u64,
        fusions: u64,
        deferrals: u64,
    ) {
        self.recon_stack_pushes.fetch_add(stack_pushes, Ordering::Relaxed);
        self.recon_stack_pops.fetch_add(stack_pops, Ordering::Relaxed);
        self.recon_splits.fetch_add(splits, Ordering::Relaxed);
        self.recon_fusions.fetch_add(fusions, Ordering::Relaxed);
        self.recon_deferrals.fetch_add(deferrals, Ordering::Relaxed);
    }

    /// Folds one request's memory-hierarchy counters into the registry.
    /// `levels` is `[hits, misses, mshr_merges, mshr_stall_cycles]` per
    /// cache level (raw counters, like [`ServerMetrics::record_sweep`],
    /// so the metrics layer stays decoupled from the simulator types).
    pub fn record_mem(&self, levels: &[[u64; 4]; 3], dram_accesses: u64, dram_segments: u64) {
        for (i, l) in levels.iter().enumerate() {
            self.mem_hits[i].fetch_add(l[0], Ordering::Relaxed);
            self.mem_misses[i].fetch_add(l[1], Ordering::Relaxed);
            self.mem_mshr_merges[i].fetch_add(l[2], Ordering::Relaxed);
            self.mem_mshr_stalls[i].fetch_add(l[3], Ordering::Relaxed);
        }
        self.mem_dram_accesses.fetch_add(dram_accesses, Ordering::Relaxed);
        self.mem_dram_segments.fetch_add(dram_segments, Ordering::Relaxed);
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
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);

        out.push_str("# HELP specrecon_requests_total Requests answered, by status code.\n");
        out.push_str("# TYPE specrecon_requests_total counter\n");
        for (i, &code) in CODES.iter().enumerate() {
            let _ = writeln!(
                out,
                "specrecon_requests_total{{code=\"{code}\"}} {}",
                self.by_code[i].load(Ordering::Relaxed)
            );
        }

        out.push_str(
            "# HELP specrecon_rejected_total Requests shed with 503, by reason.\n\
             # TYPE specrecon_rejected_total counter\n",
        );
        let _ = writeln!(
            out,
            "specrecon_rejected_total{{reason=\"queue_full\"}} {}",
            self.rejected_full.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            out,
            "specrecon_rejected_total{{reason=\"draining\"}} {}",
            self.rejected_draining.load(Ordering::Relaxed)
        );

        out.push_str(
            "# HELP specrecon_deadline_expired_total Requests that hit their deadline.\n\
             # TYPE specrecon_deadline_expired_total counter\n",
        );
        let _ = writeln!(
            out,
            "specrecon_deadline_expired_total {}",
            self.deadline_expired.load(Ordering::Relaxed)
        );

        out.push_str(
            "# HELP specrecon_worker_panics_total Eval jobs that panicked and were answered 500.\n\
             # TYPE specrecon_worker_panics_total counter\n",
        );
        let _ = writeln!(
            out,
            "specrecon_worker_panics_total {}",
            self.worker_panics.load(Ordering::Relaxed)
        );

        out.push_str(
            "# HELP specrecon_inflight_requests Evaluation jobs running in a worker.\n\
             # TYPE specrecon_inflight_requests gauge\n",
        );
        let _ =
            writeln!(out, "specrecon_inflight_requests {}", self.running.load(Ordering::Relaxed));
        out.push_str(
            "# HELP specrecon_queue_depth Evaluation jobs waiting in the bounded queue.\n\
             # TYPE specrecon_queue_depth gauge\n",
        );
        let _ = writeln!(out, "specrecon_queue_depth {queue_depth}");
        out.push_str(
            "# HELP specrecon_queue_depth_peak High-water mark of the queue depth.\n\
             # TYPE specrecon_queue_depth_peak gauge\n",
        );
        let _ = writeln!(out, "specrecon_queue_depth_peak {queue_peak}");
        out.push_str(
            "# HELP specrecon_queue_capacity Configured queue bound.\n\
             # TYPE specrecon_queue_capacity gauge\n",
        );
        let _ = writeln!(out, "specrecon_queue_capacity {queue_capacity}");

        out.push_str(
            "# HELP specrecon_cache_hits_total Compiled-image cache hits.\n\
             # TYPE specrecon_cache_hits_total counter\n",
        );
        let _ = writeln!(out, "specrecon_cache_hits_total {}", cache.hits);
        out.push_str(
            "# HELP specrecon_cache_misses_total Compiled-image cache misses.\n\
             # TYPE specrecon_cache_misses_total counter\n",
        );
        let _ = writeln!(out, "specrecon_cache_misses_total {}", cache.misses);
        out.push_str(
            "# HELP specrecon_cache_evictions_total Compiled images evicted by the LRU bound.\n\
             # TYPE specrecon_cache_evictions_total counter\n",
        );
        let _ = writeln!(out, "specrecon_cache_evictions_total {}", cache.evictions);
        out.push_str(
            "# HELP specrecon_cache_hit_rate Hit fraction of the compiled-image cache.\n\
             # TYPE specrecon_cache_hit_rate gauge\n",
        );
        let _ = writeln!(out, "specrecon_cache_hit_rate {}", cache.hit_rate());

        out.push_str(
            "# HELP specrecon_sweep_forks_total Sub-cohort forks across all seed sweeps.\n\
             # TYPE specrecon_sweep_forks_total counter\n",
        );
        let _ = writeln!(
            out,
            "specrecon_sweep_forks_total {}",
            self.sweep_forks.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP specrecon_sweep_merges_total Sub-cohort merges across all seed sweeps.\n\
             # TYPE specrecon_sweep_merges_total counter\n",
        );
        let _ = writeln!(
            out,
            "specrecon_sweep_merges_total {}",
            self.sweep_merges.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP specrecon_sweep_scalar_steps_total Rounds sweeps spent on standalone scalar re-runs (sub-cohort cap overflow, hardware reconvergence models).\n\
             # TYPE specrecon_sweep_scalar_steps_total counter\n",
        );
        let _ = writeln!(
            out,
            "specrecon_sweep_scalar_steps_total {}",
            self.sweep_scalar_steps.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP specrecon_sweep_mean_occupancy Mean slots per lockstep issue over all sweeps.\n\
             # TYPE specrecon_sweep_mean_occupancy gauge\n",
        );
        let issues = self.sweep_issues.load(Ordering::Relaxed);
        let occ = if issues == 0 {
            0.0
        } else {
            self.sweep_occupancy_sum.load(Ordering::Relaxed) as f64 / issues as f64
        };
        let _ = writeln!(out, "specrecon_sweep_mean_occupancy {occ}");

        for (what, help, counters) in [
            ("hits", "Cache hits", &self.mem_hits),
            ("misses", "Cache misses", &self.mem_misses),
            ("mshr_merges", "Misses merged into an in-flight MSHR entry", &self.mem_mshr_merges),
            ("mshr_stall_cycles", "MSHR penalty cycles", &self.mem_mshr_stalls),
        ] {
            let _ = writeln!(
                out,
                "# HELP specrecon_mem_{what}_total {help}, per memory-hierarchy level.\n\
                 # TYPE specrecon_mem_{what}_total counter"
            );
            for (i, c) in counters.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "specrecon_mem_{what}_total{{level=\"L{}\"}} {}",
                    i + 1,
                    c.load(Ordering::Relaxed)
                );
            }
        }
        out.push_str(
            "# HELP specrecon_mem_dram_accesses_total Global accesses that missed every cache level.\n\
             # TYPE specrecon_mem_dram_accesses_total counter\n",
        );
        let _ = writeln!(
            out,
            "specrecon_mem_dram_accesses_total {}",
            self.mem_dram_accesses.load(Ordering::Relaxed)
        );
        out.push_str(
            "# HELP specrecon_mem_dram_segments_total DRAM segments serviced.\n\
             # TYPE specrecon_mem_dram_segments_total counter\n",
        );
        let _ = writeln!(
            out,
            "specrecon_mem_dram_segments_total {}",
            self.mem_dram_segments.load(Ordering::Relaxed)
        );

        for (name, help, counter) in [
            ("stack_pushes", "IPDOM reconvergence-stack pushes", &self.recon_stack_pushes),
            ("stack_pops", "IPDOM reconvergence-stack pops", &self.recon_stack_pops),
            ("splits", "Warp splits forked", &self.recon_splits),
            ("fusions", "Warp-split re-fusions", &self.recon_fusions),
            (
                "deferrals",
                "Issue slots deferred inside the re-fusion window",
                &self.recon_deferrals,
            ),
        ] {
            let _ = writeln!(
                out,
                "# HELP specrecon_recon_{name}_total {help}, over hardware-reconvergence runs.\n\
                 # TYPE specrecon_recon_{name}_total counter\n\
                 specrecon_recon_{name}_total {}",
                counter.load(Ordering::Relaxed)
            );
        }

        out.push_str(
            "# HELP specrecon_eval_latency_seconds Wall-clock latency of /v1/eval requests.\n\
             # TYPE specrecon_eval_latency_seconds histogram\n",
        );
        let mut cumulative = 0u64;
        for (i, ub) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.latency_buckets[i].load(Ordering::Relaxed);
            let _ =
                writeln!(out, "specrecon_eval_latency_seconds_bucket{{le=\"{ub}\"}} {cumulative}");
        }
        cumulative += self.latency_buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        let _ = writeln!(out, "specrecon_eval_latency_seconds_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(
            out,
            "specrecon_eval_latency_seconds_sum {}",
            self.latency_sum_us.load(Ordering::Relaxed) as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "specrecon_eval_latency_seconds_count {}",
            self.latency_count.load(Ordering::Relaxed)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        m.record_sweep(3, 2, 0, 96, 4);
        m.record_sweep(1, 1, 5, 32, 4);
        let text = m.render(0, 0, 8, empty);
        assert!(text.contains("specrecon_sweep_forks_total 4"), "{text}");
        assert!(text.contains("specrecon_sweep_merges_total 3"), "{text}");
        assert!(text.contains("specrecon_sweep_scalar_steps_total 5"), "{text}");
        // (96 + 32) / (4 + 4) = 16 mean slots per issue.
        assert!(text.contains("specrecon_sweep_mean_occupancy 16"), "{text}");
    }

    #[test]
    fn mem_counters_accumulate_and_render() {
        let m = ServerMetrics::default();
        let empty = CacheStats { hits: 0, misses: 0, evictions: 0, entries: 0 };
        m.record_mem(&[[10, 2, 1, 8], [1, 1, 0, 0], [0, 0, 0, 0]], 1, 3);
        m.record_mem(&[[5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 0, 0);
        let text = m.render(0, 0, 8, empty);
        assert!(text.contains("specrecon_mem_hits_total{level=\"L1\"} 15"), "{text}");
        assert!(text.contains("specrecon_mem_misses_total{level=\"L1\"} 2"), "{text}");
        assert!(text.contains("specrecon_mem_hits_total{level=\"L2\"} 1"), "{text}");
        assert!(text.contains("specrecon_mem_mshr_merges_total{level=\"L1\"} 1"), "{text}");
        assert!(text.contains("specrecon_mem_mshr_stall_cycles_total{level=\"L1\"} 8"), "{text}");
        assert!(text.contains("specrecon_mem_dram_accesses_total 1"), "{text}");
        assert!(text.contains("specrecon_mem_dram_segments_total 3"), "{text}");
    }

    #[test]
    fn recon_counters_accumulate_and_render() {
        let m = ServerMetrics::default();
        let empty = CacheStats { hits: 0, misses: 0, evictions: 0, entries: 0 };
        m.record_recon(4, 4, 0, 0, 0);
        m.record_recon(0, 0, 3, 2, 1);
        let text = m.render(0, 0, 8, empty);
        assert!(text.contains("specrecon_recon_stack_pushes_total 4"), "{text}");
        assert!(text.contains("specrecon_recon_stack_pops_total 4"), "{text}");
        assert!(text.contains("specrecon_recon_splits_total 3"), "{text}");
        assert!(text.contains("specrecon_recon_fusions_total 2"), "{text}");
        assert!(text.contains("specrecon_recon_deferrals_total 1"), "{text}");
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
