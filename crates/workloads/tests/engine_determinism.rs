//! The batch engine must be bit-deterministic: for every registry
//! workload, running with one worker and with many workers must produce
//! byte-identical metrics and final memory. Parallelism may only change
//! wall-clock, never results.

use simt_sim::SimConfig;
use specrecon_core::CompileOptions;
use workloads::{registry, Engine, Workload};

fn small_registry() -> Vec<Workload> {
    registry().iter().map(|w| w.rebind().warps(2).done()).collect()
}

#[test]
fn batch_results_are_identical_for_any_worker_count() {
    let ws = small_registry();
    let cfg = SimConfig::default();
    for opts in [CompileOptions::baseline(), CompileOptions::speculative()] {
        let batch = |engine: &Engine| engine.par_map(&ws, |w| engine.run_config(w, &opts, &cfg));
        let sequential = batch(&Engine::new(1));
        assert_eq!(sequential.len(), ws.len());
        for n in [2, 4, 8] {
            let parallel = batch(&Engine::new(n));
            assert_eq!(sequential.len(), parallel.len());
            for ((s, p), w) in sequential.iter().zip(&parallel).zip(&ws) {
                let (s_summary, s_mem) = s.as_ref().expect("sequential run succeeded");
                let (p_summary, p_mem) = p.as_ref().expect("parallel run succeeded");
                assert_eq!(
                    s_summary, p_summary,
                    "{}: metrics digest diverged at {n} workers",
                    w.name
                );
                assert_eq!(s_mem, p_mem, "{}: final memory diverged at {n} workers", w.name);
            }
        }
    }
}

#[test]
fn full_metrics_are_identical_across_engines() {
    // Beyond the digest: the complete Metrics struct (stall cycles, cache
    // counters, per-warp breakdowns) must match between independent
    // engines, proving the cache and worker pool leak no state into runs.
    let cfg = SimConfig::default();
    let a = Engine::new(1);
    let b = Engine::new(4);
    for w in small_registry() {
        let out_a = a.run_full(&w, &CompileOptions::speculative(), &cfg).expect("runs");
        let out_b = b.run_full(&w, &CompileOptions::speculative(), &cfg).expect("runs");
        assert_eq!(out_a.metrics, out_b.metrics, "{}", w.name);
        assert_eq!(out_a.global_mem, out_b.global_mem, "{}", w.name);
    }
}

#[test]
fn cache_hits_do_not_change_results() {
    // Two runs through one engine: the second hits the image cache; both
    // must equal a run through a fresh engine.
    let cfg = SimConfig::default();
    let engine = Engine::new(2);
    let w = small_registry().remove(0);
    let first = engine.run_config(&w, &CompileOptions::speculative(), &cfg).expect("runs");
    let second = engine.run_config(&w, &CompileOptions::speculative(), &cfg).expect("runs");
    let fresh = Engine::new(1).run_config(&w, &CompileOptions::speculative(), &cfg).expect("runs");
    assert_eq!(first, second);
    assert_eq!(first, fresh);
}
