//! The batch engine must be bit-deterministic: for every registry
//! workload, running with one worker and with many workers must produce
//! byte-identical metrics and final memory. Parallelism may only change
//! wall-clock, never results.

use simt_sim::SimConfig;
use specrecon_core::CompileOptions;
use workloads::{registry, Engine, Grid, RunSpec, Workload};

fn small_registry() -> Vec<Workload> {
    let mut ws = registry();
    for w in &mut ws {
        w.launch.num_warps = 2;
    }
    ws
}

#[test]
fn batch_results_are_identical_for_any_worker_count() {
    let bases = small_registry().into_iter().map(RunSpec::of).collect();
    let grid = Grid::new(bases).axis("mode", ["baseline", "speculative"]);
    let sequential = Engine::new(1).run_grid(&grid).expect("sequential grid runs");
    assert_eq!(sequential.len(), 18);
    for n in [2, 4, 8] {
        let parallel = Engine::new(n).run_grid(&grid).expect("parallel grid runs");
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.name(), p.name(), "grid order at {n} workers");
            let (s, p, cell) = (&s.runs[0], &p.runs[0], s.name());
            assert_eq!(s.metrics, p.metrics, "{cell}: metrics diverged at {n} workers");
            assert_eq!(s.global_mem, p.global_mem, "{cell}: final memory diverged at {n} workers");
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
    let run = |engine: &Engine| {
        let out = engine.run_full(&w, &CompileOptions::speculative(), &cfg).expect("runs");
        (out.metrics, out.global_mem)
    };
    let (first, second, fresh) = (run(&engine), run(&engine), run(&Engine::new(1)));
    assert_eq!(engine.cache_stats().hits, 1);
    assert_eq!(first, second);
    assert_eq!(first, fresh);
}
