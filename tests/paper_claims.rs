//! The paper's headline claims, checked at reduced scale against the
//! whole benchmark suite. (The bench crate re-checks them at full scale;
//! these keep `cargo test --workspace` honest.)

use specrecon::passes::CompileOptions;
use specrecon::sim::SimConfig;
use specrecon::workloads::eval::shared;
use specrecon::workloads::{pathtracer, registry, xsbench};

/// §5.2 / Figures 7–8: every workload gains SIMT efficiency (10%..3x) and
/// none slows down; speedup stays roughly bounded by the efficiency gain.
#[test]
fn figure7_and_8_shapes_hold() {
    let cfg = SimConfig::default();
    let mut best_gain: f64 = 0.0;
    for w in registry() {
        let w = w.rebind().warps(1).done();
        let c = shared().compare(&w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let gain = c.efficiency_gain();
        let speedup = c.speedup();
        assert!(gain > 1.05, "{}: efficiency gain {gain:.2}", w.name);
        assert!(speedup > 0.95, "{}: speedup {speedup:.2}", w.name);
        assert!(
            speedup < gain * 1.35,
            "{}: speedup {speedup:.2} exceeds efficiency gain {gain:.2} implausibly",
            w.name
        );
        best_gain = best_gain.max(gain);
    }
    assert!(best_gain > 2.0, "the paper reports gains up to ~3x; best here {best_gain:.2}x");
}

/// §5.3 / Figure 9: PathTracer peaks at the full barrier; XSBench peaks at
/// a partial soft-barrier threshold.
#[test]
fn figure9_crossover_holds() {
    let cfg = SimConfig::default();
    let grid = [4u32, 8, 16, 24, 32];

    let best_threshold = |w: &specrecon::workloads::Workload| -> (u32, f64) {
        grid.iter()
            .map(|&t| {
                let c = shared()
                    .compare_with(
                        &w.rebind().threshold(t).done(),
                        &CompileOptions::speculative(),
                        &cfg,
                    )
                    .unwrap_or_else(|e| panic!("{} T={t}: {e}", w.name));
                (t, c.speedup())
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
    };

    let pt = pathtracer::build(&pathtracer::Params {
        num_samples: 192,
        num_warps: 1,
        ..pathtracer::Params::default()
    });
    let (pt_best, _) = best_threshold(&pt);
    assert_eq!(pt_best, 32, "pathtracer should peak at the full barrier");

    let xs = xsbench::build(&xsbench::Params {
        num_tasks: 192,
        num_warps: 1,
        ..xsbench::Params::default()
    });
    let (xs_best, xs_peak) = best_threshold(&xs);
    assert_ne!(xs_best, 32, "xsbench should peak below the full barrier");
    let xs_full = shared()
        .compare_with(&xs.rebind().threshold(32).done(), &CompileOptions::speculative(), &cfg)
        .unwrap()
        .speedup();
    assert!(xs_peak > xs_full, "partial threshold {xs_peak:.3} must beat full {xs_full:.3}");
}

/// §5.2: SR never changes kernel results — checked here across every
/// workload (`Engine::compare` verifies output equality internally).
#[test]
fn results_preserved_across_the_whole_suite() {
    let cfg = SimConfig::default();
    for w in registry() {
        let w = w.rebind().warps(2).done();
        shared().compare(&w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    }
}
