//! The paper's headline claims, checked at reduced scale against the
//! whole benchmark suite. (The bench crate re-checks them on the quick
//! render of its figures; these keep `cargo test --workspace` honest.)

use specrecon::sim::Metrics;
use specrecon::workloads::eval::shared;
use specrecon::workloads::{pathtracer, registry, xsbench, Cell, Grid, RunSpec};

/// Every registry workload at `warps` warps, as the PDOM baseline and
/// under SR: one grid, which checks that both leave the same memory.
fn suite(warps: usize) -> Vec<Cell> {
    let bases = registry().into_iter().map(|mut w| {
        w.launch.num_warps = warps;
        RunSpec::of(w)
    });
    let grid = Grid::new(bases.collect()).axis("mode", ["baseline", "speculative"]);
    shared().run_grid(&grid).unwrap_or_else(|e| panic!("{e}"))
}

fn speedup(base: &Metrics, sr: &Metrics) -> f64 {
    base.cycles as f64 / sr.cycles as f64
}

/// §5.2 / Figures 7–8: every workload gains SIMT efficiency (10%..3x) and
/// none slows down; speedup stays roughly bounded by the efficiency gain.
#[test]
fn figure7_and_8_shapes_hold() {
    let mut best_gain: f64 = 0.0;
    for c in suite(1).chunks(2) {
        let (name, base, sr) = (c[0].spec.workload.name, c[0].metrics(), c[1].metrics());
        let gain = sr.simt_efficiency() / base.simt_efficiency();
        let speedup = speedup(base, sr);
        assert!(gain > 1.05, "{name}: efficiency gain {gain:.2}");
        assert!(speedup > 0.95, "{name}: speedup {speedup:.2}");
        assert!(
            speedup < gain * 1.35,
            "{name}: speedup {speedup:.2} exceeds efficiency gain {gain:.2} implausibly"
        );
        best_gain = best_gain.max(gain);
    }
    assert!(best_gain > 2.0, "the paper reports gains up to ~3x; best here {best_gain:.2}x");
}

/// §5.3 / Figure 9: PathTracer peaks at the full barrier; XSBench peaks at
/// a partial soft-barrier threshold.
#[test]
fn figure9_crossover_holds() {
    let thresholds = [4u32, 8, 16, 24, 32];
    let pt = pathtracer::build(&pathtracer::Params {
        num_samples: 192,
        num_warps: 1,
        ..pathtracer::Params::default()
    });
    let xs = xsbench::build(&xsbench::Params {
        num_tasks: 192,
        num_warps: 1,
        ..xsbench::Params::default()
    });
    let grid = Grid::new(vec![RunSpec::of(pt), RunSpec::of(xs)])
        .axis("threshold", thresholds)
        .axis("mode", ["baseline", "speculative"]);
    let cells = shared().run_grid(&grid).unwrap_or_else(|e| panic!("{e}"));
    // Each application's speedup at each threshold.
    let curves: Vec<Vec<(u32, f64)>> = cells
        .chunks(2 * thresholds.len())
        .map(|app| {
            let points = thresholds.iter().zip(app.chunks(2));
            points.map(|(&t, c)| (t, speedup(c[0].metrics(), c[1].metrics()))).collect()
        })
        .collect();
    let best = |curve: &[(u32, f64)]| *curve.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();

    let (pt_best, _) = best(&curves[0]);
    assert_eq!(pt_best, 32, "pathtracer should peak at the full barrier");
    let (xs_best, xs_peak) = best(&curves[1]);
    assert_ne!(xs_best, 32, "xsbench should peak below the full barrier");
    let xs_full = curves[1].last().unwrap().1;
    assert!(xs_peak > xs_full, "partial threshold {xs_peak:.3} must beat full {xs_full:.3}");
}

/// §5.2: SR never changes kernel results — checked here across every
/// workload (the grid compares the two modes' final memories).
#[test]
fn results_preserved_across_the_whole_suite() {
    assert_eq!(suite(2).len(), 18);
}
