//! Figure 9: SIMT efficiency and speedup as a function of the
//! soft-barrier threshold, for PathTracer and XSBench.
//!
//! Threshold semantics (documented in EXPERIMENTS.md): our `T` is the
//! number of threads that must arrive at the reconvergence point before
//! the group releases; `T = warp width` (and degenerate values `0`/`1`)
//! lower to the hard barrier. The paper's x-axis counts *active threads
//! remaining*, i.e. roughly `warp_width - T`; either way the qualitative
//! claim is the same: PathTracer (cheap refill) peaks at full convergence,
//! XSBench (expensive refill) peaks at a partial threshold.

use crate::Scale;
use simt_sim::SimConfig;
use specrecon_core::CompileOptions;
use workloads::eval::{self, Engine};
use workloads::{pathtracer, xsbench, Workload};

/// One point of a Figure 9 curve.
#[derive(Clone, Debug)]
pub struct Point {
    /// Application name.
    pub app: String,
    /// Soft-barrier threshold (32 = hard/full barrier).
    pub threshold: u32,
    /// SIMT efficiency at this threshold.
    pub simt_eff: f64,
    /// Speedup over the PDOM baseline at this threshold.
    pub speedup: f64,
}

/// The default threshold grid (matching the paper's 0..32 sweep at step
/// 4, with 32 = full barrier).
pub const THRESHOLDS: [u32; 9] = [2, 4, 8, 12, 16, 20, 24, 28, 32];

/// Sweeps both Figure 9 applications over [`THRESHOLDS`], sequentially
/// on the shared engine.
pub fn collect(scale: Scale) -> Vec<Point> {
    collect_with(eval::shared(), scale)
}

/// [`collect`] on a caller-provided [`Engine`]: every (app, threshold)
/// point is an independent job on the engine's worker pool.
pub fn collect_with(engine: &Engine, scale: Scale) -> Vec<Point> {
    let mut out = Vec::new();
    for w in [
        pathtracer::build(&pathtracer::Params::default()),
        xsbench::build(&xsbench::Params::default()),
    ] {
        out.extend(sweep_with(engine, &scale.apply(&w), &THRESHOLDS));
    }
    out
}

/// Sweeps one workload over the given thresholds.
pub fn sweep(w: &Workload, thresholds: &[u32]) -> Vec<Point> {
    sweep_with(eval::shared(), w, thresholds)
}

/// [`sweep`] on a caller-provided [`Engine`], one job per threshold.
pub fn sweep_with(engine: &Engine, w: &Workload, thresholds: &[u32]) -> Vec<Point> {
    let cfg = SimConfig::default();
    engine.par_map(thresholds, |&t| {
        let wt = w.rebind().threshold(t).done();
        let c = engine
            .compare_with(&wt, &CompileOptions::speculative(), &cfg)
            .unwrap_or_else(|e| panic!("{} at threshold {t} failed: {e}", w.name));
        Point {
            app: w.name.to_string(),
            threshold: t,
            simt_eff: c.speculative.simt_eff,
            speedup: c.speedup(),
        }
    })
}

/// The paper's qualitative Figure-9 claim: PathTracer is best at the full
/// barrier; XSBench peaks strictly below it.
pub fn sanity(points: &[Point]) -> Result<(), String> {
    let best = |app: &str| -> Result<(u32, f64), String> {
        points
            .iter()
            .filter(|p| p.app == app)
            .map(|p| (p.threshold, p.speedup))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .ok_or_else(|| format!("no points for {app}"))
    };
    let at = |app: &str, t: u32| -> Result<f64, String> {
        points
            .iter()
            .find(|p| p.app == app && p.threshold == t)
            .map(|p| p.speedup)
            .ok_or_else(|| format!("no point for {app} at {t}"))
    };

    let (pt_best, _) = best("pathtracer")?;
    if pt_best != 32 {
        return Err(format!("pathtracer should peak at the full barrier, peaked at {pt_best}"));
    }
    let (xs_best, xs_speedup) = best("xsbench")?;
    if xs_best == 32 {
        return Err("xsbench should peak below the full barrier".to_string());
    }
    let xs_full = at("xsbench", 32)?;
    if xs_speedup <= xs_full {
        return Err(format!(
            "xsbench partial-threshold peak ({xs_speedup:.3}) should beat the full barrier ({xs_full:.3})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_reproduces_figure_9_crossover() {
        // A coarser grid keeps the test fast while still showing the
        // crossover.
        let mut points = Vec::new();
        for w in [
            pathtracer::build(&pathtracer::Params {
                num_samples: 192,
                num_warps: 1,
                ..pathtracer::Params::default()
            }),
            xsbench::build(&xsbench::Params {
                num_tasks: 192,
                num_warps: 1,
                ..xsbench::Params::default()
            }),
        ] {
            points.extend(sweep(&w, &[4, 8, 16, 24, 32]));
        }
        sanity(&points).unwrap();
    }
}
