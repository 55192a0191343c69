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

use crate::report::{pct, ratio};
use crate::{eff, name, speedup, Body, Table, MODES};
use workloads::{Cell, Grid};

/// The threshold axis (the paper's 0..32 sweep at step 4, with 32 = full
/// barrier).
pub const THRESHOLDS: [u32; 9] = [2, 4, 8, 12, 16, 20, 24, 28, 32];

/// Figure 9: both applications at every threshold, each against the PDOM
/// baseline.
pub const TABLE: Table = Table {
    note: "(threshold = arrivals required to release; 32 = full/hard barrier)",
    check: sanity,
    ..Table::new(
        "fig9",
        "Figure 9 — soft-barrier threshold sweep (PathTracer, XSBench)",
        &["app", "threshold", "SIMT efficiency", "speedup"],
        Body::Grid(
            |scale| {
                let bases = vec![scale.spec("pathtracer"), scale.spec("xsbench")];
                Grid::new(bases).axis("threshold", THRESHOLDS).axis("mode", MODES)
            },
            |cells| {
                let point = |c: &[Cell]| {
                    let threshold = c[1].pairs[0].1.clone();
                    vec![name(&c[1]), threshold, pct(eff(&c[1])), ratio(speedup(&c[0], &c[1]))]
                };
                cells.chunks(2).map(point).collect()
            },
        ),
    )
};

/// The paper's qualitative Figure-9 claim: PathTracer is best at the full
/// barrier; XSBench peaks strictly below it.
pub fn sanity(cells: &[Cell]) -> Result<(), String> {
    // (threshold, speedup) along `app`'s curve, and its peak.
    let curve = |app: &str| -> Vec<(&str, f64)> {
        let points = cells.chunks(2).filter(|c| name(&c[0]) == app);
        points.map(|c| (c[1].pairs[0].1.as_str(), speedup(&c[0], &c[1]))).collect()
    };
    fn peak<'a>(curve: &[(&'a str, f64)]) -> Option<(&'a str, f64)> {
        curve.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1))
    }
    let (pathtracer, xsbench) = (curve("pathtracer"), curve("xsbench"));
    let (pt_best, _) = peak(&pathtracer).ok_or("no points for pathtracer")?;
    if pt_best != "32" {
        return Err(format!("pathtracer should peak at the full barrier, peaked at {pt_best}"));
    }
    let (xs_best, xs_peak) = peak(&xsbench).ok_or("no points for xsbench")?;
    let (_, xs_full) = xsbench.iter().find(|p| p.0 == "32").ok_or("no point for xsbench at 32")?;
    if xs_best == "32" || xs_peak <= *xs_full {
        return Err(format!(
            "xsbench should peak below the full barrier: {xs_peak:.3} at {xs_best}, {xs_full:.3} at 32"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::cells;

    #[test]
    fn quick_scale_reproduces_figure_9_crossover() {
        sanity(cells("fig9")).unwrap();
    }
}
