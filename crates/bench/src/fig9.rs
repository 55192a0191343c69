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
use crate::{eff, name, spec, speedup, Body, Rendered, Table, MODES};
use workloads::{Cell, Grid};

/// The threshold axis (the paper's 0..32 sweep at step 4, with 32 = full
/// barrier).
pub const THRESHOLDS: [u32; 9] = [2, 4, 8, 12, 16, 20, 24, 28, 32];

/// Figure 9: both applications at every threshold, each against the PDOM
/// baseline.
pub const TABLE: Table = Table {
    note: "(threshold = arrivals required to release; 32 = full/hard barrier)",
    claims: &[
        ("pathtracer peaks at the full barrier (T = 32)", |r| peak(r, "pathtracer") == "32"),
        ("xsbench peaks below the full barrier, faster than at it", |r| peak(r, "xsbench") != "32"),
        ("both curves are lowest at T = 2", |r| {
            ["pathtracer", "xsbench"].iter().all(|app| {
                let curve = curve(r, app);
                curve.iter().min_by(|a, b| a.1.total_cmp(&b.1)).map(|p| p.0) == Some("2")
            })
        }),
    ],
    ..Table::new(
        "fig9",
        "Figure 9 — soft-barrier threshold sweep (PathTracer, XSBench)",
        &["app", "threshold", "SIMT efficiency", "speedup"],
        Body::Grid(
            || {
                let bases = vec![spec("pathtracer"), spec("xsbench")];
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

/// `app`'s (threshold, speedup) points.
fn curve<'a>(r: &'a Rendered, app: &str) -> Vec<(&'a str, f64)> {
    let points = r.cells.chunks(2).filter(|c| name(&c[0]) == app);
    points.map(|c| (c[1].pairs[0].1.as_str(), speedup(&c[0], &c[1]))).collect()
}

/// The threshold of `app`'s fastest point (the last, on a tie).
fn peak<'a>(r: &'a Rendered, app: &str) -> &'a str {
    curve(r, app).into_iter().max_by(|a, b| a.1.total_cmp(&b.1)).map_or("", |p| p.0)
}
