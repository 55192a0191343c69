//! Figure 7 (SIMT efficiency before/after) and Figure 8 (relative
//! efficiency improvement vs speedup): one grid of the nine Table-2
//! workloads, each as the PDOM baseline and under Speculative
//! Reconvergence.

use crate::report::{pct, ratio};
use crate::{eff, name, registry, speedup, Body, Rendered, Table, MODES};
use workloads::{Cell, Grid};

fn grid() -> Grid {
    Grid::new(registry()).axis("mode", MODES)
}

/// Each workload's (baseline, SR) cells.
fn pairs(r: &Rendered) -> impl Iterator<Item = &[Cell]> {
    r.cells.chunks(2)
}

/// A workload's SIMT-efficiency gain under SR.
fn gain(c: &[Cell]) -> f64 {
    eff(&c[1]) / eff(&c[0])
}

/// Figure 7: whole-kernel and region-of-interest SIMT efficiency.
pub const FIG7: Table = Table {
    claims: &[
        ("SR efficiency > baseline on every workload", |r| pairs(r).all(|c| gain(c) > 1.0)),
        ("SR ROI efficiency > baseline ROI efficiency on every workload", |r| {
            let roi = |c: &Cell| c.metrics().roi_simt_efficiency();
            pairs(r).all(|c| roi(&c[1]) > roi(&c[0]))
        }),
    ],
    ..Table::new(
        "fig7",
        "Figure 7 — SIMT efficiency (baseline vs Speculative Reconvergence)",
        &["workload", "baseline eff", "SR eff", "baseline ROI eff", "SR ROI eff"],
        Body::Grid(grid, |cells| {
            let roi = |c: &Cell| pct(c.metrics().roi_simt_efficiency());
            let row = |c: &[Cell]| {
                vec![name(&c[0]), pct(eff(&c[0])), pct(eff(&c[1])), roi(&c[0]), roi(&c[1])]
            };
            cells.chunks(2).map(row).collect()
        }),
    )
};

/// Figure 8: SIMT-efficiency gain next to speedup.
pub const FIG8: Table = Table {
    claims: &[
        ("efficiency gain between 10% and 3x on every workload", |r| {
            pairs(r).all(|c| (1.1..=3.0).contains(&gain(c)))
        }),
        ("the best efficiency gain is over 2x (the paper: up to 3x)", |r| {
            pairs(r).any(|c| gain(c) > 2.0)
        }),
        ("SR speeds up every workload", |r| pairs(r).all(|c| speedup(&c[0], &c[1]) > 1.0)),
        ("speedup <= efficiency gain on every workload except optix", |r| {
            pairs(r).all(|c| (speedup(&c[0], &c[1]) <= gain(c)) == (name(&c[0]) != "optix"))
        }),
        ("rsbench has the largest efficiency gain and the largest speedup", |r| {
            let best = |key: fn(&[Cell]) -> f64| {
                pairs(r).max_by(|a, b| key(a).total_cmp(&key(b))).map(|c| name(&c[0]))
            };
            let rsbench = Some("rsbench".to_string());
            best(gain) == rsbench && best(|c| speedup(&c[0], &c[1])) == rsbench
        }),
    ],
    ..Table::new(
        "fig8",
        "Figure 8 — relative SIMT-efficiency improvement vs speedup",
        &["workload", "SIMT efficiency gain", "speedup"],
        Body::Grid(grid, |cells| {
            let row = |c: &[Cell]| vec![name(&c[0]), ratio(gain(c)), ratio(speedup(&c[0], &c[1]))];
            cells.chunks(2).map(row).collect()
        }),
    )
};
