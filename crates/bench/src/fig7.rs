//! Figure 7 (SIMT efficiency before/after) and Figure 8 (relative
//! efficiency improvement vs speedup): one grid of the nine Table-2
//! workloads, each as the PDOM baseline and under Speculative
//! Reconvergence.

use crate::report::{pct, ratio};
use crate::{eff, name, speedup, Body, Scale, Table, MODES};
use workloads::{Cell, Grid};

fn grid(scale: Scale) -> Grid {
    Grid::new(scale.registry()).axis("mode", MODES)
}

/// Figure 7: whole-kernel and region-of-interest SIMT efficiency.
pub const FIG7: Table = Table {
    check: sanity,
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
pub const FIG8: Table = Table::new(
    "fig8",
    "Figure 8 — relative SIMT-efficiency improvement vs speedup",
    &["workload", "SIMT efficiency gain", "speedup"],
    Body::Grid(grid, |cells| {
        let row = |c: &[Cell]| {
            vec![name(&c[0]), ratio(eff(&c[1]) / eff(&c[0])), ratio(speedup(&c[0], &c[1]))]
        };
        cells.chunks(2).map(row).collect()
    }),
);

/// The paper's headline check: every workload improves, the best by
/// roughly 3x, and speedup is (approximately) bounded by the efficiency
/// gain.
pub fn sanity(cells: &[Cell]) -> Result<(), String> {
    if cells.len() != 18 {
        return Err(format!("expected 9 workloads, got {}", cells.len() / 2));
    }
    let mut best: f64 = 0.0;
    for c in cells.chunks(2) {
        let (name, gain, speedup) = (name(&c[0]), eff(&c[1]) / eff(&c[0]), speedup(&c[0], &c[1]));
        if gain < 1.05 {
            return Err(format!("{name}: SIMT efficiency gain collapsed ({gain:.2}x)"));
        }
        if speedup < 0.95 {
            return Err(format!(
                "{name}: speculative reconvergence slowed it down ({speedup:.2}x)"
            ));
        }
        // "SIMT efficiency improvement serves roughly as an upper bound on
        // speedup" (§5.2) — allow slack for second-order effects.
        if speedup > gain * 1.35 {
            return Err(format!(
                "{name}: speedup {speedup:.2}x implausibly exceeds efficiency gain {gain:.2}x"
            ));
        }
        best = best.max(gain);
    }
    if best < 2.0 {
        return Err(format!("best efficiency gain {best:.2}x; the paper reports up to ~3x"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::cells;

    #[test]
    fn quick_scale_reproduces_figure_7_and_8_shapes() {
        sanity(cells("fig7")).unwrap();
    }
}
