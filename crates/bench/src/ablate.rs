//! Ablations: the design choices DESIGN.md calls out and the mechanism
//! axes the paper holds fixed.
//!
//! - §4.3 static vs dynamic deconfliction (the paper implemented both and
//!   evaluated dynamic);
//! - §6 partial unrolling of the inner loop under Loop Merge
//!   (reconvergence once per N iterations);
//! - sensitivity of the headline result to the scheduler policy, the warp
//!   width, the memory model and the hardware reconvergence model (checks
//!   of the simulator substrate, not paper experiments);
//! - no sync at all, melding, and the soft-barrier threshold suite-wide.

use crate::report::{pct, ratio};
use crate::{cycles, eff, name, speedup, Body, Table, MODES};
use simt_sim::ReconvergenceModel;
use specrecon_core::{unroll_self_loop, CompileOptions};
use workloads::{Cell, Grid, RunSpec};

/// Every Table-2 workload under both deconfliction modes.
pub const DECONFLICT: Table = Table::new(
    "ablate-deconflict",
    "Ablation — §4.3 deconfliction strategy",
    &["workload", "dynamic speedup", "static speedup"],
    Body::Grid(
        |scale| {
            let grid = Grid::new(scale.registry()).axis("deconflict", ["dynamic", "static"]);
            grid.axis("mode", MODES)
        },
        |cells| {
            let row = |c: &[Cell]| {
                vec![name(&c[0]), ratio(speedup(&c[0], &c[1])), ratio(speedup(&c[2], &c[3]))]
            };
            cells.chunks(4).map(row).collect()
        },
    ),
);

/// Unroll factors of RSBench's inner loop (1 = no unrolling).
const UNROLL_FACTORS: [usize; 4] = [1, 2, 4, 8];

/// RSBench's inner loop partially unrolled by each factor under Loop
/// Merge: reconvergence happens once per `factor` iterations, so barrier
/// overhead drops (§6).
pub const UNROLL: Table = Table::new(
    "ablate-unroll",
    "Ablation — §6 partial unrolling × Loop Merge (RSBench)",
    &["unroll factor", "cycles", "barrier ops", "SIMT efficiency"],
    Body::Grid(
        |scale| {
            let unrolled = |factor: usize| {
                let mut spec = scale.spec("rsbench");
                let module = &mut spec.workload.module;
                let kernel = module.function_by_name("rsbench").expect("kernel");
                let f = &mut module.functions[kernel];
                let inner = f.block_by_label("L1").expect("rsbench inner loop is labelled L1");
                if factor > 1 {
                    unroll_self_loop(f, inner, factor).expect("rsbench inner loop unrolls");
                }
                spec
            };
            Grid::new(UNROLL_FACTORS.map(unrolled).to_vec())
        },
        |cells| {
            let row = |c: &Cell| {
                let factor = format!("x{}", UNROLL_FACTORS[c.base]);
                let ops = c.metrics().barrier_ops.to_string();
                vec![factor, cycles(c).to_string(), ops, pct(eff(c))]
            };
            cells.iter().map(row).collect()
        },
    ),
);

/// RSBench under every scheduler policy: the SR win must not be an
/// artifact of one policy.
pub const SCHED: Table = Table::new(
    "ablate-sched",
    "Ablation — scheduler-policy sensitivity (RSBench)",
    &["policy", "baseline cycles", "SR cycles", "speedup"],
    Body::Grid(
        |scale| {
            let policies = ["greedy", "min-pc", "max-pc", "most-threads", "round-robin"];
            Grid::new(vec![scale.spec("rsbench")]).axis("policy", policies).axis("mode", MODES)
        },
        |cells| {
            let row = |c: &[Cell]| {
                let policy = format!("{:?}", c[0].spec.cfg.scheduler);
                let (base, sr) = (cycles(&c[0]).to_string(), cycles(&c[1]).to_string());
                vec![policy, base, sr, ratio(speedup(&c[0], &c[1]))]
            };
            cells.chunks(2).map(row).collect()
        },
    ),
);

/// *No* reconvergence synchronization, PDOM and SR on every workload:
/// PDOM itself earns its keep (free-running threads under a greedy
/// scheduler serialize badly), and SR goes beyond it.
pub const SYNC: Table = Table::new(
    "ablate-sync",
    "Ablation — no sync vs PDOM vs Speculative Reconvergence",
    &["workload", "none eff", "PDOM eff", "SR eff", "none cycles", "PDOM cycles", "SR cycles"],
    Body::Grid(
        |scale| {
            let none = CompileOptions { pdom: false, speculative: false, ..Default::default() };
            let variants = |sr: RunSpec| {
                let mut free = sr.clone();
                free.compile = Some(none.clone());
                let mut pdom = sr.clone();
                pdom.apply(&[("mode", "baseline")]).expect("a mode");
                [free, pdom, sr]
            };
            Grid::new(scale.registry().into_iter().flat_map(variants).collect())
        },
        |cells| {
            let row = |c: &[Cell]| {
                let effs = c.iter().map(|c| pct(eff(c)));
                let cycles = c.iter().map(|c| cycles(c).to_string());
                [name(&c[0])].into_iter().chain(effs).chain(cycles).collect()
            };
            cells.chunks(3).map(row).collect()
        },
    ),
);

/// RSBench at warp widths 8/16/32/64. Wider warps diverge more (the max
/// of more trip-count draws grows), so baseline efficiency falls with
/// width; the *speedup*, interestingly, is largest for narrow warps in
/// this simulator — collecting a full warp at the reconvergence point
/// costs more as the warp widens (longer tails per round), partially
/// offsetting the larger headroom.
pub const WIDTH: Table = Table::new(
    "ablate-width",
    "Ablation — warp width sensitivity (RSBench)",
    &["warp width", "baseline eff", "SR speedup"],
    Body::Grid(
        |scale| {
            let at = |width| {
                let mut spec = scale.spec("rsbench");
                spec.cfg.warp_width = width;
                spec
            };
            Grid::new([8, 16, 32, 64].map(at).to_vec()).axis("mode", MODES)
        },
        |cells| {
            let row = |c: &[Cell]| {
                let width = c[0].spec.cfg.warp_width.to_string();
                vec![width, pct(eff(&c[0])), ratio(speedup(&c[0], &c[1]))]
            };
            cells.chunks(2).map(row).collect()
        },
    ),
);

/// How an L1 cache cost model (§4.5's "caching behavior") changes the SR
/// picture on the two memory-sensitive workloads: 64 lines of 16 cells
/// (128-byte lines), hits cost 2.
pub const CACHE: Table = Table::new(
    "ablate-cache",
    "Ablation — L1 cache cost model (memory-sensitive workloads)",
    &["workload", "SR speedup (no cache)", "SR speedup (cache)", "hit rate"],
    Body::Grid(
        |scale| {
            let both = |name| {
                let flat = scale.spec(name);
                let mut cached = flat.clone();
                cached.apply(&[("mem_hier", "l1:lines=64,cells=16,lat=2")]).expect("an L1");
                [flat, cached]
            };
            Grid::new(["xsbench", "rsbench"].into_iter().flat_map(both).collect())
                .axis("mode", MODES)
        },
        |cells| {
            let row = |c: &[Cell]| {
                let l1 = c[3].metrics().mem.levels[0];
                let hit_rate = l1.hits as f64 / (l1.hits + l1.misses).max(1) as f64;
                let (flat, cached) = (speedup(&c[0], &c[1]), speedup(&c[2], &c[3]));
                vec![name(&c[0]), ratio(flat), ratio(cached), pct(hit_rate)]
            };
            cells.chunks(4).map(row).collect()
        },
    ),
);

/// L1 capacities swept (16-cell lines), smallest first.
pub const MEM_L1_POINTS: [usize; 5] = [2, 4, 8, 16, 64];

/// L1 capacity swept under the full L1/L2/DRAM hierarchy (tight MSHR
/// files) on the memory-sensitive workloads: how the SR-vs-baseline
/// verdict moves.
pub const MEM: Table = Table::new(
    "ablate-mem",
    "Ablation — memory-hierarchy L1 capacity sweep (tight MSHRs)",
    &["workload", "L1 lines", "SR speedup", "SR L1 hit rate", "SR mshr stalls", "base mshr stalls"],
    Body::Grid(
        |scale| {
            let hier = MEM_L1_POINTS.map(|lines| {
                format!(
                    "l1:lines={lines},cells=16,lat=2,mshrs=1;\
                     l2:lines=128,cells=16,lat=8,mshrs=2;\
                     dram:lat=48,extra=4"
                )
            });
            let bases = ["xsbench", "rsbench", "mummer"].map(|name| scale.spec(name));
            Grid::new(bases.to_vec()).axis("mem_hier", hier).axis("mode", MODES)
        },
        |cells| {
            let row = |c: &[Cell]| {
                let stalls = |c: &Cell| -> u64 {
                    c.metrics().mem.levels.iter().map(|l| l.mshr_stall_cycles).sum()
                };
                let lines = c[0].spec.cfg.mem.as_ref().expect("a hierarchy").levels[0].lines;
                vec![
                    name(&c[0]),
                    lines.to_string(),
                    ratio(speedup(&c[0], &c[1])),
                    pct(l1_hit_rate(&c[1])),
                    stalls(&c[1]).to_string(),
                    stalls(&c[0]).to_string(),
                ]
            };
            cells.chunks(2).map(row).collect()
        },
    ),
);

/// A cell's L1 hit rate under a memory hierarchy.
fn l1_hit_rate(c: &Cell) -> f64 {
    let l1 = c.metrics().mem.levels[0];
    l1.hits as f64 / (l1.hits + l1.misses).max(1) as f64
}

/// The reconvergence models the hardware ablation crosses: Volta's
/// barrier file (the default everywhere else), the pre-Volta IPDOM
/// stack, and warp splitting with a re-fusion window plus subwarp
/// compaction.
pub const HW_RECON_MODELS: [&str; 3] =
    ["barrier-file", "ipdom-stack", "warp-split:window=4,compact"];

/// {PDOM, SR} × every reconvergence model over the full workload
/// registry: where does hardware-side divergence repair (warp splitting)
/// close the gap that compiler-side repair (SR) closes, and where does it
/// not?
pub const HW: Table = Table {
    note: "(gap closed = fraction of the barrier-file SR cycle win that the hardware \
           model's PDOM run recovers on its own; negative = the model costs cycles)",
    ..Table::new(
        "ablate-hw",
        "Ablation — hardware reconvergence models × {PDOM, SR}",
        &[
            "workload",
            "model",
            "PDOM cycles",
            "SR cycles",
            "SR speedup",
            "PDOM eff",
            "SR eff",
            "gap closed",
        ],
        Body::Grid(
            |scale| {
                let grid = Grid::new(scale.registry()).axis("recon_model", HW_RECON_MODELS);
                grid.axis("mode", MODES)
            },
            |cells| {
                let models = |c: &[Cell]| {
                    let pdom_bf = cycles(&c[0]) as f64;
                    let gap = pdom_bf - cycles(&c[1]) as f64;
                    let row = move |c: &[Cell]| {
                        let recon = c[0].spec.cfg.recon;
                        let closed = if recon == ReconvergenceModel::BarrierFile || gap.abs() < 1.0
                        {
                            "—".to_string()
                        } else {
                            pct((pdom_bf - cycles(&c[0]) as f64) / gap)
                        };
                        vec![
                            name(&c[0]),
                            recon.spec(),
                            cycles(&c[0]).to_string(),
                            cycles(&c[1]).to_string(),
                            ratio(speedup(&c[0], &c[1])),
                            pct(eff(&c[0])),
                            pct(eff(&c[1])),
                            closed,
                        ]
                    };
                    c.chunks(2).map(row).collect::<Vec<_>>()
                };
                cells.chunks(2 * HW_RECON_MODELS.len()).flat_map(models).collect()
            },
        ),
    )
};

/// The repair strategies the melding ablation crosses.
pub const MELD_REPAIRS: [&str; 4] = ["pdom", "sr", "meld", "sr+meld"];

/// Every repair strategy over the two contrasting shapes: SRAD, whose
/// unbalanced clamp/diffuse arms share an expensive update tail (melding
/// territory — the lanes sit on *different* paths, so no reconvergence
/// schedule de-duplicates the tail), and MUMmer, whose divergence is
/// trip-count imbalance around common code (SR territory — there is
/// nothing isomorphic to meld).
pub const MELD: Table = Table {
    note: "(SRAD's clamp/diffuse arms share an expensive update tail — melding \
           territory; MUMmer's divergence is trip-count imbalance — SR territory)",
    ..Table::new(
        "ablate-meld",
        "Ablation — divergence-repair strategies (control-flow melding)",
        &["workload", "repair", "cycles", "SIMT efficiency", "barrier ops"],
        Body::Grid(
            |scale| {
                let bases = vec![scale.spec("srad"), scale.spec("mummer")];
                Grid::new(bases).axis("repair", MELD_REPAIRS)
            },
            |cells| {
                let row = |c: &Cell| {
                    let (repair, ops) = (c.pairs[0].1.clone(), c.metrics().barrier_ops);
                    vec![name(c), repair, cycles(c).to_string(), pct(eff(c)), ops.to_string()]
                };
                cells.iter().map(row).collect()
            },
        ),
    )
};

/// Soft-barrier thresholds of the suite-wide sweep.
const THRESHOLDS: [u32; 5] = [4, 8, 16, 24, 32];

/// The soft-barrier threshold swept for *every* workload — the suite-wide
/// generalization of Figure 9. The paper leaves "automatically
/// discovering the ideal threshold" to future work; this table shows how
/// far from the full barrier each application's optimum sits.
pub const THRESHOLD: Table = Table::new(
    "ablate-threshold",
    "Ablation — best soft-barrier threshold per workload",
    &["workload", "best threshold", "best speedup", "full-barrier speedup"],
    Body::Grid(
        |scale| Grid::new(scale.registry()).axis("threshold", THRESHOLDS).axis("mode", MODES),
        |cells| {
            let row = |c: &[Cell]| {
                let (best, full) = best_threshold(c);
                vec![name(&c[0]), best.0.to_string(), ratio(best.1), ratio(full)]
            };
            cells.chunks(2 * THRESHOLDS.len()).map(row).collect()
        },
    ),
);

/// One workload's threshold sweep as the best (threshold, speedup) — the
/// first to reach the maximum — and the speedup at the full barrier.
fn best_threshold(c: &[Cell]) -> ((u32, f64), f64) {
    let speedups = c.chunks(2).map(|c| speedup(&c[0], &c[1]));
    let points: Vec<(u32, f64)> = THRESHOLDS.into_iter().zip(speedups).collect();
    let mut best = (32, 0.0);
    for &(t, s) in &points {
        if s > best.1 {
            best = (t, s);
        }
    }
    (best, points[points.len() - 1].1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::cells;

    #[test]
    fn mem_hier_sweep_covers_every_point() {
        let cells = cells("ablate-mem");
        assert_eq!(cells.len(), MEM_L1_POINTS.len() * 3 * 2, "a pair per workload per L1 point");
        for workload in cells.chunks(2 * MEM_L1_POINTS.len()) {
            let (first, last) = (&workload[1], &workload[workload.len() - 1]);
            assert_eq!(first.spec.workload.name, last.spec.workload.name);
            let (small, large) = (l1_hit_rate(first), l1_hit_rate(last));
            assert!(
                large > small,
                "{}: a 32x larger L1 must hit more ({small} -> {large})",
                name(first)
            );
            for c in workload.chunks(2) {
                assert!(speedup(&c[0], &c[1]) > 0.0, "{}: degenerate speedup", c[1].name());
            }
        }
    }

    #[test]
    fn hw_recon_ablation_covers_the_matrix() {
        let cells = cells("ablate-hw");
        assert_eq!(cells.len(), 9 * HW_RECON_MODELS.len() * 2, "a pair per (workload, model)");
        for (i, c) in cells.chunks(2).enumerate() {
            assert_eq!(c[0].spec.cfg.recon.spec(), HW_RECON_MODELS[i % HW_RECON_MODELS.len()]);
            assert!(cycles(&c[0]) > 0 && cycles(&c[1]) > 0, "{}", c[0].name());
            assert!((0.0..=1.0).contains(&eff(&c[0])), "{}", c[0].name());
        }
    }

    #[test]
    fn meld_ablation_covers_the_matrix_and_wins_on_srad() {
        let cells = cells("ablate-meld");
        assert_eq!(cells.len(), 2 * MELD_REPAIRS.len(), "one cell per (workload, strategy)");
        let eff = |name: &str, repair: &str| {
            let cell =
                cells.iter().find(|c| c.spec.workload.name == name && c.pairs[0].1 == repair);
            eff(cell.unwrap_or_else(|| panic!("missing cell {name}/{repair}")))
        };
        for c in cells {
            assert!(cycles(c) > 0 && (0.0..=1.0).contains(&super::eff(c)), "{}", c.name());
        }
        // The headline contrast: melding beats both PDOM and SR on the
        // shared-tail shape, while SR keeps its win on trip-count
        // imbalance where there is nothing to meld.
        assert!(eff("srad", "meld") > eff("srad", "pdom"));
        assert!(eff("srad", "meld") > eff("srad", "sr"));
        assert!(eff("mummer", "sr") > eff("mummer", "pdom"));
    }

    #[test]
    fn both_deconfliction_modes_work_everywhere() {
        for c in cells("ablate-deconflict").chunks(4) {
            let (dynamic, stat) = (speedup(&c[0], &c[1]), speedup(&c[2], &c[3]));
            assert!(dynamic > 0.9, "{}: dynamic {dynamic}", name(&c[0]));
            assert!(stat > 0.85, "{}: static {stat}", name(&c[0]));
        }
    }

    #[test]
    fn unrolling_reduces_barrier_overhead() {
        let cells = cells("ablate-unroll");
        let (x1, x4) = (cells[0].metrics().barrier_ops, cells[2].metrics().barrier_ops);
        assert_eq!(UNROLL_FACTORS[2], 4);
        assert!(x4 < x1, "barrier ops should drop with unrolling: {x1} -> {x4}");
    }

    #[test]
    fn sync_variants_rank_sensibly() {
        for c in cells("ablate-sync").chunks(3) {
            let [none, pdom, sr] = [0, 1, 2].map(|i| eff(&c[i]));
            let name = name(&c[0]);
            assert!(sr > none, "{name}: SR ({sr:.2}) must beat free-running ({none:.2})");
            assert!(sr > pdom, "{name}: SR ({sr:.2}) must beat PDOM ({pdom:.2})");
        }
    }

    #[test]
    fn warp_width_trends_hold() {
        let cells = cells("ablate-width");
        let (w8, w64) = (eff(&cells[0]), eff(&cells[6]));
        assert_eq!((cells[0].spec.cfg.warp_width, cells[6].spec.cfg.warp_width), (8, 64));
        assert!(w64 < w8, "wider warps diverge more: {w8} vs {w64}");
        for c in cells.chunks(2) {
            let (width, s) = (c[0].spec.cfg.warp_width, speedup(&c[0], &c[1]));
            assert!(s > 1.3, "SR wins at every width; width {width} gave {s}");
        }
    }

    #[test]
    fn threshold_sweep_covers_the_suite() {
        let sweeps: Vec<_> = cells("ablate-threshold").chunks(2 * THRESHOLDS.len()).collect();
        assert_eq!(sweeps.len(), 9);
        let best: Vec<_> = sweeps.iter().map(|c| best_threshold(c)).collect();
        for ((t, s), full) in &best {
            assert!(*s >= full - 1e-9, "best {s} at {t} below the full barrier's {full}");
        }
        // At least one workload prefers a partial threshold (xsbench's
        // Figure-9 behavior).
        assert!(best.iter().any(|b| b.0 .0 != 32), "some workload should peak below 32: {best:?}");
    }

    #[test]
    fn cache_ablation_runs_and_preserves_wins() {
        for c in cells("ablate-cache").chunks(4) {
            assert!(speedup(&c[2], &c[3]) > 0.95, "{}", c[3].name());
            let l1 = c[3].metrics().mem.levels[0];
            assert!(l1.hits + l1.misses > 0, "{}: the L1 saw accesses", c[3].name());
        }
    }

    #[test]
    fn sr_wins_under_every_scheduler_policy() {
        for c in cells("ablate-sched").chunks(2) {
            let (policy, s) = (c[0].spec.cfg.scheduler, speedup(&c[0], &c[1]));
            assert!(s > 1.1, "policy {policy:?}: speedup {s:.2} — SR result is policy-sensitive");
        }
    }
}
