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
use crate::{
    cycles, eff, falling, name, registry, spec, speedup, speedups, Body, Rendered, Table, MODES,
};
use simt_sim::ReconvergenceModel;
use specrecon_core::{unroll_self_loop, CompileOptions};
use workloads::{Cell, Grid, RunSpec};

/// Every Table-2 workload under both deconfliction modes.
pub const DECONFLICT: Table = Table {
    claims: &[
        ("static deconfliction is faster than dynamic on every workload", |r| {
            r.cells.chunks(4).all(|c| speedup(&c[2], &c[3]) > speedup(&c[0], &c[1]))
        }),
        ("SR speeds up every workload under both", |r| speedups(&r.cells).iter().all(|&s| s > 1.0)),
    ],
    ..Table::new(
        "ablate-deconflict",
        "Ablation — §4.3 deconfliction strategy",
        &["workload", "dynamic speedup", "static speedup"],
        Body::Grid(
            || {
                let grid = Grid::new(registry()).axis("deconflict", ["dynamic", "static"]);
                grid.axis("mode", MODES)
            },
            |cells| {
                let row = |c: &[Cell]| {
                    vec![name(&c[0]), ratio(speedup(&c[0], &c[1])), ratio(speedup(&c[2], &c[3]))]
                };
                cells.chunks(4).map(row).collect()
            },
        ),
    )
};

/// Unroll factors of RSBench's inner loop (1 = no unrolling).
const UNROLL_FACTORS: [usize; 4] = [1, 2, 4, 8];

/// RSBench's inner loop partially unrolled by each factor under Loop
/// Merge: reconvergence happens once per `factor` iterations, so barrier
/// overhead drops (§6).
pub const UNROLL: Table = Table {
    claims: &[
        ("barrier ops fall with every unroll factor", |r| {
            falling(r.cells.iter().map(|c| c.metrics().barrier_ops))
        }),
        ("cycles fall with every unroll factor", |r| falling(r.cells.iter().map(cycles))),
    ],
    ..Table::new(
        "ablate-unroll",
        "Ablation — §6 partial unrolling × Loop Merge (RSBench)",
        &["unroll factor", "cycles", "barrier ops", "SIMT efficiency"],
        Body::Grid(
            || {
                let unrolled = |factor: usize| {
                    let mut spec = spec("rsbench");
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
    )
};

/// RSBench under every scheduler policy: the SR win must not be an
/// artifact of one policy.
pub const SCHED: Table = Table {
    claims: &[
        ("one rounded speedup under all five policies", |r| {
            r.rows.iter().all(|row| row[3] == r.rows[0][3])
        }),
        ("SR wins by more than 10% under every policy", |r| {
            speedups(&r.cells).iter().all(|&s| s > 1.1)
        }),
    ],
    ..Table::new(
        "ablate-sched",
        "Ablation — scheduler-policy sensitivity (RSBench)",
        &["policy", "baseline cycles", "SR cycles", "speedup"],
        Body::Grid(
            || {
                let policies = ["greedy", "min-pc", "max-pc", "most-threads", "round-robin"];
                Grid::new(vec![spec("rsbench")]).axis("policy", policies).axis("mode", MODES)
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
    )
};

/// *No* reconvergence synchronization, PDOM and SR on every workload:
/// PDOM itself earns its keep (free-running threads under a greedy
/// scheduler serialize badly), and SR goes beyond it.
pub const SYNC: Table = Table {
    claims: &[
        ("SR efficiency beats no sync and PDOM on every workload", |r| {
            r.cells.chunks(3).all(|c| eff(&c[2]) > eff(&c[0]) && eff(&c[2]) > eff(&c[1]))
        }),
        ("no sync takes fewer cycles than SR on exactly xsbench, mcb and gpu-mcml", |r| {
            let faster = r.cells.chunks(3).filter(|c| cycles(&c[0]) < cycles(&c[2]));
            faster.map(|c| name(&c[0])).collect::<Vec<_>>() == ["xsbench", "mcb", "gpu-mcml"]
        }),
        ("no sync takes fewer cycles than PDOM on all but mummer and meiyamd5", |r| {
            let slower = r.cells.chunks(3).filter(|c| cycles(&c[0]) >= cycles(&c[1]));
            slower.map(|c| name(&c[0])).collect::<Vec<_>>() == ["mummer", "meiyamd5"]
        }),
    ],
    ..Table::new(
        "ablate-sync",
        "Ablation — no sync vs PDOM vs Speculative Reconvergence",
        &["workload", "none eff", "PDOM eff", "SR eff", "none cycles", "PDOM cycles", "SR cycles"],
        Body::Grid(
            || {
                let none = CompileOptions { pdom: false, speculative: false, ..Default::default() };
                let variants = |sr: RunSpec| {
                    let mut free = sr.clone();
                    free.compile = Some(none.clone());
                    let mut pdom = sr.clone();
                    pdom.apply(&[("mode", "baseline")]).expect("a mode");
                    [free, pdom, sr]
                };
                Grid::new(registry().into_iter().flat_map(variants).collect())
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
    )
};

/// RSBench at warp widths 8/16/32/64. Wider warps diverge more (the max
/// of more trip-count draws grows), so baseline efficiency falls with
/// width; the *speedup*, interestingly, is largest for narrow warps in
/// this simulator — collecting a full warp at the reconvergence point
/// costs more as the warp widens (longer tails per round), partially
/// offsetting the larger headroom.
pub const WIDTH: Table = Table {
    claims: &[
        ("SR speeds RSBench up at every width", |r| speedups(&r.cells).iter().all(|&s| s > 1.0)),
        ("the speedup is largest at 16 lanes and smallest at 64", |r| {
            let s = speedups(&r.cells);
            s.iter().all(|&x| x <= s[1] && x >= s[3])
        }),
        ("baseline efficiency falls strictly with width", |r| {
            falling(r.cells.chunks(2).map(|c| eff(&c[0])))
        }),
    ],
    ..Table::new(
        "ablate-width",
        "Ablation — warp width sensitivity (RSBench)",
        &["warp width", "baseline eff", "SR speedup"],
        Body::Grid(
            || {
                let at = |width| {
                    let mut spec = spec("rsbench");
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
    )
};

/// How an L1 cache cost model (§4.5's "caching behavior") changes the SR
/// picture on the two memory-sensitive workloads: 64 lines of 16 cells
/// (128-byte lines), hits cost 2.
pub const CACHE: Table = Table {
    claims: &[
        ("the L1 raises SR's speedup on both workloads", |r| {
            r.cells.chunks(4).all(|c| speedup(&c[2], &c[3]) > speedup(&c[0], &c[1]))
        }),
        ("the cached SR run hits the L1 on both workloads", |r| {
            r.cells.chunks(4).all(|c| l1_hit_rate(&c[3]) > 0.0)
        }),
    ],
    ..Table::new(
        "ablate-cache",
        "Ablation — L1 cache cost model (memory-sensitive workloads)",
        &["workload", "SR speedup (no cache)", "SR speedup (cache)", "hit rate"],
        Body::Grid(
            || {
                let both = |name| {
                    let flat = spec(name);
                    let mut cached = flat.clone();
                    cached.apply(&[("mem_hier", "l1:lines=64,cells=16,lat=2")]).expect("an L1");
                    [flat, cached]
                };
                Grid::new(["xsbench", "rsbench"].into_iter().flat_map(both).collect())
                    .axis("mode", MODES)
            },
            |cells| {
                let row = |c: &[Cell]| {
                    let (flat, cached) = (speedup(&c[0], &c[1]), speedup(&c[2], &c[3]));
                    vec![name(&c[0]), ratio(flat), ratio(cached), pct(l1_hit_rate(&c[3]))]
                };
                cells.chunks(4).map(row).collect()
            },
        ),
    )
};

/// L1 capacities swept (16-cell lines), smallest first.
pub const MEM_L1_POINTS: [usize; 5] = [2, 4, 8, 16, 64];

/// L1 capacity swept under the full L1/L2/DRAM hierarchy (tight MSHR
/// files) on the memory-sensitive workloads: how the SR-vs-baseline
/// verdict moves.
pub const MEM: Table = Table {
    claims: &[
        ("SR's L1 hit rate rises with L1 capacity on every workload", |r| {
            let mut workloads = r.cells.chunks(2 * MEM_L1_POINTS.len());
            workloads.all(|w| falling(w.chunks(2).rev().map(|c| l1_hit_rate(&c[1]))))
        }),
        ("xsbench: SR wins at every L1 capacity", |r| {
            mem_speedups(r, "xsbench").iter().all(|&s| s > 1.0)
        }),
        ("rsbench: SR loses at up to 16 lines and wins at 64", |r| {
            let s = mem_speedups(r, "rsbench");
            s[..4].iter().all(|&s| s < 1.0) && s[4] > 1.0
        }),
        ("mummer: SR loses at every L1 capacity, more as the L1 grows", |r| {
            let s = mem_speedups(r, "mummer");
            s[0] < 1.0 && falling(s)
        }),
        ("SR stalls more than baseline on rsbench and mummer, less on xsbench", |r| {
            let more = |c: &[Cell]| mshr_stalls(&c[1]) > mshr_stalls(&c[0]);
            r.cells.chunks(2).all(|c| more(c) == (name(&c[0]) != "xsbench"))
        }),
    ],
    ..Table::new(
        "ablate-mem",
        "Ablation — memory-hierarchy L1 capacity sweep (tight MSHRs)",
        &[
            "workload",
            "L1 lines",
            "SR speedup",
            "SR L1 hit rate",
            "SR mshr stalls",
            "base mshr stalls",
        ],
        Body::Grid(
            || {
                let hier = MEM_L1_POINTS.map(|lines| {
                    format!(
                        "l1:lines={lines},cells=16,lat=2,mshrs=1;\
                         l2:lines=128,cells=16,lat=8,mshrs=2;\
                         dram:lat=48,extra=4"
                    )
                });
                let bases = ["xsbench", "rsbench", "mummer"].map(spec);
                Grid::new(bases.to_vec()).axis("mem_hier", hier).axis("mode", MODES)
            },
            |cells| {
                let row = |c: &[Cell]| {
                    let lines = c[0].spec.cfg.mem.as_ref().expect("a hierarchy").levels[0].lines;
                    vec![
                        name(&c[0]),
                        lines.to_string(),
                        ratio(speedup(&c[0], &c[1])),
                        pct(l1_hit_rate(&c[1])),
                        mshr_stalls(&c[1]).to_string(),
                        mshr_stalls(&c[0]).to_string(),
                    ]
                };
                cells.chunks(2).map(row).collect()
            },
        ),
    )
};

/// `workload`'s SR speedup at each L1 capacity, smallest first.
fn mem_speedups(r: &Rendered, workload: &str) -> Vec<f64> {
    let pairs = r.cells.chunks(2).filter(|c| name(&c[0]) == workload);
    pairs.map(|c| speedup(&c[0], &c[1])).collect()
}

/// A cell's MSHR stall cycles, summed over the levels.
fn mshr_stalls(c: &Cell) -> u64 {
    c.metrics().mem.levels.iter().map(|l| l.mshr_stall_cycles).sum()
}

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
    claims: &[
        ("ipdom-stack SR speedup < 1 on all nine", |r| {
            r.cells.chunks(6).all(|c| speedup(&c[2], &c[3]) < 1.0)
        }),
        ("warp splitting alone closes over a tenth of the SR gap only on mc-gpu and optix", |r| {
            let closes = r.cells.chunks(6).filter(|c| gap_closed(c, &c[4]) > 0.1);
            closes.map(|c| name(&c[0])).collect::<Vec<_>>() == ["mc-gpu", "optix"]
        }),
        ("warp-split SR speedup >= barrier-file SR speedup except on optix", |r| {
            let composes = |c: &[Cell]| speedup(&c[4], &c[5]) >= speedup(&c[0], &c[1]);
            r.cells.chunks(6).all(|c| composes(c) == (name(&c[0]) != "optix"))
        }),
    ],
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
            || {
                let grid = Grid::new(registry()).axis("recon_model", HW_RECON_MODELS);
                grid.axis("mode", MODES)
            },
            |cells| {
                let models = |w: &[Cell]| {
                    let gap = cycles(&w[0]) as f64 - cycles(&w[1]) as f64;
                    let row = |c: &[Cell]| {
                        let recon = c[0].spec.cfg.recon;
                        let closed = if recon == ReconvergenceModel::BarrierFile || gap.abs() < 1.0
                        {
                            "—".to_string()
                        } else {
                            pct(gap_closed(w, &c[0]))
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
                    w.chunks(2).map(row).collect::<Vec<_>>()
                };
                cells.chunks(2 * HW_RECON_MODELS.len()).flat_map(models).collect()
            },
        ),
    )
};

/// The fraction of a workload's barrier-file SR cycle win (its first two
/// cells) that `pdom`, its PDOM run under another model, recovers alone.
fn gap_closed(workload: &[Cell], pdom: &Cell) -> f64 {
    let pdom_bf = cycles(&workload[0]) as f64;
    (pdom_bf - cycles(pdom) as f64) / (pdom_bf - cycles(&workload[1]) as f64)
}

/// The repair strategies the melding ablation crosses.
pub const MELD_REPAIRS: [&str; 4] = ["pdom", "sr", "meld", "sr+meld"];

/// Every repair strategy over the two contrasting shapes: SRAD, whose
/// unbalanced clamp/diffuse arms share an expensive update tail (melding
/// territory — the lanes sit on *different* paths, so no reconvergence
/// schedule de-duplicates the tail), and MUMmer, whose divergence is
/// trip-count imbalance around common code (SR territory — there is
/// nothing isomorphic to meld).
pub const MELD: Table = Table {
    claims: &[
        ("srad: melding beats PDOM and SR in efficiency", |r| {
            let e = |repair| eff(repaired(r, "srad", repair));
            e("meld") > e("pdom") && e("meld") > e("sr")
        }),
        ("srad: melding takes fewer cycles than PDOM, SR more", |r| {
            let c = |repair| cycles(repaired(r, "srad", repair));
            c("meld") < c("pdom") && c("sr") > c("pdom")
        }),
        ("mummer: SR beats PDOM in efficiency", |r| {
            eff(repaired(r, "mummer", "sr")) > eff(repaired(r, "mummer", "pdom"))
        }),
        ("mummer: meld equals PDOM in cycles, efficiency and barrier ops", |r| {
            same(repaired(r, "mummer", "meld"), repaired(r, "mummer", "pdom"))
        }),
        ("mummer: sr+meld equals SR in cycles, efficiency and barrier ops", |r| {
            same(repaired(r, "mummer", "sr+meld"), repaired(r, "mummer", "sr"))
        }),
    ],
    note: "(SRAD's clamp/diffuse arms share an expensive update tail — melding \
           territory; MUMmer's divergence is trip-count imbalance — SR territory)",
    ..Table::new(
        "ablate-meld",
        "Ablation — divergence-repair strategies (control-flow melding)",
        &["workload", "repair", "cycles", "SIMT efficiency", "barrier ops"],
        Body::Grid(
            || {
                let bases = vec![spec("srad"), spec("mummer")];
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

/// The cell of `workload` under `repair`.
fn repaired<'a>(r: &'a Rendered, workload: &str, repair: &str) -> &'a Cell {
    let mut cells = r.cells.iter();
    cells.find(|c| name(c) == workload && c.pairs[0].1 == repair).expect("a repair cell")
}

/// Whether two cells took the same cycles, efficiency and barrier ops.
fn same(a: &Cell, b: &Cell) -> bool {
    let (a, b) = (a.metrics(), b.metrics());
    (a.cycles, a.simt_efficiency(), a.barrier_ops) == (b.cycles, b.simt_efficiency(), b.barrier_ops)
}

/// Soft-barrier thresholds of the suite-wide sweep.
const THRESHOLDS: [u32; 5] = [4, 8, 16, 24, 32];

/// The soft-barrier threshold swept for *every* workload — the suite-wide
/// generalization of Figure 9. The paper leaves "automatically
/// discovering the ideal threshold" to future work; this table shows how
/// far from the full barrier each application's optimum sits.
pub const THRESHOLD: Table = Table {
    claims: &[(
        "rsbench, xsbench and mummer peak below the full barrier, the other six at it",
        |r| {
            let below = r.rows.iter().filter(|row| row[1] != "32").map(|row| &row[0]);
            below.collect::<Vec<_>>() == ["rsbench", "xsbench", "mummer"]
        },
    )],
    ..Table::new(
        "ablate-threshold",
        "Ablation — best soft-barrier threshold per workload",
        &["workload", "best threshold", "best speedup", "full-barrier speedup"],
        Body::Grid(
            || Grid::new(registry()).axis("threshold", THRESHOLDS).axis("mode", MODES),
            |cells| {
                let row = |c: &[Cell]| {
                    let (best, full) = best_threshold(c);
                    vec![name(&c[0]), best.0.to_string(), ratio(best.1), ratio(full)]
                };
                cells.chunks(2 * THRESHOLDS.len()).map(row).collect()
            },
        ),
    )
};

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
