//! Figure 10 and the §5.4 funnel: automatic Speculative Reconvergence.
//!
//! Two experiments:
//!
//! - **Upside** (Figure 10): strip the user annotations from the Table-2
//!   workloads, let the §4.5 detector place them, and measure the gain —
//!   the paper reports automatic SR matching the programmer-annotated
//!   variants on these applications.
//! - **Funnel** (§5.4 narrative): scan a 520-kernel corpus; count kernels
//!   with SIMT efficiency below ~80%, kernels where the detector finds
//!   non-trivial opportunity, and kernels with significant improvement
//!   when the detected annotation is applied.

use crate::report::{pct, ratio};
use crate::{eff, name, registry, speedup, Body, Rendered, Table};
use simt_sim::SimConfig;
use specrecon_core::{
    compile, compile_profile_guided, detect, detect_profiled, CompileOptions, DetectOptions,
};
use workloads::{corpus, Cell, Engine, Grid, RunSpec, Seeds, Workload};

/// Figure 10: each Table-2 application as annotated and stripped of its
/// annotations, compiled as the PDOM baseline and in automatic mode.
/// Automatic detection defers to the predictions a kernel already
/// carries, so on the annotated application `auto` is the user's SR.
pub const TABLE: Table = Table {
    claims: &[
        ("the detector applies a candidate on every app", |r| {
            r.rows.iter().all(|row| row[1] != "0")
        }),
        ("auto-SR is at least as fast as the user's SR on every app", |r| {
            r.cells.chunks(4).map(upside).all(|(auto, user)| auto >= user)
        }),
        ("auto-SR equals the user's SR on at least six apps", |r| {
            r.cells.chunks(4).map(upside).filter(|(auto, user)| auto == user).count() >= 6
        }),
    ],
    ..Table::new(
        "fig10",
        "Figure 10 — automatic Speculative Reconvergence upside",
        &[
            "app",
            "applied candidates",
            "baseline eff",
            "auto-SR eff",
            "auto speedup",
            "user speedup",
        ],
        Body::Grid(
            || {
                let bases = registry().into_iter().flat_map(|user| {
                    let mut bare = user.clone();
                    for (_, f) in bare.workload.module.functions.iter_mut() {
                        f.predictions.clear();
                    }
                    [user, bare]
                });
                Grid::new(bases.collect()).axis("mode", ["baseline", "auto"])
            },
            |cells| {
                let row = |c: &[Cell]| {
                    let (auto, user) = upside(c);
                    let (base, bare) = (pct(eff(&c[2])), pct(eff(&c[3])));
                    vec![name(&c[0]), applied(c).to_string(), base, bare, ratio(auto), ratio(user)]
                };
                cells.chunks(4).map(row).collect()
            },
        ),
    )
};

/// One application's four cells — annotated baseline and auto, then
/// stripped baseline and auto — as the automatic speedup and the
/// user-annotated one.
fn upside(c: &[Cell]) -> (f64, f64) {
    (speedup(&c[2], &c[3]), speedup(&c[0], &c[1]))
}

/// The candidates the detector applied to an application's stripped
/// module (its fourth cell).
fn applied(c: &[Cell]) -> usize {
    let bare = &c[3].spec;
    let opts = bare.compile.as_ref().expect("auto compiles the module");
    let compiled = compile(&bare.workload.module, opts).expect("compiles");
    compiled.reports.iter().map(|(_, r)| r.auto_applied.len()).sum()
}

/// The §5.4 funnel, static detection next to profile-guided.
pub const FUNNEL: Table = Table {
    footer: "(paper, static: 520 scanned, 75 low-efficiency, 16 detected, 5 significant)",
    claims: &[
        ("low-efficiency kernels are a small fraction (at most 40%) of the corpus", |r| {
            count(r, 1) * 100 <= count(r, 0) * 40
        }),
        ("each stage keeps a non-empty subset of the one before", |r| {
            (1..4).all(|stage| count(r, stage - 1) >= count(r, stage)) && count(r, 3) > 0
        }),
        ("most detected kernels are significant wins", |r| 2 * count(r, 3) > count(r, 2)),
        ("the profile-guided scan reaches the static scan's verdicts", |r| {
            r.rows.iter().all(|row| row[1] == row[2])
        }),
    ],
    ..Table::new(
        "funnel",
        "§5.4 funnel — corpus scan (520 synthetic applications)",
        &["stage", "static (paper's §4.5)", "profile-guided"],
        Body::Code(|engine| {
            let (f, p) = (funnel(engine, false), funnel(engine, true));
            let row = |stage: &str, n: fn(&Funnel) -> usize| {
                vec![stage.to_string(), n(&f).to_string(), n(&p).to_string()]
            };
            vec![
                row("applications scanned", |f| f.total),
                row("SIMT efficiency < ~80%", |f| f.low_efficiency),
                row("non-trivial opportunity detected", |f| f.detected),
                row("significant improvement", |f| f.significant),
            ]
        }),
    )
};

/// The static scan's count at `stage`, a row of the funnel.
fn count(r: &Rendered, stage: usize) -> usize {
    r.rows[stage][1].parse().expect("a count")
}

/// Kernels in the synthetic corpus (the paper scans 520 applications).
const CORPUS: usize = 520;

/// The §5.4 funnel statistics.
struct Funnel {
    /// Corpus size.
    total: usize,
    /// Kernels with SIMT efficiency below ~80%.
    low_efficiency: usize,
    /// Kernels where the detector found non-trivial opportunity.
    detected: usize,
    /// Detected kernels with significant (>10%) runtime improvement.
    significant: usize,
}

/// How far one corpus kernel makes it down the funnel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd)]
enum FunnelStage {
    Efficient,
    LowEfficiency,
    Detected,
    Significant,
}

/// Scans the synthetic corpus with the static §4.5 heuristics or, if
/// `profiled`, with detection and application driven by a per-kernel
/// profiling run (the §4.5 "profile information may help" extension).
/// Every corpus kernel is an independent job (scan, detect, apply,
/// re-run) and the outcomes are aggregated afterwards, so the counts are
/// the same for any worker count.
fn funnel(engine: &Engine, profiled: bool) -> Funnel {
    let entries = corpus::generate(CORPUS, 0x520);
    let stages = engine.par_map(&entries, |entry| funnel_stage(engine, entry, profiled));
    let past = |stage| stages.iter().filter(|&&s| s >= stage).count();
    Funnel {
        total: CORPUS,
        low_efficiency: past(FunnelStage::LowEfficiency),
        detected: past(FunnelStage::Detected),
        significant: past(FunnelStage::Significant),
    }
}

/// Runs one corpus kernel through the whole funnel.
fn funnel_stage(engine: &Engine, entry: &corpus::CorpusEntry, profiled: bool) -> FunnelStage {
    let cfg = SimConfig::default();
    let base = engine
        .run_full(&entry.workload, &CompileOptions::baseline(), &cfg)
        .unwrap_or_else(|e| panic!("corpus kernel {} failed: {e}", entry.id))
        .metrics;
    if base.simt_efficiency() >= 0.8 {
        return FunnelStage::Efficient;
    }

    let kernel_id = entry
        .workload
        .module
        .function_by_name(&entry.workload.launch.kernel)
        .expect("kernel exists");
    let candidates = if profiled {
        let prof_cfg = SimConfig { profile: true, ..cfg.clone() };
        let out = engine
            .run_full(&entry.workload, &CompileOptions::baseline(), &prof_cfg)
            .unwrap_or_else(|e| panic!("profiling corpus kernel {} failed: {e}", entry.id));
        detect_profiled(
            &entry.workload.module.functions[kernel_id],
            kernel_id,
            &out.profile.expect("profiling enabled"),
            &DetectOptions::default(),
        )
    } else {
        detect(&entry.workload.module.functions[kernel_id], &DetectOptions::default())
    };
    if !candidates.iter().any(|c| c.score >= 1.0) {
        return FunnelStage::LowEfficiency;
    }

    let cmp = if profiled {
        let pg = compile_profile_guided(
            &entry.workload.module,
            &CompileOptions::speculative(),
            &DetectOptions::default(),
            &cfg,
            &entry.workload.launch,
        );
        pg.ok().and_then(|compiled| {
            let w = &entry.workload;
            let workload = Workload { module: compiled.module, launch: w.launch.clone(), ..*w };
            let spec =
                RunSpec { workload, compile: None, cfg: cfg.clone(), seeds: Seeds::Count(1) };
            let out = engine.run(&spec, None, |run| run).ok()?.runs.pop()?.result.ok()?;
            Some(base.cycles as f64 / out.metrics.cycles as f64)
        })
    } else {
        let spec = RunSpec::of(entry.workload.clone());
        let grid = Grid::new(vec![spec]).axis("mode", ["baseline", "auto"]);
        engine.run_grid(&grid).ok().map(|c| speedup(&c[0], &c[1]))
    };
    match cmp {
        Some(speedup) if speedup > 1.10 => FunnelStage::Significant,
        _ => FunnelStage::Detected,
    }
}
