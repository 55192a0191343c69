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
use crate::{eff, name, speedup, Body, Table};
use simt_sim::SimConfig;
use specrecon_core::{
    compile, compile_profile_guided, detect, detect_profiled, CompileOptions, DetectOptions,
};
use workloads::{corpus, Cell, Engine, Grid, RunSpec, Seeds, Workload};

/// Figure 10: each Table-2 application as annotated and stripped of its
/// annotations, compiled as the PDOM baseline and in automatic mode.
/// Automatic detection defers to the predictions a kernel already
/// carries, so on the annotated application `auto` is the user's SR.
pub const TABLE: Table = Table::new(
    "fig10",
    "Figure 10 — automatic Speculative Reconvergence upside",
    &["app", "applied candidates", "baseline eff", "auto-SR eff", "auto speedup", "user speedup"],
    Body::Grid(
        |scale| {
            let bases = scale.registry().into_iter().flat_map(|user| {
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
                let (applied, auto, user) = upside(c);
                let (base, bare) = (pct(eff(&c[2])), pct(eff(&c[3])));
                vec![name(&c[0]), applied.to_string(), base, bare, ratio(auto), ratio(user)]
            };
            cells.chunks(4).map(row).collect()
        },
    ),
);

/// One application's four cells — annotated baseline and auto, then
/// stripped baseline and auto — as the candidates the detector applied,
/// the automatic speedup and the user-annotated one.
fn upside(c: &[Cell]) -> (usize, f64, f64) {
    let bare = &c[3].spec;
    let opts = bare.compile.as_ref().expect("auto compiles the module");
    let compiled = compile(&bare.workload.module, opts).expect("compiles");
    let applied = compiled.reports.iter().map(|(_, r)| r.auto_applied.len()).sum();
    (applied, speedup(&c[2], &c[3]), speedup(&c[0], &c[1]))
}

/// The §5.4 funnel, static detection next to profile-guided.
pub const FUNNEL: Table = Table {
    footer: "(paper, static: 520 scanned, 75 low-efficiency, 16 detected, 5 significant)",
    ..Table::new(
        "funnel",
        "§5.4 funnel — corpus scan ({corpus} synthetic applications)",
        &["stage", "static (paper's §4.5)", "profile-guided"],
        Body::Code(|engine, scale| {
            let f = funnel(engine, scale.corpus(), 0x520, false);
            if let Err(e) = sanity_funnel(&f) {
                eprintln!("WARNING: funnel shape check failed: {e}");
            }
            let p = funnel(engine, scale.corpus(), 0x520, true);
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

/// The §5.4 funnel statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Corpus size (the paper scans 520 applications).
    pub total: usize,
    /// Kernels with SIMT efficiency below ~80%.
    pub low_efficiency: usize,
    /// Kernels where the detector found non-trivial opportunity.
    pub detected: usize,
    /// Detected kernels with significant (>10%) runtime improvement.
    pub significant: usize,
}

/// How far one corpus kernel makes it down the funnel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd)]
enum FunnelStage {
    Efficient,
    LowEfficiency,
    Detected,
    Significant,
}

/// Scans a synthetic corpus of `size` kernels with the static §4.5
/// heuristics or, if `profiled`, with detection and application driven by
/// a per-kernel profiling run (the §4.5 "profile information may help"
/// extension). Every corpus kernel is an independent job (scan, detect,
/// apply, re-run) and the outcomes are aggregated afterwards, so the
/// counts are the same for any worker count.
pub fn funnel(engine: &Engine, size: usize, seed: u64, profiled: bool) -> Funnel {
    let entries = corpus::generate(size, seed);
    let stages = engine.par_map(&entries, |entry| funnel_stage(engine, entry, profiled));
    let past = |stage| stages.iter().filter(|&&s| s >= stage).count();
    Funnel {
        total: size,
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

/// The paper's funnel shape: most kernels are fine; detection fires on a
/// minority of the low-efficiency ones; a minority of those are
/// significant wins.
pub fn sanity_funnel(f: &Funnel) -> Result<(), String> {
    if f.low_efficiency * 100 / f.total.max(1) > 40 {
        return Err(format!(
            "{}/{} kernels low-efficiency; the paper sees a small fraction (75/520)",
            f.low_efficiency, f.total
        ));
    }
    if f.detected > f.low_efficiency {
        return Err("detected more kernels than are low-efficiency".to_string());
    }
    if f.significant > f.detected {
        return Err("significant improvements exceed detected opportunities".to_string());
    }
    if f.detected == 0 || f.significant == 0 {
        return Err(format!("funnel collapsed: {f:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn automatic_matches_user_guided_on_applications() {
        for c in crate::golden::cells("fig10").chunks(4) {
            let (applied, auto, user) = upside(c);
            assert!(applied >= 1, "{}: detector found nothing", name(&c[0]));
            // §5.4: "automatic Speculative Reconvergence performs the same
            // as programmer-annotated variants" — allow modest drift since
            // auto may choose a slightly different region start.
            assert!(auto / user > 0.85, "{}: auto {auto:.2}x vs user {user:.2}x", name(&c[0]));
        }
    }

    #[test]
    fn funnel_shape_holds_on_a_small_corpus() {
        let f = funnel(workloads::eval::shared(), 80, 0xC3, false);
        assert_eq!(f.total, 80);
        sanity_funnel(&f).unwrap();
    }

    #[test]
    fn profiled_funnel_is_no_less_precise() {
        let engine = workloads::eval::shared();
        let (s, p) = (funnel(engine, 80, 0xC3, false), funnel(engine, 80, 0xC3, true));
        assert_eq!(s.low_efficiency, p.low_efficiency, "same corpus, same baseline");
        // Profile-guided detection is frequency-aware: it never fires on
        // more kernels than the static heuristics do on this corpus, and
        // its hit rate (significant/detected) is at least as good.
        assert!(p.detected <= s.detected, "static {s:?} vs profiled {p:?}");
        if p.detected > 0 && s.detected > 0 {
            let static_rate = s.significant as f64 / s.detected as f64;
            let profiled_rate = p.significant as f64 / p.detected as f64;
            assert!(profiled_rate >= static_rate - 1e-9, "static {s:?} vs profiled {p:?}");
        }
    }
}
