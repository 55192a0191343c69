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

use crate::Scale;
use simt_sim::SimConfig;
use specrecon_core::{
    compile_profile_guided, detect, detect_profiled, CompileOptions, DetectOptions,
};

use workloads::eval::{self, Engine};
use workloads::{corpus, registry, RunSpec, Seeds, Workload};

/// One Figure-10 bar: automatic SR on a de-annotated application.
#[derive(Clone, Debug)]
pub struct UpsideRow {
    /// Application name.
    pub name: String,
    /// Candidates the detector applied.
    pub applied: usize,
    /// Baseline SIMT efficiency.
    pub base_eff: f64,
    /// SIMT efficiency under automatic SR.
    pub auto_eff: f64,
    /// Speedup of automatic SR over the baseline.
    pub speedup: f64,
    /// Speedup of the *user-annotated* variant (for the "automatic matches
    /// manual" claim).
    pub user_speedup: f64,
}

/// Strips user predictions from a workload.
fn deannotate(w: &Workload) -> Workload {
    let mut w2 = w.clone();
    for (_, f) in w2.module.functions.iter_mut() {
        f.predictions.clear();
    }
    w2
}

/// Runs automatic SR over every Table-2 workload, sequentially on the
/// shared engine.
pub fn upside(scale: Scale) -> Vec<UpsideRow> {
    upside_with(eval::shared(), scale)
}

/// [`upside`] on a caller-provided [`Engine`], one job per workload.
pub fn upside_with(engine: &Engine, scale: Scale) -> Vec<UpsideRow> {
    let cfg = SimConfig::default();
    let auto_opts = CompileOptions::automatic(DetectOptions::default());
    let ws: Vec<Workload> = registry().iter().map(|w| scale.apply(w)).collect();
    engine.par_map(&ws, |w| {
        let user = engine
            .compare_with(w, &CompileOptions::speculative(), &cfg)
            .unwrap_or_else(|e| panic!("{} (user) failed: {e}", w.name));
        let bare = deannotate(w);
        let auto = engine
            .compare_with(&bare, &auto_opts, &cfg)
            .unwrap_or_else(|e| panic!("{} (auto) failed: {e}", w.name));
        // Count what the detector applied by re-running compilation
        // reports.
        let compiled = specrecon_core::compile(&bare.module, &auto_opts).expect("compiles");
        let applied: usize = compiled.reports.iter().map(|(_, r)| r.auto_applied.len()).sum();
        UpsideRow {
            name: w.name.to_string(),
            applied,
            base_eff: auto.baseline.simt_eff,
            auto_eff: auto.speculative.simt_eff,
            speedup: auto.speedup(),
            user_speedup: user.speedup(),
        }
    })
}

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

/// Scans a synthetic corpus of `size` kernels (the paper uses 520) with
/// the static §4.5 heuristics, sequentially on the shared engine.
pub fn funnel(size: usize, seed: u64) -> Funnel {
    funnel_with(eval::shared(), size, seed, false)
}

/// Like [`funnel`], but detection and application use a per-kernel
/// profiling run (the §4.5 "profile information may help" extension).
pub fn funnel_profiled(size: usize, seed: u64) -> Funnel {
    funnel_with(eval::shared(), size, seed, true)
}

/// How far one corpus kernel makes it down the funnel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FunnelStage {
    Efficient,
    LowEfficiency,
    Detected,
    Significant,
}

/// The funnel scan on a caller-provided [`Engine`]: every corpus kernel
/// is an independent job (scan, detect, apply, re-run), and the per-kernel
/// outcomes are aggregated afterwards — so the counts are identical to
/// the sequential scan for any worker count.
pub fn funnel_with(engine: &Engine, size: usize, seed: u64, profiled: bool) -> Funnel {
    let entries = corpus::generate(size, seed);
    let stages = engine.par_map(&entries, |entry| funnel_stage(engine, entry, profiled));
    let mut stats = Funnel { total: size, ..Funnel::default() };
    for stage in stages {
        if stage == FunnelStage::Efficient {
            continue;
        }
        stats.low_efficiency += 1;
        if stage == FunnelStage::LowEfficiency {
            continue;
        }
        stats.detected += 1;
        if stage == FunnelStage::Significant {
            stats.significant += 1;
        }
    }
    stats
}

/// Runs one corpus kernel through the whole funnel.
fn funnel_stage(engine: &Engine, entry: &corpus::CorpusEntry, profiled: bool) -> FunnelStage {
    let cfg = SimConfig::default();
    let auto_opts = CompileOptions::automatic(DetectOptions::default());

    let (base, _) = engine
        .run_config(&entry.workload, &CompileOptions::baseline(), &cfg)
        .unwrap_or_else(|e| panic!("corpus kernel {} failed: {e}", entry.id));
    if base.simt_eff >= 0.8 {
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
        engine.compare_with(&entry.workload, &auto_opts, &cfg).ok().map(|c| c.speedup())
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
        for row in upside(Scale::Quick) {
            assert!(row.applied >= 1, "{}: detector found nothing", row.name);
            // §5.4: "automatic Speculative Reconvergence performs the same
            // as programmer-annotated variants" — allow modest drift since
            // auto may choose a slightly different region start.
            assert!(
                (row.speedup / row.user_speedup) > 0.85,
                "{}: auto {:.2}x vs user {:.2}x",
                row.name,
                row.speedup,
                row.user_speedup
            );
        }
    }

    #[test]
    fn funnel_shape_holds_on_a_small_corpus() {
        let f = funnel(80, 0xC3);
        assert_eq!(f.total, 80);
        sanity_funnel(&f).unwrap();
    }

    #[test]
    fn profiled_funnel_is_no_less_precise() {
        let s = funnel(80, 0xC3);
        let p = funnel_profiled(80, 0xC3);
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
