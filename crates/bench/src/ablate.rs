//! Ablations: design choices DESIGN.md calls out.
//!
//! - §4.3 static vs dynamic deconfliction (the paper implemented both and
//!   evaluated dynamic);
//! - §6 partial unrolling of the inner loop under Loop Merge
//!   (reconvergence once per N iterations);
//! - scheduler-policy sensitivity of the headline result (a robustness
//!   check of the simulator substrate, not a paper experiment).

use crate::Scale;
use simt_ir::BlockId;
use simt_sim::{MemHierarchy, ReconvergenceModel, SchedulerPolicy, SimConfig};
use specrecon_core::{unroll_self_loop, CompileOptions, DeconflictMode, RepairStrategy};
use workloads::eval::{self, Engine};
use workloads::{mummer, registry, rsbench, srad, xsbench, Workload};

/// One row of the deconfliction ablation.
#[derive(Clone, Debug)]
pub struct DeconflictRow {
    /// Workload name.
    pub name: String,
    /// Speedup with dynamic deconfliction (the paper's configuration).
    pub dynamic_speedup: f64,
    /// Speedup with static deconfliction.
    pub static_speedup: f64,
}

/// Runs every Table-2 workload under both deconfliction modes.
pub fn deconflict(scale: Scale) -> Vec<DeconflictRow> {
    deconflict_with(eval::shared(), scale)
}

/// [`deconflict`] on a caller-provided [`Engine`], one job per workload.
pub fn deconflict_with(engine: &Engine, scale: Scale) -> Vec<DeconflictRow> {
    let cfg = SimConfig::default();
    let ws: Vec<Workload> = registry().iter().map(|w| scale.apply(w)).collect();
    engine.par_map(&ws, |w| {
        let dynamic = engine
            .compare_with(w, &CompileOptions::speculative(), &cfg)
            .unwrap_or_else(|e| panic!("{} dynamic failed: {e}", w.name));
        let opts =
            CompileOptions { deconflict: DeconflictMode::Static, ..CompileOptions::speculative() };
        let stat = engine
            .compare_with(w, &opts, &cfg)
            .unwrap_or_else(|e| panic!("{} static failed: {e}", w.name));
        DeconflictRow {
            name: w.name.to_string(),
            dynamic_speedup: dynamic.speedup(),
            static_speedup: stat.speedup(),
        }
    })
}

/// One row of the unrolling ablation.
#[derive(Clone, Debug)]
pub struct UnrollRow {
    /// Unroll factor (1 = no unrolling).
    pub factor: usize,
    /// Cycles under Loop Merge at this factor.
    pub cycles: u64,
    /// Dynamic barrier operations (synchronization overhead indicator).
    pub barrier_ops: u64,
    /// SIMT efficiency.
    pub simt_eff: f64,
}

/// Partially unrolls RSBench's inner loop by each factor and re-applies
/// Loop Merge: reconvergence happens once per `factor` iterations, so
/// barrier overhead drops (§6).
pub fn unroll(scale: Scale) -> Vec<UnrollRow> {
    unroll_with(eval::shared(), scale)
}

/// [`unroll`] on a caller-provided [`Engine`], one job per unroll factor.
pub fn unroll_with(engine: &Engine, scale: Scale) -> Vec<UnrollRow> {
    let cfg = SimConfig::default();
    let base = rsbench::build(&rsbench::Params::default());
    let base = scale.apply(&base);
    let kernel = base.module.function_by_name("rsbench").expect("kernel");
    let inner: BlockId = base.module.functions[kernel]
        .block_by_label("L1")
        .expect("rsbench inner loop is labelled L1");

    engine.par_map(&[1usize, 2, 4, 8], |&factor| {
        let mut w = base.clone();
        if factor > 1 {
            let f = &mut w.module.functions[kernel];
            unroll_self_loop(f, inner, factor).expect("rsbench inner loop unrolls");
        }
        let (summary, _) = engine
            .run_config(&w, &CompileOptions::speculative(), &cfg)
            .unwrap_or_else(|e| panic!("unroll x{factor} failed: {e}"));
        UnrollRow {
            factor,
            cycles: summary.cycles,
            barrier_ops: summary.barrier_ops,
            simt_eff: summary.simt_eff,
        }
    })
}

/// One row of the synchronization-variant ablation.
#[derive(Clone, Debug)]
pub struct SyncVariantRow {
    /// Workload name.
    pub name: String,
    /// SIMT efficiency with no reconvergence sync at all (free-running
    /// independent threads).
    pub none_eff: f64,
    /// SIMT efficiency under PDOM (the production-compiler baseline).
    pub pdom_eff: f64,
    /// SIMT efficiency under Speculative Reconvergence.
    pub sr_eff: f64,
    /// Cycles for each variant, in the same order.
    pub cycles: [u64; 3],
}

/// Compares *no* reconvergence synchronization, PDOM, and SR on every
/// workload — showing that PDOM itself earns its keep (free-running
/// threads under a greedy scheduler serialize badly) and where SR goes
/// beyond it.
pub fn sync_variants(scale: Scale) -> Vec<SyncVariantRow> {
    sync_variants_with(eval::shared(), scale)
}

/// [`sync_variants`] on a caller-provided [`Engine`], one job per
/// workload.
pub fn sync_variants_with(engine: &Engine, scale: Scale) -> Vec<SyncVariantRow> {
    let cfg = SimConfig::default();
    let ws: Vec<Workload> = registry().iter().map(|w| scale.apply(w)).collect();
    engine.par_map(&ws, |w| {
        let none_opts =
            CompileOptions { pdom: false, speculative: false, ..CompileOptions::default() };
        let (none, _) = engine
            .run_config(w, &none_opts, &cfg)
            .unwrap_or_else(|e| panic!("{} none failed: {e}", w.name));
        let (pdom, _) = engine
            .run_config(w, &CompileOptions::baseline(), &cfg)
            .unwrap_or_else(|e| panic!("{} pdom failed: {e}", w.name));
        let (sr, _) = engine
            .run_config(w, &CompileOptions::speculative(), &cfg)
            .unwrap_or_else(|e| panic!("{} sr failed: {e}", w.name));
        SyncVariantRow {
            name: w.name.to_string(),
            none_eff: none.simt_eff,
            pdom_eff: pdom.simt_eff,
            sr_eff: sr.simt_eff,
            cycles: [none.cycles, pdom.cycles, sr.cycles],
        }
    })
}

/// One row of the scheduler ablation.
#[derive(Clone, Debug)]
pub struct SchedRow {
    /// Scheduler policy.
    pub policy: SchedulerPolicy,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// SR cycles.
    pub spec_cycles: u64,
    /// SR speedup under this policy.
    pub speedup: f64,
}

/// Runs RSBench under every scheduler policy: the SR win must not be an
/// artifact of one policy.
pub fn scheduler(scale: Scale) -> Vec<SchedRow> {
    scheduler_with(eval::shared(), scale)
}

/// [`scheduler`] on a caller-provided [`Engine`], one job per policy.
/// All five policies share one cached kernel image.
pub fn scheduler_with(engine: &Engine, scale: Scale) -> Vec<SchedRow> {
    let base = rsbench::build(&rsbench::Params::default());
    let w = scale.apply(&base);
    let policies = [
        SchedulerPolicy::Greedy,
        SchedulerPolicy::MinPc,
        SchedulerPolicy::MaxPc,
        SchedulerPolicy::MostThreads,
        SchedulerPolicy::RoundRobin,
    ];
    engine.par_map(&policies, |&policy| {
        let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
        let c = engine
            .compare_with(&w, &CompileOptions::speculative(), &cfg)
            .unwrap_or_else(|e| panic!("policy {policy:?} failed: {e}"));
        SchedRow {
            policy,
            base_cycles: c.baseline.cycles,
            spec_cycles: c.speculative.cycles,
            speedup: c.speedup(),
        }
    })
}

/// One row of the warp-width ablation.
#[derive(Clone, Debug)]
pub struct WidthRow {
    /// Lanes per warp.
    pub width: usize,
    /// Baseline SIMT efficiency at this width.
    pub base_eff: f64,
    /// SR speedup at this width.
    pub speedup: f64,
}

/// Runs RSBench at warp widths 8/16/32/64. Wider warps diverge more
/// (the max of more trip-count draws grows), so baseline efficiency falls
/// with width; the *speedup*, interestingly, is largest for narrow warps
/// in this simulator — collecting a full warp at the reconvergence point
/// costs more as the warp widens (longer tails per round), partially
/// offsetting the larger headroom.
pub fn warp_width(scale: Scale) -> Vec<WidthRow> {
    warp_width_with(eval::shared(), scale)
}

/// [`warp_width`] on a caller-provided [`Engine`], one job per width.
pub fn warp_width_with(engine: &Engine, scale: Scale) -> Vec<WidthRow> {
    let base = rsbench::build(&rsbench::Params::default());
    let w = scale.apply(&base);
    engine.par_map(&[8usize, 16, 32, 64], |&width| {
        let cfg = SimConfig { warp_width: width, ..SimConfig::default() };
        let opts = CompileOptions { warp_width: width as u32, ..CompileOptions::speculative() };
        let c = engine
            .compare_with(&w, &opts, &cfg)
            .unwrap_or_else(|e| panic!("width {width} failed: {e}"));
        WidthRow { width, base_eff: c.baseline.simt_eff, speedup: c.speedup() }
    })
}

/// One row of the suite-wide threshold ablation.
#[derive(Clone, Debug)]
pub struct ThresholdRow {
    /// Workload name.
    pub name: String,
    /// Best soft-barrier threshold (32 = full/hard barrier).
    pub best_threshold: u32,
    /// Speedup at the best threshold.
    pub best_speedup: f64,
    /// Speedup at the full barrier (threshold 32).
    pub full_speedup: f64,
}

/// Sweeps the soft-barrier threshold for *every* workload — the
/// suite-wide generalization of Figure 9. The paper leaves "automatically
/// discovering the ideal threshold" to future work; this table shows how
/// far from the full barrier each application's optimum sits.
pub fn threshold(scale: Scale) -> Vec<ThresholdRow> {
    threshold_with(eval::shared(), scale)
}

/// [`threshold`] on a caller-provided [`Engine`], one job per workload
/// (each job runs its own 5-point sweep).
pub fn threshold_with(engine: &Engine, scale: Scale) -> Vec<ThresholdRow> {
    let cfg = SimConfig::default();
    let grid = [4u32, 8, 16, 24, 32];
    let ws: Vec<Workload> = registry().iter().map(|w| scale.apply(w)).collect();
    engine.par_map(&ws, |w| {
        let mut best = (32u32, 0.0f64);
        let mut full = 0.0f64;
        for &t in &grid {
            let c = engine
                .compare_with(&w.rebind().threshold(t).done(), &CompileOptions::speculative(), &cfg)
                .unwrap_or_else(|e| panic!("{} T={t} failed: {e}", w.name));
            let s = c.speedup();
            if s > best.1 {
                best = (t, s);
            }
            if t == 32 {
                full = s;
            }
        }
        ThresholdRow {
            name: w.name.to_string(),
            best_threshold: best.0,
            best_speedup: best.1,
            full_speedup: full,
        }
    })
}

/// One row of the cache ablation.
#[derive(Clone, Debug)]
pub struct CacheRow {
    /// Workload name.
    pub name: String,
    /// SR speedup with the raw coalescing-only memory model.
    pub speedup_no_cache: f64,
    /// SR speedup with the L1 cache cost model enabled.
    pub speedup_cache: f64,
    /// Cache hit rate (hits / (hits+misses)) in the SR run.
    pub hit_rate: f64,
}

/// Measures how an L1 cache cost model (§4.5's "caching behavior")
/// changes the SR picture on the two memory-sensitive workloads.
pub fn cache(scale: Scale) -> Vec<CacheRow> {
    cache_with(eval::shared(), scale)
}

/// [`cache`] on a caller-provided [`Engine`], one job per workload.
pub fn cache_with(engine: &Engine, scale: Scale) -> Vec<CacheRow> {
    let workloads =
        [xsbench::build(&xsbench::Params::default()), rsbench::build(&rsbench::Params::default())];
    let ws: Vec<Workload> = workloads.iter().map(|w| scale.apply(w)).collect();
    engine.par_map(&ws, |w| {
        let plain = engine
            .compare_with(w, &CompileOptions::speculative(), &SimConfig::default())
            .unwrap_or_else(|e| panic!("{} plain failed: {e}", w.name));
        // 64 lines of 16 cells (128-byte lines), hits cost 2.
        let l1 = MemHierarchy::l1(64, 16, 2, &SimConfig::default().latency);
        let cfg = SimConfig { mem: Some(l1), ..SimConfig::default() };
        let cached = engine
            .compare_with(w, &CompileOptions::speculative(), &cfg)
            .unwrap_or_else(|e| panic!("{} cached failed: {e}", w.name));
        // Hit rate from a dedicated SR run.
        let out = engine
            .run_full(w, &CompileOptions::speculative(), &cfg)
            .unwrap_or_else(|e| panic!("{} hit-rate run failed: {e}", w.name));
        let (h, m) = (out.metrics.cache_hits, out.metrics.cache_misses);
        CacheRow {
            name: w.name.to_string(),
            speedup_no_cache: plain.speedup(),
            speedup_cache: cached.speedup(),
            hit_rate: h as f64 / (h + m).max(1) as f64,
        }
    })
}

/// One row of the memory-hierarchy L1-capacity sweep.
#[derive(Clone, Debug)]
pub struct MemHierRow {
    /// Workload name.
    pub name: String,
    /// L1 capacity at this point, in 16-cell lines.
    pub l1_lines: usize,
    /// SR speedup under the hierarchy (baseline cycles / SR cycles).
    pub speedup: f64,
    /// L1 hit rate in the SR run.
    pub l1_hit_rate: f64,
    /// MSHR penalty cycles (all levels) in the SR run.
    pub mshr_stall_cycles: u64,
    /// MSHR penalty cycles (all levels) in the baseline run.
    pub baseline_mshr_stall_cycles: u64,
}

/// L1 capacities swept (16-cell lines), smallest first.
pub const MEM_L1_POINTS: [usize; 5] = [2, 4, 8, 16, 64];

/// Sweeps L1 capacity under the full L1/L2/DRAM hierarchy (tight MSHR
/// files) on the memory-sensitive workloads and reports how the
/// SR-vs-baseline verdict moves.
pub fn mem_hier(scale: Scale) -> Vec<MemHierRow> {
    mem_hier_with(eval::shared(), scale)
}

/// [`mem_hier`] on a caller-provided [`Engine`], one job per point.
pub fn mem_hier_with(engine: &Engine, scale: Scale) -> Vec<MemHierRow> {
    let workloads = [
        xsbench::build(&xsbench::Params::default()),
        rsbench::build(&rsbench::Params::default()),
        mummer::build(&mummer::Params::default()),
    ];
    let jobs: Vec<(Workload, usize)> = workloads
        .iter()
        .map(|w| scale.apply(w))
        .flat_map(|w| MEM_L1_POINTS.map(|lines| (w.clone(), lines)))
        .collect();
    engine.par_map(&jobs, |(w, lines)| {
        let lat = SimConfig::default().latency;
        let spec = format!(
            "l1:lines={lines},cells=16,lat=2,mshrs=1;\
             l2:lines=128,cells=16,lat=8,mshrs=2;\
             dram:lat=48,extra=4"
        );
        let hier = MemHierarchy::parse(&spec, &lat).expect("mem-hier ablation spec");
        let cfg = SimConfig { mem: Some(hier), ..SimConfig::default() };
        let cmp = engine
            .compare_with(w, &CompileOptions::speculative(), &cfg)
            .unwrap_or_else(|e| panic!("{} @ L1={lines} failed: {e}", w.name));
        let stalls = |opts: &CompileOptions| {
            let out = engine
                .run_full(w, opts, &cfg)
                .unwrap_or_else(|e| panic!("{} @ L1={lines} counter run failed: {e}", w.name));
            let l1 = out.metrics.mem.levels[0];
            let total: u64 = out.metrics.mem.levels.iter().map(|l| l.mshr_stall_cycles).sum();
            (l1.hits as f64 / (l1.hits + l1.misses).max(1) as f64, total)
        };
        let (l1_hit_rate, mshr_stall_cycles) = stalls(&CompileOptions::speculative());
        let (_, baseline_mshr_stall_cycles) = stalls(&CompileOptions::baseline());
        MemHierRow {
            name: w.name.to_string(),
            l1_lines: *lines,
            speedup: cmp.speedup(),
            l1_hit_rate,
            mshr_stall_cycles,
            baseline_mshr_stall_cycles,
        }
    })
}

/// One row of the hardware-reconvergence ablation: one workload under
/// one reconvergence model, compiled both ways.
#[derive(Clone, Debug)]
pub struct HwReconRow {
    /// Workload name.
    pub name: String,
    /// Reconvergence model spec (`barrier-file`, `ipdom-stack`, ...).
    pub model: String,
    /// PDOM-baseline cycles under this model.
    pub pdom_cycles: u64,
    /// SR cycles under this model.
    pub sr_cycles: u64,
    /// SR speedup under this model (pdom / sr cycles).
    pub speedup: f64,
    /// PDOM whole-kernel SIMT efficiency under this model.
    pub pdom_eff: f64,
    /// SR whole-kernel SIMT efficiency under this model.
    pub sr_eff: f64,
}

/// The reconvergence models the hardware ablation crosses: Volta's
/// barrier file (the default everywhere else), the pre-Volta IPDOM
/// stack, and warp splitting with a re-fusion window plus subwarp
/// compaction.
pub const HW_RECON_MODELS: [ReconvergenceModel; 3] = [
    ReconvergenceModel::BarrierFile,
    ReconvergenceModel::IpdomStack,
    ReconvergenceModel::WarpSplit { window: 4, compact: true },
];

/// Crosses {PDOM, SR} × every reconvergence model over the full
/// workload registry: where does hardware-side divergence repair (warp
/// splitting) close the gap that compiler-side repair (SR) closes, and
/// where does it not?
pub fn hw_recon(scale: Scale) -> Vec<HwReconRow> {
    hw_recon_with(eval::shared(), scale)
}

/// [`hw_recon`] on a caller-provided [`Engine`], one job per
/// (workload, model) pair.
pub fn hw_recon_with(engine: &Engine, scale: Scale) -> Vec<HwReconRow> {
    let jobs: Vec<(Workload, ReconvergenceModel)> = registry()
        .iter()
        .map(|w| scale.apply(w))
        .flat_map(|w| HW_RECON_MODELS.map(|m| (w.clone(), m)))
        .collect();
    engine.par_map(&jobs, |(w, model)| {
        let cfg = SimConfig { recon: *model, ..SimConfig::default() };
        let c = engine
            .compare_with(w, &CompileOptions::speculative(), &cfg)
            .unwrap_or_else(|e| panic!("{} under {} failed: {e}", w.name, model.spec()));
        HwReconRow {
            name: w.name.to_string(),
            model: model.spec(),
            pdom_cycles: c.baseline.cycles,
            sr_cycles: c.speculative.cycles,
            speedup: c.speedup(),
            pdom_eff: c.baseline.simt_eff,
            sr_eff: c.speculative.simt_eff,
        }
    })
}

/// One row of the repair-strategy ablation: one workload under one
/// divergence-repair strategy.
#[derive(Clone, Debug)]
pub struct MeldRow {
    /// Workload name.
    pub name: String,
    /// Repair strategy spec (`pdom`, `sr`, `meld`, `sr+meld`).
    pub repair: String,
    /// Total cycles under this strategy.
    pub cycles: u64,
    /// Whole-kernel SIMT efficiency under this strategy.
    pub simt_eff: f64,
    /// Dynamic barrier operations (overhead indicator).
    pub barrier_ops: u64,
}

/// The repair strategies the melding ablation crosses.
pub const MELD_REPAIRS: [RepairStrategy; 4] =
    [RepairStrategy::Pdom, RepairStrategy::Sr, RepairStrategy::Meld, RepairStrategy::SrMeld];

/// Crosses every repair strategy over the two contrasting shapes:
/// SRAD, whose unbalanced clamp/diffuse arms share an expensive update
/// tail (melding territory — the lanes sit on *different* paths, so no
/// reconvergence schedule de-duplicates the tail), and MUMmer, whose
/// divergence is trip-count imbalance around common code (SR
/// territory — there is nothing isomorphic to meld).
pub fn meld(scale: Scale) -> Vec<MeldRow> {
    meld_with(eval::shared(), scale)
}

/// [`meld`] on a caller-provided [`Engine`], one job per
/// (workload, strategy) pair.
pub fn meld_with(engine: &Engine, scale: Scale) -> Vec<MeldRow> {
    let workloads =
        [srad::build(&srad::Params::default()), mummer::build(&mummer::Params::default())];
    let jobs: Vec<(Workload, RepairStrategy)> = workloads
        .iter()
        .map(|w| scale.apply(w))
        .flat_map(|w| MELD_REPAIRS.map(|r| (w.clone(), r)))
        .collect();
    engine.par_map(&jobs, |(w, repair)| {
        let (summary, _) = engine
            .run_config(w, &repair.options(), &SimConfig::default())
            .unwrap_or_else(|e| panic!("{} under {repair} failed: {e}", w.name));
        MeldRow {
            name: w.name.to_string(),
            repair: repair.to_string(),
            cycles: summary.cycles,
            simt_eff: summary.simt_eff,
            barrier_ops: summary.barrier_ops,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_hier_sweep_covers_every_point() {
        let rows = mem_hier(Scale::Quick);
        assert_eq!(rows.len(), MEM_L1_POINTS.len() * 3, "one row per workload per L1 point");
        for chunk in rows.chunks(MEM_L1_POINTS.len()) {
            let (first, last) = (&chunk[0], &chunk[chunk.len() - 1]);
            assert_eq!(first.name, last.name);
            assert!(
                last.l1_hit_rate > first.l1_hit_rate,
                "{}: a 32x larger L1 must hit more ({} -> {})",
                first.name,
                first.l1_hit_rate,
                last.l1_hit_rate
            );
            for r in chunk {
                assert!(r.speedup > 0.0, "{} @ L1={}: degenerate speedup", r.name, r.l1_lines);
            }
        }
    }

    #[test]
    fn hw_recon_ablation_covers_the_matrix() {
        let rows = hw_recon(Scale::Quick);
        let workloads = workloads::registry().len();
        assert_eq!(rows.len(), workloads * HW_RECON_MODELS.len(), "one row per (workload, model)");
        for chunk in rows.chunks(HW_RECON_MODELS.len()) {
            for (r, m) in chunk.iter().zip(HW_RECON_MODELS) {
                assert_eq!(r.name, chunk[0].name);
                assert_eq!(r.model, m.spec());
                assert!(r.pdom_cycles > 0 && r.sr_cycles > 0, "{r:?}");
                assert!((0.0..=1.0).contains(&r.pdom_eff), "{r:?}");
            }
        }
    }

    #[test]
    fn meld_ablation_covers_the_matrix_and_wins_on_srad() {
        let rows = meld(Scale::Quick);
        assert_eq!(rows.len(), 2 * MELD_REPAIRS.len(), "one row per (workload, strategy)");
        let eff = |name: &str, repair: &str| {
            rows.iter()
                .find(|r| r.name == name && r.repair == repair)
                .unwrap_or_else(|| panic!("missing row {name}/{repair}: {rows:?}"))
                .simt_eff
        };
        for r in &rows {
            assert!(r.cycles > 0 && (0.0..=1.0).contains(&r.simt_eff), "{r:?}");
        }
        // The headline contrast: melding beats both PDOM and SR on the
        // shared-tail shape, while SR keeps its win on trip-count
        // imbalance where there is nothing to meld.
        assert!(eff("srad", "meld") > eff("srad", "pdom"), "{rows:?}");
        assert!(eff("srad", "meld") > eff("srad", "sr"), "{rows:?}");
        assert!(eff("mummer", "sr") > eff("mummer", "pdom"), "{rows:?}");
    }

    #[test]
    fn both_deconfliction_modes_work_everywhere() {
        for row in deconflict(Scale::Quick) {
            assert!(row.dynamic_speedup > 0.9, "{}: dynamic {}", row.name, row.dynamic_speedup);
            assert!(row.static_speedup > 0.85, "{}: static {}", row.name, row.static_speedup);
        }
    }

    #[test]
    fn unrolling_reduces_barrier_overhead() {
        let rows = unroll(Scale::Quick);
        assert_eq!(rows[0].factor, 1);
        let x1 = &rows[0];
        let x4 = rows.iter().find(|r| r.factor == 4).unwrap();
        assert!(
            x4.barrier_ops < x1.barrier_ops,
            "barrier ops should drop with unrolling: {} -> {}",
            x1.barrier_ops,
            x4.barrier_ops
        );
    }

    #[test]
    fn sync_variants_rank_sensibly() {
        for row in sync_variants(Scale::Quick) {
            assert!(
                row.sr_eff > row.none_eff,
                "{}: SR ({:.2}) must beat free-running ({:.2})",
                row.name,
                row.sr_eff,
                row.none_eff
            );
            assert!(
                row.sr_eff > row.pdom_eff,
                "{}: SR ({:.2}) must beat PDOM ({:.2})",
                row.name,
                row.sr_eff,
                row.pdom_eff
            );
        }
    }

    #[test]
    fn warp_width_trends_hold() {
        let rows = warp_width(Scale::Quick);
        let w8 = rows.iter().find(|r| r.width == 8).unwrap();
        let w64 = rows.iter().find(|r| r.width == 64).unwrap();
        assert!(
            w64.base_eff < w8.base_eff,
            "wider warps diverge more: {} vs {}",
            w8.base_eff,
            w64.base_eff
        );
        for r in &rows {
            assert!(
                r.speedup > 1.3,
                "SR wins at every width; width {} gave {}",
                r.width,
                r.speedup
            );
        }
    }

    #[test]
    fn threshold_sweep_covers_the_suite() {
        let rows = threshold(Scale::Quick);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert!(r.best_speedup >= r.full_speedup - 1e-9, "{:?}", r);
        }
        // At least one workload prefers a partial threshold (xsbench's
        // Figure-9 behavior).
        assert!(
            rows.iter().any(|r| r.best_threshold != 32),
            "some workload should peak below the full barrier: {rows:?}"
        );
    }

    #[test]
    fn cache_ablation_runs_and_preserves_wins() {
        for row in cache(Scale::Quick) {
            assert!(row.speedup_cache > 0.95, "{}: {}", row.name, row.speedup_cache);
            assert!((0.0..=1.0).contains(&row.hit_rate));
        }
    }

    #[test]
    fn sr_wins_under_every_scheduler_policy() {
        for row in scheduler(Scale::Quick) {
            assert!(
                row.speedup > 1.1,
                "policy {:?}: speedup {:.2} — SR result is policy-sensitive",
                row.policy,
                row.speedup
            );
        }
    }
}
