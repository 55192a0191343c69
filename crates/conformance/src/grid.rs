//! The conformance grid: each generated program runs as one matrix of
//! cells, and one comparator states what every cell must preserve.
//!
//! A cell is a point (module, policy, recon model, memory model, seeds).
//! Cells are named and expanded by [`workloads::Grid`]s over the run
//! grammar's keys (`policy`, `recon_model`, `mem_hier`, `seeds`) and run
//! on the decoded engine ([`Engine::run_grid`]). A program's modules:
//!
//! - **The compiler arm** (`VARIANTS`): the PDOM `baseline` and every
//!   variant the compiler accepts, each named by its compile keys — SR
//!   with dynamic or static deconfliction, barrier allocation, hard
//!   barriers, autodetect, and the repairs `meld`, `sr+meld` and `auto`.
//!   A variant the compiler legitimately rejects (`BadPrediction`, or a
//!   `SpeculativeConflict` that survives the dynamic-deconfliction retry)
//!   is skipped, not failed: the grid checks the semantics of accepted
//!   programs, not acceptance. A variant that compiles to an earlier
//!   one's module shares its cells. Each module runs under every policy
//!   × [`MODELS`] × flat memory and [`MEM_HIER`] × [`SEEDS`] launch seeds.
//! - **The engine arm**: the program as it is (`raw`, no compiler
//!   barriers at all) and, when its callee may recurse, two call-depth
//!   programs whose lanes of one issue sit at different depths inside
//!   `helper` (`depth-tid`, `depth-rng`; [`DepthBy`]). These run
//!   [`COHORT`] seeds under every policy × [`MODELS`], and `raw` also
//!   under the depth-0 hierarchy [`DEPTH0`] and the single-level [`L1`].
//!
//! `raw`, `baseline` and `spec-dynamic` (`TWINNED`) also run bare warp
//! splitting ([`BARE_SPLIT`]). A cell may have twins on the other
//! engines ([`twins`]): a cell with [`COHORT`] seeds, a hardware-model
//! cell of `baseline` under [`MEM_HIER`] and a bare warp-split cell of
//! `raw` run again as one lockstep cohort over their seeds (`Seeds::Range`, through
//! [`Engine::run`] like the decoded cells); a barrier-file cell of a twinned module on the
//! tree-walking reference ([`simt_sim::run_reference`]); a flat
//! hardware-model cell of one traced and journaled, which takes no pick
//! hint and batches nothing.
//!
//! What every cell must preserve ([`compare`]):
//!
//! - final memory bit-equal to the `baseline` cell (greedy, barrier
//!   file, flat) at the same launch seed — a call-depth program computes
//!   something else, so its own first cell; the kernel epilogue stores
//!   each thread's accumulator to `global[tid]`, so memory encodes every
//!   thread's result;
//! - every twin equal to its cell exactly: metrics, memory bits, errors;
//! - under the barrier file, [`Metrics::recon`] zero; under a hardware
//!   model, IPDOM pushes equal to pops;
//! - a cohort that runs in lockstep under every model: lockstep issues,
//!   no scalar step;
//! - at hierarchy depth 0, the metrics of the hierarchy-off cell once
//!   [`MemStats`] is stripped;
//! - the accounting invariants ([`accounting`]);
//! - a clean barrier-safety lint on every compiled variant.
//!
//! Generated programs place `syncthreads` only in uniform top-level
//! control and never fault, so even the pre-Volta models cannot
//! legitimately deadlock: every run must finish inside [`MAX_CYCLES`],
//! and any error is a violation.

use crate::build::{build_module, build_module_with, mem_cells, DepthBy};
use crate::program::{PredTarget, ProgramSpec};
use simt_ir::{Module, Value};
use simt_sim::{
    run_reference, JournalConfig, Launch, MemStats, Metrics, ReconvergenceModel, SimConfig,
    SimError, SimOutput, SweepStats,
};
use specrecon_core::{compile, lint_errors, CompileOptions, Compiled, PassError};
use workloads::{Cell, DivergencePattern, Engine, Grid, RunSpec, Seeds, Workload};

/// Every scheduler policy the simulator offers, as the `policy` key
/// spells them.
const POLICIES: [&str; 5] = ["greedy", "min-pc", "max-pc", "most-threads", "round-robin"];

/// The reconvergence models every module runs under: the Volta barrier
/// file, the pre-Volta IPDOM stack, and warp splitting with a re-fusion
/// window and subwarp compaction.
const MODELS: [&str; 3] = ["barrier-file", "ipdom-stack", "warp-split:window=4,compact"];

/// Warp splitting without window or compaction (`TWINNED` modules only).
const BARE_SPLIT: &str = "warp-split:window=0";

/// The memory hierarchy the compiler arm crosses every cell with, next
/// to flat memory: the `model-axes` benchmark's.
const MEM_HIER: &str =
    "l1:lines=64,cells=16,lat=2,mshrs=4;l2:lines=512,cells=16,lat=8,mshrs=16;dram:lat=24,extra=2";

/// The hierarchy with no cache levels, [`simt_sim::MemHierarchy::flat`]:
/// it must cost what hierarchy-off costs.
const DEPTH0: &str = "dram";

/// The single-level cache `MemHierarchy::l1(64, 16, 2, ..)`.
const L1: &str = "l1:lines=64,cells=16,lat=2";

/// Launch seeds of a cell that has no cohort twin.
const SEEDS: u64 = 2;

/// Seeds of a cell with a cohort twin: enough for the cohort to fork and
/// merge, few enough to keep the case budget useful.
const COHORT: u64 = 6;

/// Cycle budget per run; generated programs finish in well under this,
/// so hitting it means a transform introduced a deadlock or livelock.
const MAX_CYCLES: u64 = 5_000_000;

/// The source module a variant compiles.
#[derive(Clone, Copy)]
enum Source {
    /// The program as generated.
    Spec,
    /// Every soft-barrier threshold stripped; only when the program has one.
    Hard,
    /// Every prediction stripped, for the repairs that find their own.
    Bare,
}

/// Compile keys, as `(key, value)` pairs of the run grammar.
type Keys = &'static [(&'static str, &'static str)];

/// The compiler arm: each variant's name, source and compile keys.
const VARIANTS: [(&str, Source, Keys); 9] = [
    ("baseline", Source::Spec, &[("mode", "baseline")]),
    ("spec-dynamic", Source::Spec, &[("mode", "speculative")]),
    ("spec-static", Source::Spec, &[("mode", "speculative"), ("deconflict", "static")]),
    ("spec-alloc", Source::Spec, &[("mode", "speculative"), ("barrier_alloc", "true")]),
    ("spec-hard", Source::Hard, &[("mode", "speculative")]),
    ("auto", Source::Bare, &[("mode", "auto")]),
    ("repair-meld", Source::Spec, &[("repair", "meld")]),
    ("repair-sr+meld", Source::Spec, &[("repair", "sr+meld")]),
    ("repair-auto", Source::Bare, &[("repair", "auto")]),
];

/// The modules whose barrier-file cells have a reference twin and whose
/// flat hardware-model cells a traced one, and which run [`BARE_SPLIT`]:
/// the program without compiler barriers, with PDOM's, and with SR's.
pub const TWINNED: [&str; 3] = ["raw", "baseline", "spec-dynamic"];

/// What the grid did for one spec.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Variant names that compiled and ran through the full matrix (a
    /// variant whose module equals an earlier one's ran as its cells).
    pub variants_run: Vec<String>,
    /// Variant names skipped with the compiler's rejection reason.
    pub variants_skipped: Vec<(String, String)>,
}

/// Checks one spec end to end. `Err` carries a human-readable violation
/// report, ending with the text of the module it names.
pub fn check(spec: &ProgramSpec) -> Result<OracleReport, String> {
    check_modules(spec, |_| true)
}

/// [`check`] on the cells of the modules `pick` names (`raw`,
/// `depth-tid`, a variant's name) and of `baseline`, whose first cell
/// every module but a call-depth program is compared against. Every
/// variant is still compiled and linted.
pub fn check_modules(
    spec: &ProgramSpec,
    pick: impl Fn(&str) -> bool,
) -> Result<OracleReport, String> {
    let mut report = OracleReport::default();
    let mut modules = modules(spec, &mut report)?;
    modules.retain(|(name, _)| *name == "baseline" || pick(name));
    let with_module = |violation: String| {
        let named = modules.iter().find(|(name, _)| violation.starts_with(&format!("{name} ")));
        match named {
            Some((name, m)) => format!("{violation}\nmodule {name}:\n{m}"),
            None => violation,
        }
    };
    // One engine per spec, so each module is decoded once for all its
    // cells; it runs them one at a time while the pool runs grids and
    // twins side by side.
    let (engine, pool) = (Engine::new(1), Engine::with_default_parallelism());
    let mut cells = Vec::new();
    for grid in pool.par_map(&grids(spec, &modules), |grid| engine.run_grid(grid)) {
        cells.extend(grid.map_err(|e| with_module(e.to_string()))?);
    }
    let twinned: Vec<(&Cell, Twin)> =
        cells.iter().flat_map(|c| twins(c).into_iter().map(move |t| (c, t))).collect();
    let outs = pool.par_map(&twinned, |&(cell, twin)| run_twin(&engine, cell, twin));
    cells.iter().try_for_each(|cell| compare(&cells, cell)).map_err(with_module)?;
    for (&(cell, twin), out) in twinned.iter().zip(outs) {
        compare_twin(cell, twin, out).map_err(with_module)?;
    }
    Ok(report)
}

/// The program's modules: each distinct module a variant the compiler
/// accepts compiles to, lint-clean, then `raw` and the call-depth programs.
fn modules(
    spec: &ProgramSpec,
    report: &mut OracleReport,
) -> Result<Vec<(&'static str, Module)>, String> {
    let source = build_module(spec);
    let mut out = Vec::new();
    for (name, from, keys) in VARIANTS {
        let mut module = match from {
            Source::Spec => source.clone(),
            Source::Hard if spec.predictions.iter().all(|p| p.threshold.is_none()) => continue,
            Source::Hard => {
                with_predictions(&source, |ps| ps.iter_mut().for_each(|p| p.threshold = None))
            }
            Source::Bare => with_predictions(&source, Vec::clear),
        };
        let mut opts = workloads::spec::compile_options(&mut module, keys)
            .expect("the variant table's keys parse");
        opts.warp_width = spec.warp_width as u32;
        // The grid lints every variant itself (release builds included).
        opts.lint = false;
        // The grid checks semantics, not hardware fit: deeply nested
        // programs may need more barrier registers than Volta exposes once
        // the allocator declines every unsound merge.
        opts.barrier_limit = None;
        match compile_variant(&module, &opts).map_err(|e| format!("{name} {e}\n{module}"))? {
            Err(reason) => report.variants_skipped.push((name.to_string(), reason)),
            Ok(compiled) => {
                let lint = lint_errors(&compiled);
                if !lint.is_empty() {
                    let lint = lint.join("\n");
                    let m = &compiled.module;
                    return Err(format!("{name} failed the barrier-safety lint:\n{lint}\n{m}"));
                }
                report.variants_run.push(name.to_string());
                // A module identical to an earlier variant's would only
                // repeat that variant's cells.
                if !out.iter().any(|(_, m)| *m == compiled.module) {
                    out.push((name, compiled.module));
                }
            }
        }
    }
    out.push(("raw", source));
    if let Some(deep) = deepened(spec) {
        for (name, by) in [("depth-tid", DepthBy::Tid), ("depth-rng", DepthBy::Rng)] {
            out.push((name, build_module_with(&deep, by)));
        }
    }
    Ok(out)
}

/// `module` with `f` applied to every function's predictions.
fn with_predictions(module: &Module, f: impl Fn(&mut Vec<simt_ir::Prediction>)) -> Module {
    let mut m = module.clone();
    for (_, func) in m.functions.iter_mut() {
        f(&mut func.predictions);
    }
    m
}

/// Compiles `module` with `opts`, retrying with dynamic run-time
/// deconfliction when static analysis reports an irreconcilable
/// speculative conflict (§4.3's escape hatch). `Ok(Err(reason))` is a
/// legitimate rejection.
fn compile_variant(
    module: &Module,
    opts: &CompileOptions,
) -> Result<Result<Compiled, String>, String> {
    match compile(module, opts) {
        Ok(c) => Ok(Ok(c)),
        Err(PassError::BadPrediction(msg)) => Ok(Err(msg)),
        Err(PassError::SpeculativeConflict(msg)) if !opts.spec_deconflict => {
            let retry = CompileOptions { spec_deconflict: true, ..opts.clone() };
            match compile(module, &retry) {
                Ok(c) => Ok(Ok(c)),
                Err(PassError::BadPrediction(m) | PassError::SpeculativeConflict(m)) => {
                    Ok(Err(format!("{msg}; retry: {m}")))
                }
                Err(e) => Err(format!("failed the dynamic-deconfliction retry: {e}")),
            }
        }
        Err(PassError::SpeculativeConflict(msg)) => Ok(Err(msg)),
        Err(e) => Err(format!("failed to compile: {e}")),
    }
}

/// `spec` with its callee recursing two deep, when it calls one that may
/// (a predicted callee stays non-recursive): the call-depth programs.
pub fn deepened(spec: &ProgramSpec) -> Option<ProgramSpec> {
    let mut spec = spec.clone();
    let predicted = spec.predictions.iter().any(|p| p.target == PredTarget::Callee);
    let callee = spec.callee.as_mut().filter(|_| !predicted)?;
    callee.recursion = Some(2);
    Some(spec)
}

/// The first launch seed of every cell: per spec, so different programs
/// run different seeds, and far enough below `u64::MAX` for a cohort.
fn first_seed(spec: &ProgramSpec) -> u64 {
    (spec.seed ^ 0xA5A5_5A5A_A5A5_5A5A) >> 8
}

/// The matrix, as grids whose bases are modules running `seeds` seeds.
fn grids(spec: &ProgramSpec, modules: &[(&'static str, Module)]) -> Vec<Grid> {
    let on = |pick: &dyn Fn(&str) -> bool, seeds: u64| {
        let picked = modules.iter().filter(|(name, _)| pick(name));
        let bases = picked.map(|(name, module)| {
            let mut launch = Launch::new("main", spec.warps);
            launch.global_mem = vec![Value::I64(0); mem_cells(spec)];
            launch.seed = first_seed(spec);
            let workload = Workload {
                name,
                description: "A generated program.",
                pattern: DivergencePattern::IterationDelay,
                module: module.clone(),
                launch,
            };
            let cfg = SimConfig {
                warp_width: spec.warp_width,
                max_cycles: MAX_CYCLES,
                ..SimConfig::default()
            };
            RunSpec { workload, compile: None, cfg, seeds: Seeds::Count(seeds) }
        });
        Grid::new(bases.collect()).axis("policy", POLICIES)
    };
    let compiled = |name: &str| VARIANTS.iter().any(|v| v.0 == name);
    let engine_arm = |name: &str| name == "raw" || name.starts_with("depth-");
    vec![
        on(&compiled, SEEDS).axis("recon_model", MODELS),
        on(&compiled, SEEDS).axis("recon_model", MODELS).axis("mem_hier", [MEM_HIER]),
        on(&engine_arm, COHORT).axis("recon_model", MODELS),
        on(&|name| name == "raw", COHORT).axis("mem_hier", [DEPTH0, L1]),
        on(&|name| TWINNED.contains(&name), SEEDS).axis("recon_model", [BARE_SPLIT]),
    ]
}

/// The same cell on another engine.
#[derive(Clone, Copy, Debug)]
enum Twin {
    /// The tree-walking reference, at the first [`SEEDS`] seeds.
    Reference,
    /// The decoded engine traced and journaled, at the first [`SEEDS`] seeds.
    Traced,
    /// The lockstep cohort, at every seed.
    Cohort,
}

/// The twins of `cell`, from its coordinates.
fn twins(cell: &Cell) -> Vec<Twin> {
    let (name, cfg) = (cell.spec.workload.name, &cell.spec.cfg);
    let mut out = Vec::new();
    if TWINNED.contains(&name) {
        match (cfg.recon, &cfg.mem) {
            (ReconvergenceModel::BarrierFile, _) => out.push(Twin::Reference),
            (_, None) => out.push(Twin::Traced),
            _ => {}
        }
    }
    // The model crossings no cohort-seed cell covers: the hardware models
    // under the memory hierarchy (on `baseline`, whose PDOM barriers the
    // IPDOM stack ignores) and bare warp splitting (on `raw`, where the
    // splits alone repair divergence).
    let crossing = |(k, v): &(String, String)| {
        let model = cfg.recon != ReconvergenceModel::BarrierFile;
        (k == "mem_hier" && v == MEM_HIER && model && name == "baseline")
            || (k == "recon_model" && v == BARE_SPLIT && name == "raw")
    };
    let crossed = cell.pairs.iter().any(crossing);
    if cell.spec.seeds == Seeds::Count(COHORT) || crossed {
        out.push(Twin::Cohort);
    }
    out
}

type Runs = (Vec<Result<SimOutput, SimError>>, Option<SweepStats>);

/// The number of seeds `cell` runs.
fn seeds(cell: &Cell) -> u64 {
    match cell.spec.seeds {
        Seeds::Count(n) => n,
        Seeds::Range(lo, hi) => hi - lo,
    }
}

fn run_twin(engine: &Engine, cell: &Cell, twin: Twin) -> Result<Runs, String> {
    let mut spec = cell.spec.clone();
    let lo = spec.workload.launch.seed;
    let seeds = match twin {
        Twin::Reference => {
            let (module, cfg, launch) = (&spec.workload.module, &spec.cfg, &spec.workload.launch);
            let seeds = lo..lo + SEEDS;
            let runs =
                seeds.map(|seed| run_reference(module, cfg, &Launch { seed, ..launch.clone() }));
            return Ok((runs.collect(), None));
        }
        Twin::Traced => {
            spec.cfg.trace = true;
            spec.cfg.journal = Some(JournalConfig::default());
            SEEDS.to_string()
        }
        Twin::Cohort => format!("{lo}..{}", lo + seeds(cell)),
    };
    spec.apply(&[("seeds", seeds)]).map_err(|e| e.to_string())?;
    let out = engine.run(&spec, None, |run| run.result).map_err(|e| e.to_string())?;
    Ok((out.runs, out.sweep))
}

/// The first cell where two memory images differ by bits — type and
/// payload, so `-0.0` differs from `0.0` and a NaN matches itself, which
/// `Value`'s `==` gets wrong both ways — or `None` when they agree,
/// length included.
fn mem_diff(a: &[Value], b: &[Value]) -> Option<usize> {
    let bits = |v: &Value| match *v {
        Value::I64(x) => (false, x as u64),
        Value::F64(x) => (true, x.to_bits()),
    };
    let cell = a.iter().zip(b).position(|(x, y)| bits(x) != bits(y));
    cell.or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))
}

/// The accounting invariants every run's metrics must satisfy: per-warp
/// sums equal the totals, `lane_insts <= issues × warp_width`,
/// `roi_issues <= issue_weight`, and a SIMT efficiency of at most 1.
fn accounting(m: &Metrics) -> Result<(), String> {
    let warps = m.per_warp.iter().fold((0, 0), |t, w| (t.0 + w.0, t.1 + w.1));
    let broken = if warps != (m.issue_weight, m.active_lane_sum) {
        "per-warp (issue weight, active lanes) do not sum to the totals"
    } else if m.lane_insts > m.issues * m.warp_width as u64 {
        "more lane instructions than issues x warp width"
    } else if m.roi_issues > m.issue_weight {
        "more ROI issues than issue weight"
    } else if m.simt_efficiency() > 1.0 {
        "SIMT efficiency above 1"
    } else {
        return Ok(());
    };
    Err(format!("{broken}: {m:?}"))
}

/// What `cell`'s decoded runs must preserve on their own and against the
/// cells they are compared with.
fn compare(cells: &[Cell], cell: &Cell) -> Result<(), String> {
    let (name, cfg) = (cell.spec.workload.name, &cell.spec.cfg);
    let group = if name.starts_with("depth-") { name } else { "baseline" };
    let Some(reference) = cells.iter().find(|c| c.spec.workload.name == group) else {
        return Err(format!("{name} has no {group} cell to compare with"));
    };
    let depth0 = cell.pairs.iter().any(|(k, v)| k == "mem_hier" && v == DEPTH0);
    let off = depth0.then(|| {
        let s = |c: &&Cell| (c.spec.workload.name, c.spec.cfg.scheduler, c.spec.cfg.recon);
        cells.iter().find(|c| c.spec.cfg.mem.is_none() && s(c) == s(&cell))
    });
    let preserves = |i: usize, out: &SimOutput| {
        let (m, r) = (&out.metrics, &out.metrics.recon);
        accounting(m)?;
        if let Some(at) =
            reference.runs.get(i).and_then(|b| mem_diff(&b.global_mem, &out.global_mem))
        {
            return Err(format!("memory differs from {} at global[{at}]", reference.name()));
        }
        if cfg.recon == ReconvergenceModel::BarrierFile && !simt_sim::counters::is_zero(r) {
            return Err(format!("the barrier file touched hardware-model counters: {r:?}"));
        }
        if cfg.recon == ReconvergenceModel::IpdomStack && r.stack_pushes != r.stack_pops {
            return Err(format!("{} IPDOM pushes but {} pops", r.stack_pushes, r.stack_pops));
        }
        if let Some(off) = off {
            let off = off.and_then(|c| c.runs.get(i)).ok_or("no hierarchy-off cell")?;
            if off.metrics != (Metrics { mem: MemStats::default(), ..m.clone() }) {
                let off = &off.metrics;
                return Err(format!("depth 0 differs from hierarchy-off\n  {off:?}\n  {m:?}"));
            }
        }
        Ok(())
    };
    for (i, out) in cell.runs.iter().enumerate() {
        let seed = cell.spec.workload.launch.seed + i as u64;
        preserves(i, out).map_err(|e| format!("{} seed {seed:#x}: {e}", cell.name()))?;
    }
    Ok(())
}

/// A twin must reproduce its cell's runs exactly, and a cohort must take
/// the path its model allows.
fn compare_twin(cell: &Cell, twin: Twin, out: Result<Runs, String>) -> Result<(), String> {
    let what = format!("{} ({twin:?} twin)", cell.name());
    let (runs, sweep) = out.map_err(|e| format!("{what}: {e}"))?;
    let want = if matches!(twin, Twin::Cohort) { seeds(cell) } else { SEEDS };
    if runs.len() as u64 != want {
        return Err(format!("{what}: {} runs for {want} seeds", runs.len()));
    }
    if let Some(stats) = sweep {
        if stats.scalar_steps != 0 || stats.lockstep_issues == 0 {
            return Err(format!(
                "{what}: the cohort left lockstep ({} scalar steps, {} lockstep issues)",
                stats.scalar_steps, stats.lockstep_issues
            ));
        }
    }
    for (i, (run, decoded)) in runs.iter().zip(&cell.runs).enumerate() {
        let seed = cell.spec.workload.launch.seed + i as u64;
        let run = run.as_ref().map_err(|e| format!("{what} seed {seed:#x}: failed: {e}"))?;
        if run.metrics != decoded.metrics {
            return Err(format!(
                "{what} seed {seed:#x}: metrics differ\n  decoded: {:?}\n  twin:    {:?}",
                decoded.metrics, run.metrics
            ));
        }
        if let Some(at) = mem_diff(&decoded.global_mem, &run.global_mem) {
            return Err(format!("{what} seed {seed:#x}: memory differs at global[{at}]"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_sim::MemHierarchy;

    #[test]
    fn the_hierarchy_spellings_are_the_degenerate_constructors() {
        let lat = SimConfig::default().latency;
        assert_eq!(MemHierarchy::parse(DEPTH0, &lat), Ok(MemHierarchy::flat(&lat)));
        assert_eq!(MemHierarchy::parse(L1, &lat), Ok(MemHierarchy::l1(64, 16, 2, &lat)));
    }

    #[test]
    fn mem_diff_compares_bits() {
        let (z, nz, nan) = (Value::F64(0.0), Value::F64(-0.0), Value::F64(f64::NAN));
        assert_eq!(mem_diff(&[z], &[nz]), Some(0));
        assert_eq!(mem_diff(&[nan], &[nan]), None);
        assert_eq!(mem_diff(&[Value::I64(0)], &[z]), Some(0));
        assert_eq!(mem_diff(&[z], &[z, z]), Some(1));
    }
}
