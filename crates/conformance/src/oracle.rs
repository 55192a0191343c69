//! Semantic-equivalence oracle.
//!
//! For one [`ProgramSpec`] the oracle:
//!
//! 1. compiles the PDOM **baseline** and runs it under every scheduler
//!    policy × two launch seeds, checking the baseline itself is
//!    schedule-invariant (final global memory identical);
//! 2. compiles every applicable SR **variant** — soft/hard speculative
//!    barriers, static/dynamic deconfliction, barrier allocation,
//!    autodetect — and runs each under the same policy × seed matrix;
//! 3. asserts each variant's final global memory (which encodes every
//!    thread's architectural result, since the kernel epilogue stores
//!    the accumulator to `global[tid]`) is bit-identical to the
//!    baseline, that every run terminates, and that the transformed
//!    module is clean under the barrier-safety lint.
//!
//! A variant that the compiler legitimately rejects (`BadPrediction`
//! for a prediction outside a reducible region, or a
//! `SpeculativeConflict` that survives the dynamic-deconfliction
//! retry) is *skipped*, not failed — the oracle checks semantics of
//! accepted programs, not acceptance itself.
//!
//! The matrix has a fourth axis: the simulator's hardware
//! **reconvergence model** ([`recon_models`]). By default every run
//! uses the Volta barrier register file; setting
//! `CONFORMANCE_RECON_MODELS=all` crosses every (variant, policy,
//! seed) cell with the IPDOM stack and warp-split models too, and with
//! the memory hierarchy [`MEM_HIER`] next to the flat memory model. This
//! is the triangulation between compiler-side repair (SR variants) and
//! hardware-side repair (stack reconvergence, warp splitting): every
//! combination must land on the same final memory. Generated programs
//! only place `syncthreads` in uniform top-level control, so the
//! pre-Volta models cannot legitimately deadlock — any hang is a bug.
//!
//! Each variant's matrix is one [`Grid`] over its compiled module, run
//! as it is: the module is decoded once for all of its cells.
//!
//! And a fifth axis: the compiler-side **repair strategy**
//! ([`repairs`]). Setting `CONFORMANCE_REPAIRS=all` appends a variant
//! per melding-bearing [`RepairStrategy`] (`meld`, `sr+meld`, `auto`)
//! to the list, so control-flow melding is triangulated against the
//! same baseline across every policy, seed, and hardware model.

use crate::build::{build_module, mem_cells};
use crate::program::ProgramSpec;
use simt_ir::{Module, Value};
use simt_sim::{Launch, ReconvergenceModel, SchedulerPolicy, SimConfig};
use specrecon_core::{
    compile, lint_errors, CompileOptions, Compiled, DeconflictMode, DetectOptions, PassError,
    RepairStrategy,
};
use workloads::{DivergencePattern, Engine, Grid, RunSpec, Seeds, Workload};

/// Every scheduler policy the simulator offers.
pub const POLICIES: [SchedulerPolicy; 5] = [
    SchedulerPolicy::Greedy,
    SchedulerPolicy::MinPc,
    SchedulerPolicy::MaxPc,
    SchedulerPolicy::MostThreads,
    SchedulerPolicy::RoundRobin,
];

/// Reconvergence models the matrix crosses, from the
/// `CONFORMANCE_RECON_MODELS` environment variable:
///
/// - unset, empty, or `default` — the Volta barrier file only (the
///   model every pre-existing conformance result was produced under);
/// - `all` — barrier file, IPDOM stack, and warp-split with a re-fusion
///   window and subwarp compaction;
/// - anything else — whitespace-separated model specs in
///   [`ReconvergenceModel::parse`] syntax.
///
/// A malformed spec panics: a silently ignored model list would let CI
/// believe it ran a matrix it did not.
pub fn recon_models() -> Vec<ReconvergenceModel> {
    match recon_models_var().as_str() {
        "" | "default" => vec![ReconvergenceModel::BarrierFile],
        "all" => vec![
            ReconvergenceModel::BarrierFile,
            ReconvergenceModel::IpdomStack,
            ReconvergenceModel::WarpSplit { window: 4, compact: true },
        ],
        list => list
            .split_whitespace()
            .map(|spec| {
                ReconvergenceModel::parse(spec).unwrap_or_else(|e| {
                    panic!("CONFORMANCE_RECON_MODELS: bad model spec {spec:?}: {e}")
                })
            })
            .collect(),
    }
}

fn recon_models_var() -> String {
    std::env::var("CONFORMANCE_RECON_MODELS").unwrap_or_default().trim().to_string()
}

/// The memory hierarchy `CONFORMANCE_RECON_MODELS=all` crosses every cell
/// with, next to the flat model: the `model-axes` benchmark's.
pub const MEM_HIER: &str =
    "l1:lines=64,cells=16,lat=2,mshrs=4;l2:lines=512,cells=16,lat=8,mshrs=16;dram:lat=24,extra=2";

/// Repair strategies appended to the variant matrix, from the
/// `CONFORMANCE_REPAIRS` environment variable:
///
/// - unset, empty, or `default` — none: the historical variant list
///   (PDOM baseline, the SR variants, autodetect) runs unchanged;
/// - `all` — every melding-bearing strategy: `meld`, `sr+meld`, and
///   `auto` (the baseline and plain-SR strategies are already covered
///   by the historical variants);
/// - anything else — whitespace-separated strategy names in
///   [`RepairStrategy::parse`] syntax (`pdom` and `sr` are accepted
///   and simply re-check the historical cells).
///
/// A malformed name panics: a silently ignored repair list would let
/// CI believe it ran a matrix it did not.
pub fn repairs() -> Vec<RepairStrategy> {
    let var = std::env::var("CONFORMANCE_REPAIRS").unwrap_or_default();
    let var = var.trim();
    match var {
        "" | "default" => vec![],
        "all" => vec![RepairStrategy::Meld, RepairStrategy::SrMeld, RepairStrategy::Auto],
        list => list
            .split_whitespace()
            .map(|name| {
                RepairStrategy::parse(name).unwrap_or_else(|e| {
                    panic!("CONFORMANCE_REPAIRS: bad strategy name {name:?}: {e}")
                })
            })
            .collect(),
    }
}

/// Cycle budget per run; generated programs finish in well under this,
/// so hitting it means a transform introduced a deadlock or livelock.
const MAX_CYCLES: u64 = 5_000_000;

/// What the oracle did for one spec.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// Variant names that compiled and ran through the full matrix.
    pub variants_run: Vec<String>,
    /// Variant names skipped with the compiler's rejection reason.
    pub variants_skipped: Vec<(String, String)>,
}

fn launch(spec: &ProgramSpec, seed: u64) -> Launch {
    let mut l = Launch::new("main", spec.warps);
    l.global_mem = vec![Value::I64(0); mem_cells(spec)];
    l.seed = seed;
    l
}

fn launch_seeds(spec: &ProgramSpec) -> [u64; 2] {
    [spec.seed ^ 0xA5A5_5A5A_A5A5_5A5A, spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1]
}

fn with_warp_width(mut opts: CompileOptions, spec: &ProgramSpec) -> CompileOptions {
    opts.warp_width = spec.warp_width as u32;
    // The oracle checks the lint explicitly (release builds included),
    // so keep the pipeline's own debug-assert stage out of the way.
    opts.lint = false;
    opts
}

/// Outcome of trying to compile one variant.
enum VariantOutcome {
    Ready(Compiled),
    Skipped(String),
}

/// Compiles `module` with `opts`, retrying with dynamic run-time
/// deconfliction when static analysis reports an irreconcilable
/// speculative conflict (§4.3's escape hatch).
fn compile_variant(module: &Module, opts: &CompileOptions) -> Result<VariantOutcome, String> {
    match compile(module, opts) {
        Ok(c) => Ok(VariantOutcome::Ready(c)),
        Err(PassError::BadPrediction(msg)) => Ok(VariantOutcome::Skipped(msg)),
        Err(PassError::SpeculativeConflict(msg)) if !opts.spec_deconflict => {
            let mut retry = opts.clone();
            retry.spec_deconflict = true;
            match compile(module, &retry) {
                Ok(c) => Ok(VariantOutcome::Ready(c)),
                Err(PassError::BadPrediction(m) | PassError::SpeculativeConflict(m)) => {
                    Ok(VariantOutcome::Skipped(format!("{msg}; retry: {m}")))
                }
                Err(e) => Err(format!("dynamic-deconfliction retry failed: {e}")),
            }
        }
        Err(PassError::SpeculativeConflict(msg)) => Ok(VariantOutcome::Skipped(msg)),
        Err(e) => Err(format!("variant failed to compile: {e}")),
    }
}

/// Strips soft-barrier thresholds, turning every prediction into a
/// hard-barrier one.
fn strip_thresholds(module: &Module) -> Module {
    let mut m = module.clone();
    for (_, f) in m.functions.iter_mut() {
        for p in &mut f.predictions {
            p.threshold = None;
        }
    }
    m
}

/// Strips predictions entirely (input for the autodetect variant).
fn strip_predictions(module: &Module) -> Module {
    let mut m = module.clone();
    for (_, f) in m.functions.iter_mut() {
        f.predictions.clear();
    }
    m
}

/// The variant matrix for `spec`: name, source module, options.
fn variants(spec: &ProgramSpec, module: &Module) -> Vec<(String, Module, CompileOptions)> {
    let spec_opts = with_warp_width(CompileOptions::speculative(), spec);
    let mut out = vec![("spec-dynamic".to_string(), module.clone(), spec_opts.clone())];

    let mut st = spec_opts.clone();
    st.deconflict = DeconflictMode::Static;
    out.push(("spec-static".to_string(), module.clone(), st));

    let mut alloc = spec_opts.clone();
    alloc.barrier_allocation = true;
    // The oracle checks semantics, not hardware fit: deeply nested
    // generated programs may legitimately need more registers than Volta
    // exposes once the allocator declines every unsound merge.
    alloc.barrier_limit = None;
    out.push(("spec-alloc".to_string(), module.clone(), alloc));

    if spec.predictions.iter().any(|p| p.threshold.is_some()) {
        out.push(("spec-hard".to_string(), strip_thresholds(module), spec_opts));
    }

    out.push((
        "auto".to_string(),
        strip_predictions(module),
        with_warp_width(CompileOptions::automatic(DetectOptions::default()), spec),
    ));

    for r in repairs() {
        // Auto synthesizes its own predictions, so hand it the bare
        // module; the fixed strategies keep the spec's annotations
        // (melding ignores them, sr+meld consumes them).
        let source = match r {
            RepairStrategy::Auto => strip_predictions(module),
            _ => module.clone(),
        };
        out.push((format!("repair-{r}"), source, with_warp_width(r.options(), spec)));
    }
    out
}

fn render_mem(mem: &[Value]) -> String {
    mem.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>().join(", ")
}

/// Runs `compiled` as it is across the launch seed × policy ×
/// reconvergence-model matrix (× memory model under
/// `CONFORMANCE_RECON_MODELS=all`), comparing final memory against
/// `reference` (one snapshot per launch seed). The snapshot for each seed
/// is taken from the matrix's first cell with that seed (the flat memory
/// model, [`POLICIES`]' first and the first model); every other cell —
/// including all hardware-model and hierarchy runs — must reproduce it
/// exactly.
fn run_matrix(
    engine: &Engine,
    name: &str,
    spec: &ProgramSpec,
    compiled: &Compiled,
    reference: Option<&[Vec<Value>]>,
) -> Result<Vec<Vec<Value>>, String> {
    let seeds = launch_seeds(spec);
    let workload = Workload {
        name: "conformance",
        description: "A generated program.",
        pattern: DivergencePattern::IterationDelay,
        module: compiled.module.clone(),
        launch: launch(spec, seeds[0]),
    };
    let cfg =
        SimConfig { warp_width: spec.warp_width, max_cycles: MAX_CYCLES, ..SimConfig::default() };
    let flat = RunSpec { workload, compile: None, cfg, seeds: Seeds::Count(1) };
    let mut bases = vec![flat.clone()];
    if recon_models_var() == "all" {
        let mut hier = flat;
        hier.apply(&[("mem_hier", MEM_HIER)]).expect("the hierarchy parses");
        bases.push(hier);
    }
    // A policy's Debug name, lowercased, is its spelling.
    let policies = POLICIES.map(|p| format!("{p:?}").to_lowercase());
    let grid = Grid::new(bases)
        .axis("seed", seeds)
        .axis("policy", policies)
        .axis("recon_model", recon_models().iter().map(ReconvergenceModel::spec));
    let cells = engine.run_grid(&grid).map_err(|e| {
        format!("[{name}] run failed: {e}\ntransformed module:\n{}", compiled.module)
    })?;

    let mut snapshots: Vec<Vec<Value>> = Vec::new();
    for cell in &cells {
        let ls = cell.spec.workload.launch.seed;
        let si = seeds.iter().position(|&s| s == ls).expect("a launch seed of the matrix");
        let mem = &cell.runs[0].global_mem;
        if let Some(reference) = reference {
            if *mem != reference[si] {
                return Err(format!(
                    "[{name}] memory mismatch vs baseline in {} (launch seed {ls:#x}):\n  \
                     baseline: {}\n  variant:  {}\ntransformed module:\n{}",
                    cell.name(),
                    render_mem(&reference[si]),
                    render_mem(mem),
                    compiled.module
                ));
            }
        }
        match snapshots.get(si) {
            None => snapshots.push(mem.clone()),
            Some(first) if first != mem => {
                return Err(format!(
                    "[{name}] not schedule-invariant: {} disagrees with the first cell of \
                     launch seed {ls:#x}:\n  first: {}\n  now:   {}",
                    cell.name(),
                    render_mem(first),
                    render_mem(mem)
                ));
            }
            Some(_) => {}
        }
    }
    Ok(snapshots)
}

/// Checks one spec end to end. `Err` carries a human-readable
/// violation report (including the offending module text).
pub fn check(spec: &ProgramSpec) -> Result<OracleReport, String> {
    let module = build_module(spec);
    // One engine per spec: each variant's image is decoded once for its
    // whole matrix, and nothing outlives the check.
    let engine = Engine::new(1);

    let base_opts = with_warp_width(CompileOptions::baseline(), spec);
    let baseline = compile(&module, &base_opts)
        .map_err(|e| format!("[baseline] compile failed: {e}\nsource module:\n{module}"))?;
    let reference = run_matrix(&engine, "baseline", spec, &baseline, None)?;

    let mut report = OracleReport::default();
    for (name, source, opts) in variants(spec, &module) {
        match compile_variant(&source, &opts)
            .map_err(|e| format!("[{name}] {e}\nsource module:\n{source}"))?
        {
            VariantOutcome::Skipped(reason) => report.variants_skipped.push((name, reason)),
            VariantOutcome::Ready(compiled) => {
                let lint = lint_errors(&compiled);
                if !lint.is_empty() {
                    return Err(format!(
                        "[{name}] barrier-safety lint rejected the transformed module:\n{}\n\
                         transformed module:\n{}",
                        lint.join("\n"),
                        compiled.module
                    ));
                }
                run_matrix(&engine, &name, spec, &compiled, Some(&reference))?;
                report.variants_run.push(name);
            }
        }
    }
    Ok(report)
}
