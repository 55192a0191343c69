//! The end-to-end compilation pipeline.
//!
//! Mirrors the paper's evaluated configurations:
//!
//! - **baseline**: PDOM reconvergence only — what the production compiler
//!   emits (`CompileOptions::baseline`);
//! - **speculative**: PDOM, then the §4.2/§4.4/§4.6 speculative passes for
//!   every `Predict` annotation, then §4.3 deconfliction (dynamic by
//!   default — the paper's evaluated configuration);
//! - **automatic**: run §4.5 detection first to synthesize the
//!   annotations, then proceed as speculative.

use crate::autodetect::{auto_annotate, Candidate, DetectOptions};
use crate::barrier_alloc::{allocate_module, BarrierAllocReport};
use crate::deconflict::{conflicts, deconflict_with_calls, DeconflictMode, DeconflictReport};
use crate::error::PassError;
use crate::interproc::{apply_interprocedural, InterprocReport};
use crate::meld::{apply_melds, MeldOptions, MeldReport};
use crate::pdom::{insert_pdom_sync, PdomReport};
use crate::specrecon::{apply_speculative, SpecReport};
use simt_analysis::FunctionAnalyses;
use simt_ir::{verify_module, BarrierId, FuncId, FuncKind, Module};

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Insert baseline PDOM synchronization.
    pub pdom: bool,
    /// Honor `Predict` annotations (the paper's user-guided mode).
    pub speculative: bool,
    /// Run §4.5 automatic detection before the speculative pass.
    pub auto_detect: Option<DetectOptions>,
    /// Run control-flow melding ([`crate::meld`]) before the
    /// reconvergence passes, de-duplicating alignable work in divergent
    /// if/else arms. Off by default; composes with PDOM and SR, which
    /// repair the residual divergence.
    pub meld: Option<MeldOptions>,
    /// Deconfliction strategy.
    pub deconflict: DeconflictMode,
    /// Warp width, needed by the soft-barrier lowering.
    pub warp_width: u32,
    /// Arbitrate conflicts between two *speculative* barriers by priority
    /// (annotation order: earlier predictions win), using the same dynamic
    /// cancel-before-wait mechanism as §4.3. Off by default — the paper
    /// supports this for *exclusive* predictions (§6, "if these
    /// predictions are exclusive, they can be supported using
    /// deconfliction"); non-exclusive overlaps should use soft barriers
    /// instead.
    pub spec_deconflict: bool,
    /// Run barrier register allocation after the sync passes, recycling
    /// registers across non-overlapping regions. Off by default so pass
    /// reports and golden output keep the virtual numbering; turn on to
    /// target real hardware limits.
    pub barrier_allocation: bool,
    /// Hardware barrier-register limit enforced when
    /// [`CompileOptions::barrier_allocation`] is on
    /// ([`crate::barrier_alloc::VOLTA_BARRIER_REGISTERS`] by default).
    pub barrier_limit: Option<usize>,
    /// Run the barrier-safety lint ([`crate::lint`]) after verification
    /// and fail with [`PassError::Lint`] on error-severity findings. On
    /// by default in debug builds (a debug-assert stage), off in release
    /// builds.
    pub lint: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            pdom: true,
            speculative: true,
            auto_detect: None,
            meld: None,
            deconflict: DeconflictMode::Dynamic,
            warp_width: 32,
            spec_deconflict: false,
            barrier_allocation: false,
            barrier_limit: Some(crate::barrier_alloc::VOLTA_BARRIER_REGISTERS),
            lint: cfg!(debug_assertions),
        }
    }
}

impl CompileOptions {
    /// The baseline configuration: PDOM only, predictions ignored.
    pub fn baseline() -> Self {
        Self { speculative: false, ..Self::default() }
    }

    /// The paper's evaluated configuration: user-guided speculative
    /// reconvergence with dynamic deconfliction.
    pub fn speculative() -> Self {
        Self::default()
    }

    /// Automatic mode: detect opportunities, then compile speculatively.
    pub fn automatic(detect: DetectOptions) -> Self {
        Self { auto_detect: Some(detect), ..Self::default() }
    }
}

/// The divergence-repair axis: which repair (or composition of repairs)
/// the pipeline applies to divergent control flow.
///
/// Parsed from `--repair` on the CLI and the `repair` knob of
/// `/v1/eval`; the conformance grid runs every melding strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RepairStrategy {
    /// Baseline PDOM reconvergence only.
    Pdom,
    /// Speculative reconvergence (the paper's evaluated configuration).
    Sr,
    /// Control-flow melding over PDOM, with SR disabled.
    Meld,
    /// Melding first, then speculative reconvergence on the residual
    /// divergence.
    SrMeld,
    /// Per-site cost models pick the repairs: melding is score-gated per
    /// diamond, then §4.5 detection synthesizes SR predictions on the
    /// residual CFG.
    Auto,
}

impl RepairStrategy {
    /// Every strategy, in the order the evaluation tables report them.
    pub const ALL: [RepairStrategy; 5] = [
        RepairStrategy::Pdom,
        RepairStrategy::Sr,
        RepairStrategy::Meld,
        RepairStrategy::SrMeld,
        RepairStrategy::Auto,
    ];

    /// Parses a spec string: `pdom | sr | meld | sr+meld | auto`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL.into_iter().find(|r| r.spec() == s).ok_or_else(|| {
            format!("unknown repair strategy `{s}` (expected pdom | sr | meld | sr+meld | auto)")
        })
    }

    /// The canonical spec string ([`RepairStrategy::parse`] inverse).
    pub fn spec(self) -> &'static str {
        match self {
            RepairStrategy::Pdom => "pdom",
            RepairStrategy::Sr => "sr",
            RepairStrategy::Meld => "meld",
            RepairStrategy::SrMeld => "sr+meld",
            RepairStrategy::Auto => "auto",
        }
    }

    /// The pipeline configuration implementing this strategy.
    pub fn options(self) -> CompileOptions {
        match self {
            RepairStrategy::Pdom => CompileOptions::baseline(),
            RepairStrategy::Sr => CompileOptions::speculative(),
            RepairStrategy::Meld => {
                CompileOptions { meld: Some(MeldOptions::default()), ..CompileOptions::baseline() }
            }
            RepairStrategy::SrMeld => CompileOptions {
                meld: Some(MeldOptions::default()),
                ..CompileOptions::speculative()
            },
            RepairStrategy::Auto => CompileOptions {
                meld: Some(MeldOptions::default()),
                auto_detect: Some(DetectOptions::default()),
                ..CompileOptions::default()
            },
        }
    }
}

impl std::fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec())
    }
}

/// Everything the pipeline did, per function.
#[derive(Clone, Debug, Default)]
pub struct FunctionReport {
    /// PDOM insertion report.
    pub pdom: PdomReport,
    /// Speculative (intraprocedural) report.
    pub speculative: SpecReport,
    /// Interprocedural reports.
    pub interproc: Vec<InterprocReport>,
    /// Deconfliction report.
    pub deconflict: DeconflictReport,
    /// Candidates applied by automatic detection.
    pub auto_applied: Vec<Candidate>,
    /// Control-flow melding report.
    pub meld: MeldReport,
}

/// Pipeline output: the transformed module plus per-function reports.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The transformed module, ready for the simulator.
    pub module: Module,
    /// Reports, indexed like `module.functions`.
    pub reports: Vec<(FuncId, FunctionReport)>,
    /// Module-wide barrier allocation report, when
    /// [`CompileOptions::barrier_allocation`] ran.
    pub barrier_alloc: Option<BarrierAllocReport>,
    /// The passes' analysis views, one per function of `module`, which
    /// [`lint_compiled`](crate::lint_compiled) reads instead of analysing
    /// the module again (each view builds what it lacks on first use).
    pub(crate) views: std::cell::RefCell<Vec<FunctionAnalyses>>,
}

/// Runs the pipeline over every function of `module`.
///
/// # Errors
///
/// Returns a [`PassError`] on bad predictions, module problems,
/// irreducible speculative-speculative conflicts, or IR verification
/// failures (the output is always verified; debug builds verify after
/// every pass and name the pass that broke it).
pub fn compile(module: &Module, opts: &CompileOptions) -> Result<Compiled, PassError> {
    let mut m = module.clone();
    m.resolve_calls().map_err(|n| PassError::Module(format!("call to undefined function @{n}")))?;

    let func_ids: Vec<FuncId> = m.functions.ids().collect();
    let mut reports: Vec<(FuncId, FunctionReport)> = Vec::new();
    // One analysis view per function; it rebuilds when a pass edits the CFG.
    let mut views = vec![FunctionAnalyses::default(); m.functions.len()];
    let verify = |m: &Module, pass: &str| {
        verify_module(m).map_err(|e| PassError::Verify(pass.to_string(), e))
    };
    let check =
        |m: &Module, pass: &str| if cfg!(debug_assertions) { verify(m, pass) } else { Ok(()) };

    // Barrier registers are warp-global and shared across call frames, so
    // compiler-inserted barriers must be numbered module-globally: if a
    // device function's PDOM pass reused the kernel's b0, a call from
    // inside the kernel's barriered loop would join/wait the *kernel's*
    // loop-reconvergence register from the callee frame and deadlock the
    // warp. Pre-seeding each function's counter with the running maximum
    // keeps every fresh allocation disjoint, without renumbering barriers
    // already written in the source (deliberate cross-function sharing,
    // as in §4.4 hand-written tests, must survive untouched). The
    // optional allocation pass below compacts the numbering again.
    let mut next_barrier = 0usize;

    for id in func_ids {
        let fa = &mut views[id.index()];
        let mut report = FunctionReport::default();
        let orig_barriers = m.functions[id].num_barriers;
        let preseeded = orig_barriers.max(next_barrier);
        m.functions[id].num_barriers = preseeded;

        if let Some(meld_opts) = &opts.meld {
            // Melding runs before every reconvergence pass: the PDOM pass
            // then reconverges at the melded block (the branch's ipdom)
            // and SR detection sees only the residual divergence.
            if m.functions[id].kind == FuncKind::Kernel {
                report.meld = apply_melds(&mut m.functions[id], fa, meld_opts);
                check(&m, "meld")?;
            }
        }

        if let Some(detect_opts) = &opts.auto_detect {
            // Automatic detection defers to the user: functions that
            // already carry predictions keep them (stacking a detected
            // region on a user region would create a speculative-vs-
            // speculative conflict §4.3 cannot arbitrate).
            if m.functions[id].kind == FuncKind::Kernel && m.functions[id].predictions.is_empty() {
                report.auto_applied = auto_annotate(&mut m.functions[id], fa, detect_opts);
                check(&m, "auto")?;
            }
        }

        if opts.pdom {
            report.pdom = insert_pdom_sync(&mut m.functions[id], fa);
            check(&m, "pdom")?;
        }

        let mut spec_barriers: Vec<BarrierId> = Vec::new();
        if opts.speculative {
            report.speculative = apply_speculative(&mut m.functions[id], fa, opts.warp_width)?;
            check(&m, "speculative")?;
            spec_barriers.extend(report.speculative.barriers());
            report.interproc = apply_interprocedural(&mut m, id, fa)?;
            check(&m, "interproc")?;
            spec_barriers.extend(report.interproc.iter().map(|r| r.barrier));
        }

        if opts.speculative && !spec_barriers.is_empty() {
            let pdom_barriers: Vec<BarrierId> =
                report.pdom.inserted.iter().map(|(_, _, b)| *b).collect();
            // §4.4 barriers wait at the callee's entry; conflict analysis
            // must treat each call to the predicted callee as that
            // barrier's wait (the call-wait view).
            let interproc_calls: Vec<(FuncId, BarrierId)> =
                report.interproc.iter().map(|r| (r.callee, r.barrier)).collect();
            report.deconflict = deconflict_with_calls(
                &mut m.functions[id],
                fa,
                &spec_barriers,
                &pdom_barriers,
                &interproc_calls,
                opts.deconflict,
            );

            // Speculative-speculative conflicts: with `spec_deconflict`,
            // arbitrate by annotation order (§6's exclusive-predictions
            // case); otherwise surface them.
            if opts.spec_deconflict {
                let priority =
                    |b: &BarrierId| spec_barriers.iter().position(|x| x == b).unwrap_or(usize::MAX);
                let soft_regs = report.speculative.soft_registers();
                loop {
                    let pair = conflicts(&m.functions[id], fa, &interproc_calls)
                        .into_iter()
                        .find(|c| spec_barriers.contains(&c.a) && spec_barriers.contains(&c.b));
                    let Some(c) = pair else { break };
                    // Soft-barrier registers cannot be arbitrated by
                    // cancellation: the soft lowering's per-round re-arm
                    // re-snapshots the membership mask, resurrecting any
                    // deconfliction cancel and deadlocking stragglers.
                    if soft_regs.contains(&c.a) || soft_regs.contains(&c.b) {
                        return Err(PassError::SpeculativeConflict(format!(
                            "@{}: {} vs {} (soft-barrier registers cannot be deconflicted)",
                            m.functions[id].name, c.a, c.b
                        )));
                    }
                    let (winner, loser) =
                        if priority(&c.a) <= priority(&c.b) { (c.a, c.b) } else { (c.b, c.a) };
                    let r = deconflict_with_calls(
                        &mut m.functions[id],
                        fa,
                        &[winner],
                        &[loser],
                        &interproc_calls,
                        DeconflictMode::Dynamic,
                    );
                    if r.resolved.is_empty() {
                        // No progress possible: report rather than spin.
                        return Err(PassError::SpeculativeConflict(format!(
                            "@{}: {} vs {} (unresolvable)",
                            m.functions[id].name, winner, loser
                        )));
                    }
                    report.deconflict.resolved.extend(r.resolved);
                }
            }
            let spec_spec: Vec<String> = conflicts(&m.functions[id], fa, &interproc_calls)
                .into_iter()
                .filter(|c| spec_barriers.contains(&c.a) && spec_barriers.contains(&c.b))
                .map(|c| format!("@{}: {} vs {}", m.functions[id].name, c.a, c.b))
                .collect();
            if !spec_spec.is_empty() {
                return Err(PassError::SpeculativeConflict(spec_spec.join(", ")));
            }
            check(&m, "deconflict")?;
        }

        // If no pass allocated a barrier here, restore the original count
        // so untouched functions keep their declared register footprint.
        if m.functions[id].num_barriers == preseeded {
            m.functions[id].num_barriers = orig_barriers;
        }
        // Interprocedural predictions allocate in this caller and can bump
        // the callee too; track the module-wide maximum.
        next_barrier = m.functions.iter().map(|(_, f)| f.num_barriers).max().unwrap_or(0);

        reports.push((id, report));
    }

    let barrier_alloc = if opts.barrier_allocation {
        let report = allocate_module(&mut m, &mut views, opts.barrier_limit)?;
        check(&m, "barrier-allocation")?;
        Some(report)
    } else {
        None
    };

    verify(&m, "pipeline")?;

    let compiled = Compiled { module: m, reports, barrier_alloc, views: views.into() };
    if opts.lint {
        let errors = crate::lint::errors_of(&crate::lint::lint_compiled(&compiled));
        if !errors.is_empty() {
            return Err(PassError::Lint(errors.join("\n")));
        }
    }
    Ok(compiled)
}

/// Profile-guided compilation (§4.5's "profile information may help
/// improve the accuracy of our profitability tests"):
///
/// 1. compile the baseline (PDOM) pipeline and run it once with per-block
///    profiling enabled;
/// 2. run detection with the *measured* block visit counts (which capture
///    real trip counts and branch probabilities the static heuristics can
///    only guess);
/// 3. compile speculatively with the resulting annotations.
///
/// Functions that already carry user predictions keep them, exactly as in
/// automatic mode.
///
/// # Errors
///
/// Propagates pass errors and the profiling run's [`simt_sim::SimError`]
/// (wrapped as [`PassError::Module`]).
pub fn compile_profile_guided(
    module: &Module,
    opts: &CompileOptions,
    detect_opts: &DetectOptions,
    cfg: &simt_sim::SimConfig,
    launch: &simt_sim::Launch,
) -> Result<Compiled, PassError> {
    // Profiling run on the baseline compilation (no melding either: the
    // profile must attribute lost lanes to the *original* diamond arms).
    let baseline =
        compile(module, &CompileOptions { speculative: false, meld: None, ..opts.clone() })?;
    let prof_cfg = simt_sim::SimConfig { profile: true, ..cfg.clone() };
    let out = simt_sim::run(&baseline.module, &prof_cfg, launch)
        .map_err(|e| PassError::Module(format!("profiling run failed: {e}")))?;
    let profile = out.profile.expect("profiling was enabled");

    // Annotate the *original* module with profile-guided candidates, then
    // compile it speculatively.
    let mut annotated = module.clone();
    annotated
        .resolve_calls()
        .map_err(|n| PassError::Module(format!("call to undefined function @{n}")))?;
    let ids: Vec<FuncId> = annotated.functions.ids().collect();
    for id in ids {
        let f = &mut annotated.functions[id];
        if f.kind == FuncKind::Kernel && f.predictions.is_empty() {
            if let Some(meld_opts) = &opts.meld {
                crate::meld::apply_melds_profiled(
                    f,
                    id,
                    &profile,
                    opts.warp_width as usize,
                    meld_opts,
                );
            }
            crate::autodetect::auto_annotate_profiled(f, id, &profile, detect_opts);
        }
    }
    compile(&annotated, &CompileOptions { auto_detect: None, meld: None, ..opts.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{parse_module, Value};
    use simt_sim::{run, Launch, SimConfig};

    const LISTING1: &str = r#"
kernel @k(params=0, regs=6, barriers=0, entry=bb0) {
  predict bb0 -> label L1
bb0:
  %r0 = special.tid
  %r2 = mov 0
  %r5 = mov 0
  jmp bb1
bb1:
  %r1 = rng.unit
  %r3 = lt %r1, 0.2f
  brdiv %r3, bb2, bb3
bb2 (label=L1, roi):
  work 200
  %r5 = add %r5, 1
  jmp bb3
bb3:
  %r2 = add %r2, 1
  %r3 = lt %r2, 20
  brdiv %r3, bb1, bb4
bb4:
  store global[%r0], %r5
  exit
}
"#;

    fn launch() -> Launch {
        let mut l = Launch::new("k", 4);
        l.global_mem = vec![Value::I64(0); 128];
        l
    }

    #[test]
    fn baseline_vs_speculative_shapes() {
        let m = parse_module(LISTING1).unwrap();
        let base = compile(&m, &CompileOptions::baseline()).unwrap();
        let spec = compile(&m, &CompileOptions::speculative()).unwrap();
        let cfg = SimConfig::default();
        let out_b = run(&base.module, &cfg, &launch()).unwrap();
        let out_s = run(&spec.module, &cfg, &launch()).unwrap();

        // Same results.
        assert_eq!(out_b.global_mem, out_s.global_mem);
        // Better expensive-block convergence.
        let (rb, rs) = (out_b.metrics.roi_simt_efficiency(), out_s.metrics.roi_simt_efficiency());
        assert!(rs > rb + 0.1, "SR should beat PDOM: {rb} vs {rs}");
        // And a speedup.
        assert!(
            out_s.metrics.cycles < out_b.metrics.cycles,
            "SR should be faster: {} vs {}",
            out_b.metrics.cycles,
            out_s.metrics.cycles
        );
    }

    #[test]
    fn automatic_matches_user_guided() {
        // §5.4: automatic SR performs the same as programmer-annotated.
        let m = parse_module(LISTING1).unwrap();
        let mut unannotated = m.clone();
        let id = unannotated.function_by_name("k").unwrap();
        unannotated.functions[id].predictions.clear();

        let auto =
            compile(&unannotated, &CompileOptions::automatic(DetectOptions::default())).unwrap();
        assert!(
            !auto.reports[0].1.auto_applied.is_empty(),
            "detector should find the iteration-delay pattern"
        );
        let user = compile(&m, &CompileOptions::speculative()).unwrap();
        let cfg = SimConfig::default();
        let out_a = run(&auto.module, &cfg, &launch()).unwrap();
        let out_u = run(&user.module, &cfg, &launch()).unwrap();
        assert_eq!(out_a.global_mem, out_u.global_mem);
        let (ea, eu) = (out_a.metrics.roi_simt_efficiency(), out_u.metrics.roi_simt_efficiency());
        assert!((ea - eu).abs() < 0.05, "auto {ea} vs user {eu}");
    }

    #[test]
    fn reports_enumerate_inserted_sync() {
        let m = parse_module(LISTING1).unwrap();
        let spec = compile(&m, &CompileOptions::speculative()).unwrap();
        let report = &spec.reports[0].1;
        assert_eq!(report.pdom.inserted.len(), 2, "two divergent branches");
        assert_eq!(report.speculative.predictions.len(), 1);
        assert!(!report.deconflict.resolved.is_empty(), "Figure-5 conflict resolved");
    }

    #[test]
    fn undefined_call_is_a_module_error() {
        let src = "kernel @k(params=0, regs=1, barriers=0, entry=bb0) {\nbb0:\n  call @ghost()\n  exit\n}\n";
        let m = parse_module(src).unwrap();
        let err = compile(&m, &CompileOptions::baseline()).unwrap_err();
        assert!(matches!(err, PassError::Module(msg) if msg.contains("ghost")));
    }

    #[test]
    fn static_deconfliction_also_compiles_and_runs() {
        let m = parse_module(LISTING1).unwrap();
        let opts =
            CompileOptions { deconflict: DeconflictMode::Static, ..CompileOptions::default() };
        let spec = compile(&m, &opts).unwrap();
        let out = run(&spec.module, &SimConfig::default(), &launch()).unwrap();
        assert!(out.metrics.roi_simt_efficiency() > 0.4);
    }
}
