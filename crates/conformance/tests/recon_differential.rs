//! Differential conformance for the reconvergence-model axis.
//!
//! Three claims, for random programs from the conformance genome:
//!
//! 1. **`BarrierFile` is the pre-existing engine.** With the default
//!    model the decoded engine and the tree-walking reference agree
//!    bit-for-bit — metrics, final global memory, errors — and the new
//!    per-model counters ([`Metrics::recon`]) stay zero. The recon
//!    plumbing must be unobservable on the Volta path.
//! 2. **Hardware repair is value-equal to compiler repair.** The same
//!    program — both the raw PDOM module and, when the compiler
//!    accepts it, its SR-transformed twin — lands on the same final
//!    global memory under the IPDOM stack and warp-split models as
//!    under the barrier file, for every scheduler policy and launch
//!    seed, and every run terminates. On the stack model the push/pop
//!    ledger must balance. This is the triangulation: pre-Volta
//!    hardware reconvergence, Volta barriers, and speculative
//!    reconvergence barriers (inert on pre-Volta) are three routes to
//!    the same architectural result.
//! 3. **The fast path is the general round.** Under every hardware
//!    model a traced and journaled run — which takes no pick hint and
//!    batches nothing — reports the full [`Metrics`] (cycles, issues,
//!    `recon` splits/fusions/deferrals/pushes/pops, memory counters)
//!    and the final memory of the plain run, bit for bit.
//!
//! Case count defaults to 64 and is capped by `CONFORMANCE_CASES`.

mod common;

use conformance::oracle::POLICIES;
use conformance::program::spec_strategy;
use conformance::{build_module, ProgramSpec};
use proptest::prelude::*;
use simt_ir::{Module, Value};
use simt_sim::{
    counters, run, run_reference, JournalConfig, Launch, ReconvergenceModel, SimConfig,
};
use specrecon_core::{compile, CompileOptions, PassError};

/// Cycle budget per run (mirrors the oracle's).
const MAX_CYCLES: u64 = 5_000_000;

/// The hardware models under test: the IPDOM stack, bare warp
/// splitting, and warp splitting with a re-fusion window plus subwarp
/// compaction.
const HW_MODELS: [ReconvergenceModel; 3] = [
    ReconvergenceModel::IpdomStack,
    ReconvergenceModel::WarpSplit { window: 0, compact: false },
    ReconvergenceModel::WarpSplit { window: 4, compact: true },
];

fn cfg(
    spec: &ProgramSpec,
    policy: simt_sim::SchedulerPolicy,
    recon: ReconvergenceModel,
) -> SimConfig {
    SimConfig {
        warp_width: spec.warp_width,
        scheduler: policy,
        max_cycles: MAX_CYCLES,
        recon,
        ..SimConfig::default()
    }
}

fn launch(spec: &ProgramSpec, seed: u64) -> Launch {
    let mut l = Launch::new("main", spec.warps);
    l.global_mem = vec![Value::I64(0); conformance::build::mem_cells(spec)];
    l.seed = seed;
    l
}

/// The modules to cross with the models: the raw PDOM program, plus
/// its SR-transformed twin when the compiler accepts it (a rejection
/// is a legitimate skip, exactly as in the oracle).
fn modules(spec: &ProgramSpec) -> Result<Vec<(&'static str, Module)>, String> {
    let module = build_module(spec);
    let mut out = vec![("pdom", module.clone())];
    let mut opts = CompileOptions::speculative();
    opts.warp_width = spec.warp_width as u32;
    opts.lint = false;
    match compile(&module, &opts) {
        Ok(c) => out.push(("spec", c.module)),
        Err(PassError::BadPrediction(_) | PassError::SpeculativeConflict(_)) => {}
        Err(e) => return Err(format!("speculative compile failed unexpectedly: {e}")),
    }
    Ok(out)
}

fn check_models(spec: &ProgramSpec) -> Result<(), String> {
    let seeds =
        [spec.seed ^ 0xA5A5_5A5A_A5A5_5A5A, spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1];
    for (name, module) in modules(spec)? {
        for &policy in &POLICIES {
            for &ls in &seeds {
                let l = launch(spec, ls);

                // Claim 1: BarrierFile decoded == reference, bit for bit,
                // with the per-model counters silent.
                let volta_cfg = cfg(spec, policy, ReconvergenceModel::BarrierFile);
                let decoded = run(&module, &volta_cfg, &l);
                let reference = run_reference(&module, &volta_cfg, &l);
                let volta = match (&decoded, &reference) {
                    (Ok(d), Ok(r)) => {
                        if d.metrics != r.metrics {
                            return Err(format!(
                                "[{name}] {policy:?} seed {ls:#x}: decoded/reference metrics \
                                 diverge under barrier-file\ndecoded:   {:?}\nreference: {:?}",
                                d.metrics, r.metrics
                            ));
                        }
                        if let Some(cell) = common::mem_diff(&d.global_mem, &r.global_mem) {
                            return Err(format!(
                                "[{name}] {policy:?} seed {ls:#x}: decoded/reference memory \
                                 diverges under barrier-file at cell {cell}"
                            ));
                        }
                        if !counters::is_zero(&d.metrics.recon) {
                            return Err(format!(
                                "[{name}] {policy:?} seed {ls:#x}: barrier-file run touched \
                                 hardware-model counters: {:?}",
                                d.metrics.recon
                            ));
                        }
                        d
                    }
                    (Err(a), Err(b)) if a == b => {
                        return Err(format!(
                            "[{name}] {policy:?} seed {ls:#x}: generated program failed: {a}"
                        ));
                    }
                    (a, b) => {
                        return Err(format!(
                            "[{name}] {policy:?} seed {ls:#x}: engines disagree under \
                             barrier-file\ndecoded:   {:?}\nreference: {:?}",
                            a.as_ref().map(|_| "ok"),
                            b.as_ref().map(|_| "ok"),
                        ));
                    }
                };

                // Claim 2: every hardware model reaches the same memory.
                for &model in &HW_MODELS {
                    let out = run(&module, &cfg(spec, policy, model), &l).map_err(|e| {
                        format!(
                            "[{name}] {policy:?} seed {ls:#x}: run failed under {}: {e}\n\
                                 module:\n{module}",
                            model.spec()
                        )
                    })?;
                    if let Some(cell) = common::mem_diff(&out.global_mem, &volta.global_mem) {
                        return Err(format!(
                            "[{name}] {policy:?} seed {ls:#x}: {} memory diverges from \
                             barrier-file at cell {cell}\nmodule:\n{module}",
                            model.spec()
                        ));
                    }
                    if matches!(model, ReconvergenceModel::IpdomStack)
                        && out.metrics.recon.stack_pushes != out.metrics.recon.stack_pops
                    {
                        return Err(format!(
                            "[{name}] {policy:?} seed {ls:#x}: unbalanced ipdom stack: \
                             {} pushes, {} pops",
                            out.metrics.recon.stack_pushes, out.metrics.recon.stack_pops
                        ));
                    }

                    // Claim 3: the unhinted, unbatched run agrees exactly.
                    let traced_cfg = SimConfig {
                        trace: true,
                        journal: Some(JournalConfig::default()),
                        ..cfg(spec, policy, model)
                    };
                    let traced = run(&module, &traced_cfg, &l).map_err(|e| {
                        format!(
                            "[{name}] {policy:?} seed {ls:#x}: traced run failed under {}: {e}",
                            model.spec()
                        )
                    })?;
                    if traced.metrics != out.metrics
                        || common::mem_diff(&traced.global_mem, &out.global_mem).is_some()
                    {
                        return Err(format!(
                            "[{name}] {policy:?} seed {ls:#x}: traced and plain runs diverge \
                             under {}\nplain:  {:?}\ntraced: {:?}\nmodule:\n{module}",
                            model.spec(),
                            out.metrics,
                            traced.metrics
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: conformance::configured_cases(64),
        .. ProptestConfig::default()
    })]

    #[test]
    fn hardware_models_match_the_barrier_file(spec in spec_strategy()) {
        if let Err(violation) = check_models(&spec) {
            prop_assert!(
                false,
                "generator seed {:#018x} violated reconvergence-model equivalence:\n{violation}",
                spec.seed
            );
        }
    }
}

/// Replays a single genome seed from `CONFORMANCE_SEED` (mirrors
/// `fuzz_equivalence::replay_env_seed`).
#[test]
fn replay_env_seed() {
    let Some(seed) = std::env::var("CONFORMANCE_SEED").ok().and_then(|v| {
        let v = v.trim();
        v.strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16).ok())
            .unwrap_or_else(|| v.parse().ok())
    }) else {
        return;
    };
    let spec = ProgramSpec::generate(seed);
    if let Err(violation) = check_models(&spec) {
        panic!("seed {seed:#018x}:\n{violation}");
    }
}
