//! Differential conformance for the lockstep seed-sweep engine.
//!
//! For random programs from the conformance genome, runs a seed sweep
//! ([`simt_sim::run_sweep`]) and N independent scalar runs of the same
//! seeds under **every scheduler policy × reconvergence model**, and
//! asserts the sweep's per-seed results are bit-identical: metrics,
//! final global memory, and errors. This is the enforcement teeth
//! behind the sweep engine's exactness contract — lockstep execution,
//! detach fallback, and group-merge rejoin must be unobservable under
//! the barrier file, and the hardware models' scalar fallback must be
//! exact by the same standard.
//!
//! Case count defaults to 96 and is capped by `CONFORMANCE_CASES`,
//! like the main fuzz loop.

mod common;

use conformance::build::{build_module_with, DepthBy};
use conformance::oracle::POLICIES;
use conformance::program::{spec_strategy, PredTarget};
use conformance::{build_module, ProgramSpec};
use proptest::prelude::*;
use simt_sim::{run, run_sweep, Launch, ReconvergenceModel, SimConfig, SweepLaunch, DEFAULT_SEED};

/// Every reconvergence model crosses the sweep contract: the barrier
/// file exercises the lockstep cohort, the hardware models exercise
/// the per-seed scalar fallback.
const MODELS: [ReconvergenceModel; 3] = [
    ReconvergenceModel::BarrierFile,
    ReconvergenceModel::IpdomStack,
    ReconvergenceModel::WarpSplit { window: 4, compact: true },
];

/// Instances per sweep: enough to exercise detach/rejoin across a
/// cohort, small enough to keep the case budget useful.
const INSTANCES: u64 = 6;

/// Cycle budget per run (mirrors the oracle's).
const MAX_CYCLES: u64 = 5_000_000;

fn check_sweep(spec: &ProgramSpec) -> Result<(), String> {
    check_module(spec, &build_module(spec))
}

/// `spec` with its callee recursing two deep, when it calls one that may
/// (a predicted callee stays non-recursive): the programs of the
/// call-depth arm.
fn deepened(mut spec: ProgramSpec) -> Option<ProgramSpec> {
    let predicted = spec.predictions.iter().any(|p| p.target == PredTarget::Callee);
    let callee = spec.callee.as_mut().filter(|_| !predicted)?;
    callee.recursion = Some(2);
    Some(spec)
}

fn check_module(spec: &ProgramSpec, module: &simt_ir::Module) -> Result<(), String> {
    // Root the range at the shared default seed, displaced per spec so
    // different programs sweep different seed neighborhoods.
    let seed_lo = DEFAULT_SEED.wrapping_add(spec.seed & 0xFFFF);
    for policy in POLICIES {
        for model in MODELS {
            let what = format!("{policy:?}/{}", model.spec());
            let cfg = SimConfig {
                warp_width: spec.warp_width,
                scheduler: policy,
                max_cycles: MAX_CYCLES,
                recon: model,
                ..SimConfig::default()
            };
            let mut base = Launch::new("main", spec.warps);
            base.global_mem = vec![simt_ir::Value::I64(0); conformance::build::mem_cells(spec)];
            let sweep = SweepLaunch::new(base.clone(), seed_lo, seed_lo + INSTANCES);
            let out = run_sweep(module, &cfg, &sweep)
                .map_err(|e| format!("{what}: whole sweep failed: {e}"))?;
            if out.runs.len() != INSTANCES as usize {
                return Err(format!("{what}: {} runs for {INSTANCES} seeds", out.runs.len()));
            }
            // The barrier file runs the lockstep cohort; every other
            // model must take the exact per-seed scalar fallback.
            if matches!(model, ReconvergenceModel::BarrierFile) {
                if out.stats.scalar_steps != 0 {
                    return Err(format!(
                        "{what}: barrier-file sweep took {} scalar steps",
                        out.stats.scalar_steps
                    ));
                }
            } else if out.stats.lockstep_issues != 0 || out.stats.forks != 0 {
                return Err(format!(
                    "{what}: hardware-model sweep ran the lockstep cohort \
                     ({} issues, {} forks)",
                    out.stats.lockstep_issues, out.stats.forks
                ));
            }
            for run_entry in &out.runs {
                let mut launch = base.clone();
                launch.seed = run_entry.seed;
                let scalar = run(module, &cfg, &launch);
                match (&run_entry.result, &scalar) {
                    (Ok(s), Ok(r)) => {
                        if s.metrics != r.metrics {
                            return Err(format!(
                                "{what} seed {}: metrics diverge\nsweep:  {:?}\nscalar: {:?}",
                                run_entry.seed, s.metrics, r.metrics
                            ));
                        }
                        if let Some(cell) = common::mem_diff(&s.global_mem, &r.global_mem) {
                            return Err(format!(
                                "{what} seed {}: global memory diverges at cell {cell}",
                                run_entry.seed
                            ));
                        }
                    }
                    (Err(a), Err(b)) => {
                        if a != b {
                            return Err(format!(
                                "{what} seed {}: errors diverge\nsweep:  {a}\nscalar: {b}",
                                run_entry.seed
                            ));
                        }
                    }
                    (a, b) => {
                        return Err(format!(
                            "{what} seed {}: sweep {} but scalar {}",
                            run_entry.seed,
                            if a.is_ok() { "succeeded" } else { "failed" },
                            if b.is_ok() { "succeeded" } else { "failed" },
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
        cases: conformance::configured_cases(96),
        .. ProptestConfig::default()
    })]

    #[test]
    fn sweep_is_bit_identical_to_independent_runs(spec in spec_strategy()) {
        if let Err(violation) = check_sweep(&spec) {
            prop_assert!(
                false,
                "generator seed {:#018x} violated sweep exactness:\n{violation}",
                spec.seed
            );
        }
    }

    /// The path Monte Carlo traffic never takes: lanes of one issue at
    /// *different* call depths. The callee's recursion depth is drawn per
    /// lane from `tid` (the same in every seed) and from the RNG (so
    /// seeds fork while depths differ and merge once they re-agree);
    /// lanes at different depths then meet at the same pc inside
    /// `helper`, each with its own frame base.
    #[test]
    fn lanes_at_different_call_depths_stay_bit_identical(spec in spec_strategy()) {
        let Some(spec) = deepened(spec) else { return Ok(()) };
        for by in [DepthBy::Tid, DepthBy::Rng] {
            if let Err(violation) = check_module(&spec, &build_module_with(&spec, by)) {
                prop_assert!(
                    false,
                    "generator seed {:#018x} ({by:?} depths) violated sweep exactness:\n{violation}",
                    spec.seed
                );
            }
        }
    }
}

/// Replays a single genome seed from `CONFORMANCE_SEED` against the
/// sweep differential (mirrors `fuzz_equivalence::replay_env_seed`).
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
    if let Err(violation) = check_sweep(&spec) {
        panic!("seed {seed:#018x}:\n{violation}");
    }
    for by in [DepthBy::Tid, DepthBy::Rng] {
        let Some(spec) = deepened(spec.clone()) else { break };
        if let Err(violation) = check_module(&spec, &build_module_with(&spec, by)) {
            panic!("seed {seed:#018x} ({by:?} depths):\n{violation}");
        }
    }
}
