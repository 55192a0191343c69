//! Differential conformance for the memory-hierarchy cost model's
//! degenerate configurations.
//!
//! The hierarchy ([`SimConfig::mem`]) replaces the flat coalescing fold
//! when set, and has two degenerate configurations:
//!
//! - [`MemHierarchy::flat`] (no cache levels) must reproduce the
//!   hierarchy-off cost `mem_base + mem_segment * (segments - 1)`;
//! - [`MemHierarchy::l1`] (one level) is the simulator's single-level
//!   L1 cache, priced by each engine's own hierarchy walk.
//!
//! For random programs from the conformance genome, this test runs on
//! **all three engines** (tree-walking reference, decoded hot loop,
//! seed-sweep cohort) under **every scheduler policy** and asserts
//! bit-identical metrics, final global memory, and errors: depth 0
//! against the hierarchy-off config (with the hierarchy's own per-level
//! counters stripped — they are observability, not a cost change), and
//! depth 1 across the three engines.
//!
//! Case count defaults to 64 and is capped by `CONFORMANCE_CASES`.

mod common;

use conformance::oracle::POLICIES;
use conformance::program::spec_strategy;
use conformance::{build_module, ProgramSpec};
use proptest::prelude::*;
use simt_sim::{
    run, run_reference, run_sweep, Launch, MemHierarchy, MemStats, Metrics, SimConfig, SimOutput,
    SweepLaunch, DEFAULT_SEED,
};

/// Instances per sweep comparison (small: the sweep engine's own
/// differential covers cohort mechanics; this test targets the cost
/// model).
const INSTANCES: u64 = 4;

/// Cycle budget per run (mirrors the oracle's).
const MAX_CYCLES: u64 = 5_000_000;

/// Metrics with the hierarchy-only counters removed, so a
/// hierarchy-off run (which never populates them) compares equal to its
/// depth-0 twin.
fn strip_mem(m: &Metrics) -> Metrics {
    let mut m = m.clone();
    m.mem = MemStats::default();
    m
}

/// Demands identical observable results; `strip` drops the hierarchy
/// counters from the `hier` side first.
fn compare_outputs(
    legacy: &Result<SimOutput, simt_sim::SimError>,
    hier: &Result<SimOutput, simt_sim::SimError>,
    strip: bool,
    what: &str,
) -> Result<(), String> {
    match (legacy, hier) {
        (Ok(l), Ok(h)) => {
            if l.metrics != if strip { strip_mem(&h.metrics) } else { h.metrics.clone() } {
                return Err(format!(
                    "{what}: metrics diverge\nlegacy: {:?}\nhier:   {:?}",
                    l.metrics, h.metrics
                ));
            }
            if let Some(cell) = common::mem_diff(&l.global_mem, &h.global_mem) {
                return Err(format!("{what}: global memory diverges at cell {cell}"));
            }
            Ok(())
        }
        (Err(a), Err(b)) if a == b => Ok(()),
        (a, b) => Err(format!(
            "{what}: outcomes diverge\nlegacy: {:?}\nhier:   {:?}",
            a.as_ref().map(|_| "ok"),
            b.as_ref().map(|_| "ok"),
        )),
    }
}

/// Runs `legacy_cfg` and `hier_cfg` over the spec's program on all
/// three engines and demands identical observable results.
fn check_degenerate(
    spec: &ProgramSpec,
    legacy_cfg: &SimConfig,
    hier_cfg: &SimConfig,
    what: &str,
) -> Result<(), String> {
    let module = build_module(spec);
    let mut base = Launch::new("main", spec.warps);
    base.global_mem = vec![simt_ir::Value::I64(0); conformance::build::mem_cells(spec)];

    // Decoded hot loop.
    let l = run(&module, legacy_cfg, &base);
    let h = run(&module, hier_cfg, &base);
    compare_outputs(&l, &h, true, &format!("{what}/decoded"))?;

    // Tree-walking reference oracle.
    let l = run_reference(&module, legacy_cfg, &base);
    let h = run_reference(&module, hier_cfg, &base);
    compare_outputs(&l, &h, true, &format!("{what}/reference"))?;

    // Seed-sweep cohort, per seed.
    let seed_lo = DEFAULT_SEED.wrapping_add(spec.seed & 0xFFFF);
    let sweep = SweepLaunch::new(base, seed_lo, seed_lo + INSTANCES);
    let ls = run_sweep(&module, legacy_cfg, &sweep)
        .map_err(|e| format!("{what}/sweep: legacy sweep failed: {e}"))?;
    let hs = run_sweep(&module, hier_cfg, &sweep)
        .map_err(|e| format!("{what}/sweep: hier sweep failed: {e}"))?;
    for (lr, hr) in ls.runs.iter().zip(hs.runs.iter()) {
        compare_outputs(&lr.result, &hr.result, true, &format!("{what}/sweep seed {}", lr.seed))?;
    }
    Ok(())
}

/// Runs `cfg` over the spec's program on all three engines and demands
/// they agree, hierarchy counters included: the reference oracle against
/// the decoded engine, and each sweep seed against a decoded run of it.
fn check_engines_agree(spec: &ProgramSpec, cfg: &SimConfig, what: &str) -> Result<(), String> {
    let module = build_module(spec);
    let mut base = Launch::new("main", spec.warps);
    base.global_mem = vec![simt_ir::Value::I64(0); conformance::build::mem_cells(spec)];
    let decoded = run(&module, cfg, &base);
    compare_outputs(
        &decoded,
        &run_reference(&module, cfg, &base),
        false,
        &format!("{what}/reference"),
    )?;
    let seed_lo = DEFAULT_SEED.wrapping_add(spec.seed & 0xFFFF);
    let sweep = SweepLaunch::new(base.clone(), seed_lo, seed_lo + INSTANCES);
    let out = run_sweep(&module, cfg, &sweep).map_err(|e| format!("{what}/sweep failed: {e}"))?;
    for r in &out.runs {
        let scalar = run(&module, cfg, &Launch { seed: r.seed, ..base.clone() });
        compare_outputs(&scalar, &r.result, false, &format!("{what}/sweep seed {}", r.seed))?;
    }
    Ok(())
}

fn check(spec: &ProgramSpec) -> Result<(), String> {
    for policy in POLICIES {
        let base_cfg = SimConfig {
            warp_width: spec.warp_width,
            scheduler: policy,
            max_cycles: MAX_CYCLES,
            ..SimConfig::default()
        };

        // Depth 0: flat coalescing fold vs an empty-levels hierarchy.
        let legacy = base_cfg.clone();
        let hier =
            SimConfig { mem: Some(MemHierarchy::flat(&base_cfg.latency)), ..base_cfg.clone() };
        check_degenerate(spec, &legacy, &hier, &format!("{policy:?}/flat"))?;

        // Depth 1: the single-level L1, across the three engines.
        let l1 = SimConfig {
            mem: Some(MemHierarchy::l1(64, 16, 2, &base_cfg.latency)),
            ..base_cfg.clone()
        };
        check_engines_agree(spec, &l1, &format!("{policy:?}/l1"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: conformance::configured_cases(64),
        .. ProptestConfig::default()
    })]

    #[test]
    fn degenerate_hierarchies_reproduce_legacy_costs(spec in spec_strategy()) {
        if let Err(violation) = check(&spec) {
            prop_assert!(
                false,
                "generator seed {:#018x} violated hierarchy degeneracy:\n{violation}",
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
    if let Err(violation) = check(&spec) {
        panic!("seed {seed:#018x}:\n{violation}");
    }
}
