//! The hardware reconvergence models must ride the converged fast
//! path: on the Monte Carlo lookups almost every warp-split round has
//! one split with runnable lanes, so almost every issue is served by a
//! pick hint or the straight-line batcher. Likewise a seed sweep of the
//! Monte Carlo kernels must ride the cohort's dense paths: no operand
//! type and no global address depends on the seed, and the lanes of an
//! issue sit at one call depth, in a few runs; and a single launch of
//! any Table-2 kernel must ride the decoded engine's typed rows. The
//! counts are exact for a launch, so this notices a fast path falling
//! off on a host too noisy to time it.

use simt_sim::{ReconvergenceModel, SimConfig, DEFAULT_SEED};
use specrecon_core::{CompileOptions, RepairStrategy};
use workloads::{Engine, RunSpec, Seeds};

#[test]
fn monte_carlo_sweeps_ride_the_dense_rows_and_row_copies() {
    let engine = Engine::new(1);
    let sweep_with = |w: &workloads::Workload, compile: Option<CompileOptions>| {
        let spec = RunSpec {
            workload: w.clone(),
            compile,
            cfg: SimConfig::default(),
            seeds: Seeds::Range(DEFAULT_SEED, DEFAULT_SEED + 32),
        };
        engine
            .run(&spec, None, |run| run)
            .expect("sweep runs")
            .sweep
            .expect("a range runs as cohorts")
    };
    let sweep = |w: &workloads::Workload| sweep_with(w, Some(RepairStrategy::Sr.options()));
    for name in ["rsbench", "xsbench", "mcb", "mc-gpu", "gpu-mcml"] {
        let w = workloads::by_name(name).expect("registry workload");
        // The module as built, uncompiled, never leaves the cohort either.
        let raw = sweep_with(&w, None);
        assert_eq!(raw.scalar_steps, 0, "{name} uncompiled: {raw:?}");
        let s = sweep(&w);
        assert_eq!((s.forks, s.scalar_steps), (0, 0), "{name}: lockstep: {s:?}");
        assert!(s.dense_rows > 0 && s.uniform_accesses > 0, "{name}: {s:?}");
        assert_eq!(s.mixed_rows, 0, "{name}: an operand type depends on the seed: {s:?}");
        assert_eq!(s.scattered_accesses, 0, "{name}: an address depends on the seed: {s:?}");
        // Lane masks are fragmented (SIMT efficiency 24-73 %), frame
        // bases never are: every whole-register issue moves as one span
        // per run of adjacent lanes, and there are few runs.
        assert_eq!(s.per_lane_issues, 0, "{name}: a lane run broke on call depth: {s:?}");
        assert!(s.hoisted_issues > 0 && s.lane_runs <= 5 * s.hoisted_issues, "{name}: {s:?}");
    }
    // The stressor forks on every round and re-merges, still without a
    // seed-dependent type or a scalar step.
    let s = sweep(&workloads::seedstorm::build(&workloads::seedstorm::Params::default()));
    assert!(s.forks > 0 && s.forks == s.merges, "seed-storm: {s:?}");
    assert_eq!((s.mixed_rows, s.scalar_steps, s.per_lane_issues), (0, 0, 0), "seed-storm: {s:?}");
    assert_eq!(s.lane_runs, s.hoisted_issues, "seed-storm: every lane issues, one run: {s:?}");
}

/// The images a figure regenerates — the Table-2 nine and `srad`, each
/// under PDOM and SR — run every data-arm issue as one dense typed row
/// op: no register's type depends on the lane, and the lanes of an issue
/// always share their frame base.
#[test]
fn table2_launches_ride_the_typed_rows() {
    let engine = Engine::new(1);
    let cfg = SimConfig::default();
    let mut kernels = workloads::registry();
    kernels.push(workloads::srad::build(&workloads::srad::Params::default()));
    assert_eq!(kernels.len(), 10);
    for w in &kernels {
        for repair in [RepairStrategy::Pdom, RepairStrategy::Sr] {
            let e = engine.run_full(w, &repair.options(), &cfg).expect("runs").engine;
            let at = format!("{}/{}", w.name, repair.spec());
            assert_eq!((e.mixed_rows, e.split_base_issues), (0, 0), "{at}: {e:?}");
        }
    }
}

#[test]
fn warp_split_issues_are_hinted_or_batched() {
    let engine = Engine::new(1);
    let cfg = SimConfig {
        recon: ReconvergenceModel::WarpSplit { window: 4, compact: true },
        ..SimConfig::default()
    };
    for name in ["rsbench", "xsbench"] {
        let w = workloads::by_name(name).expect("registry workload");
        for repair in [RepairStrategy::Pdom, RepairStrategy::Sr] {
            let out = engine.run_full(&w, &repair.options(), &cfg).expect("runs");
            let at = format!("{name}/{}", repair.spec());
            let (e, issues) = (out.engine, out.metrics.issues);
            // SR's `wait`/`cancel` each end their batch and cost the next
            // round its hint (they run release checks), which caps the
            // SR twins lower: 87.3% on rsbench, 93.8% on xsbench, against
            // 99.3% for both PDOM images.
            let floor = if repair == RepairStrategy::Pdom { 90 } else { 85 };
            assert!(
                (e.hinted_rounds + e.batched_issues) * 100 >= issues * floor,
                "{at}: fewer than {floor}% of {issues} issues were hinted or batched: {e:?}"
            );
            // Every round is one or the other, and a hinted round or a
            // batched issue is exactly one issue.
            assert_eq!(e.rounds, e.hinted_rounds + e.general_split_rounds, "{at}: {e:?}");
            assert!(e.hinted_rounds + e.batched_issues <= issues, "{at}: {e:?}");

            // A traced run is the unhinted reference: same machine-level
            // result, none of the shortcuts.
            let traced =
                engine.run_full(&w, &repair.options(), &SimConfig { trace: true, ..cfg.clone() });
            let traced = traced.expect("traced run");
            assert_eq!(traced.metrics, out.metrics, "{at}");
            assert_eq!((traced.engine.hinted_rounds, traced.engine.batched_issues), (0, 0), "{at}");
        }
    }
}
