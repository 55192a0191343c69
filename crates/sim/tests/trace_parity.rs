//! Observability must never perturb execution, and both engines must
//! narrate it identically.
//!
//! Three properties over random structured kernels across every
//! scheduler policy:
//!
//! 1. Toggling `trace`, `profile`, or `journal` (in any combination)
//!    leaves the decoded engine's metrics, cycle counts, and final
//!    memory bit-identical — under the barrier file and under every
//!    hardware reconvergence model. Tracing/journaling disable
//!    straight-line batching and pick hints, so this doubles as a
//!    batched-vs-unbatched, hinted-vs-general-round differential test
//!    of the executor itself (`Metrics::recon` included: a hinted
//!    warp-split round must fork, fuse and defer exactly as the general
//!    round would have). The batched `profile` run's per-block profile
//!    equals the unbatched `trace+profile` run's, and profiling moves no
//!    batch boundary (equal [`EngineStats`](simt_sim::EngineStats)).
//! 2. The decoded engine and the tree-walking reference emit
//!    *identical* journals (same events in the same order, same
//!    per-barrier attribution), traces and per-block profiles — on flat
//!    memory, and behind a one-entry MSHR file that makes every run
//!    record memory stalls (`JournalKind::MemStall`,
//!    `BlockStats::mem_stall_cycles`). Both engines record through one
//!    observer, so its folds are checked against independent totals too:
//!    the journal's per-barrier stalls sum to `Metrics::stall_cycles`, and
//!    the profile's memory stalls to the journal's `MemStall` cycles.
//! 3. A deadlocking kernel reports the same enriched error — including
//!    the barrier-register dump — and streams the same journal events
//!    through the writer callback from both engines.

mod common;

use proptest::prelude::*;
use simt_ir::{parse_and_link, Value};
use simt_sim::{
    run, run_reference, JournalConfig, JournalEvent, JournalKind, JournalWriter, LatencyModel,
    Launch, MemHierarchy, ReconvergenceModel, SchedulerPolicy, SimConfig,
};
use std::sync::{Arc, Mutex};

/// Everything that shapes one random kernel + run.
#[derive(Clone, Debug)]
struct Case {
    outer_iters: i64,
    branch_p: f64,
    then_work: u32,
    inner_trip_max: i64,
    use_barrier: bool,
    use_sync: bool,
    seed: u64,
    policy: SchedulerPolicy,
    warps: usize,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (1i64..6, 0.05f64..0.95, 0u32..30, 1i64..6),
        (any::<bool>(), any::<bool>(), any::<u64>()),
        common::any_policy(),
        1usize..3,
    )
        .prop_map(
            |(
                (outer_iters, branch_p, then_work, inner_trip_max),
                (use_barrier, use_sync, seed),
                policy,
                warps,
            )| Case {
                outer_iters,
                branch_p,
                then_work,
                inner_trip_max,
                use_barrier,
                use_sync,
                seed,
                policy,
                warps,
            },
        )
}

/// Divergent kernel exercising every journal event source: branch
/// divergence, a data-dependent inner loop (group merges), optional
/// convergence barrier and `syncthreads` reconvergence, atomics.
fn kernel_src(c: &Case) -> String {
    let join = if c.use_barrier { "  join b0\n" } else { "" };
    let wait = if c.use_barrier { "  wait b0\n" } else { "" };
    let sync = if c.use_sync { "  syncthreads\n" } else { "" };
    format!(
        "kernel @k(params=0, regs=12, barriers=1, entry=bb0) {{\n\
         bb0:\n\
         \x20 %r0 = special.tid\n\
         \x20 rngseed %r0\n\
         \x20 %r1 = mov 0\n\
         \x20 %r2 = mov 0\n\
         {join}\
         \x20 jmp bb1\n\
         bb1:\n\
         \x20 %r3 = rng.unit\n\
         \x20 %r4 = lt %r3, {p}\n\
         \x20 brdiv %r4, bb2, bb3\n\
         bb2:\n\
         \x20 work {wt}\n\
         \x20 %r1 = add %r1, 13\n\
         \x20 %r6 = mov 0\n\
         \x20 %r7 = rng.u63\n\
         \x20 %r8 = rem %r7, {im}\n\
         \x20 jmp bb4\n\
         bb4:\n\
         \x20 %r1 = add %r1, %r6\n\
         \x20 %r6 = add %r6, 1\n\
         \x20 %r9 = le %r6, %r8\n\
         \x20 brdiv %r9, bb4, bb3\n\
         bb3:\n\
         \x20 %r10 = atomic_add [60], 1\n\
         \x20 %r2 = add %r2, 1\n\
         \x20 %r4 = lt %r2, {outer}\n\
         \x20 brdiv %r4, bb1, bb5\n\
         bb5:\n\
         {wait}\
         {sync}\
         \x20 store global[%r0], %r1\n\
         \x20 exit\n}}\n",
        p = c.branch_p,
        wt = c.then_work,
        im = c.inner_trip_max,
        outer = c.outer_iters,
    )
}

fn base_config(c: &Case) -> SimConfig {
    SimConfig { max_cycles: 50_000_000, scheduler: c.policy, ..SimConfig::default() }
}

/// The barrier file plus the hardware models: the IPDOM stack, bare
/// warp splitting (every pick goes through the policy), and warp
/// splitting with a re-fusion window plus subwarp compaction (none
/// does).
const MODELS: [ReconvergenceModel; 4] = [
    ReconvergenceModel::BarrierFile,
    ReconvergenceModel::IpdomStack,
    ReconvergenceModel::WarpSplit { window: 0, compact: false },
    ReconvergenceModel::WarpSplit { window: 4, compact: true },
];

/// One L1 whose MSHR file holds a single miss: a warp's final store
/// spans two lines, so every run stalls on it at least once — the
/// journal's `MemStall` events and the profile's per-block stall cycles
/// are then compared for real.
fn one_mshr() -> MemHierarchy {
    MemHierarchy::parse(
        "l1:lines=4,cells=16,lat=2,mshrs=1;dram:lat=24,extra=2",
        &LatencyModel::default(),
    )
    .expect("hierarchy spec parses")
}

fn launch_for(c: &Case) -> Launch {
    let mut launch = Launch::new("k", c.warps);
    launch.seed = c.seed;
    launch.global_mem = vec![Value::I64(0); 64];
    launch
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn observability_toggles_never_perturb_execution(case in case_strategy()) {
        let module = parse_and_link(&kernel_src(&case))
            .unwrap_or_else(|e| panic!("generated kernel must parse: {e}"));
        let launch = launch_for(&case);
        // The hardware models cross every policy (where a hint or a
        // batched issue must move the RoundRobin cursor differs per
        // model); the barrier file keeps the case's own draw.
        for recon in MODELS {
            for &policy in &common::ALL_POLICIES {
                if recon == ReconvergenceModel::BarrierFile && policy != case.policy {
                    continue;
                }
                let cfg = || SimConfig { recon, scheduler: policy, ..base_config(&case) };
                let at = format!("{} {policy:?}", recon.spec());
                let base = run(&module, &cfg(), &launch)
                    .unwrap_or_else(|e| panic!("base run failed under {at} on {case:?}: {e}"));

                let variants: [(&str, SimConfig); 4] = [
                    ("trace", SimConfig { trace: true, ..cfg() }),
                    ("profile", SimConfig { profile: true, ..cfg() }),
                    ("journal", SimConfig { journal: Some(JournalConfig::default()), ..cfg() }),
                    (
                        "trace+profile+journal",
                        SimConfig {
                            trace: true,
                            profile: true,
                            journal: Some(JournalConfig::default()),
                            ..cfg()
                        },
                    ),
                ];
                let mut profiles = Vec::new();
                for (name, cfg) in variants {
                    let out = run(&module, &cfg, &launch).unwrap_or_else(|e| {
                        panic!("{name} run failed under {at} on {case:?}: {e}")
                    });
                    prop_assert_eq!(
                        &out.metrics, &base.metrics,
                        "metrics changed with {} under {} on {:?}", name, &at, &case
                    );
                    prop_assert_eq!(
                        &out.global_mem, &base.global_mem,
                        "memory changed with {} under {} on {:?}", name, &at, &case
                    );
                    if name == "profile" {
                        prop_assert_eq!(
                            out.engine, base.engine,
                            "profiling moved a batch boundary under {} on {:?}", &at, &case
                        );
                    }
                    profiles.extend(out.profile);
                }
                // `profile` batches, `trace+profile+journal` does not.
                prop_assert_eq!(
                    &profiles[0], &profiles[1],
                    "the batched profile differs from the unbatched one under {} on {:?}",
                    &at, &case
                );
            }
        }
    }

    #[test]
    fn engines_emit_identical_journals_and_traces(case in case_strategy()) {
        let module = parse_and_link(&kernel_src(&case))
            .unwrap_or_else(|e| panic!("generated kernel must parse: {e}"));
        let launch = launch_for(&case);
        for mem in [None, Some(one_mshr())] {
            let stalls = mem.is_some();
            let cfg = SimConfig {
                trace: true,
                profile: true,
                journal: Some(JournalConfig::default()),
                mem,
                ..base_config(&case)
            };
            let decoded = run(&module, &cfg, &launch)
                .unwrap_or_else(|e| panic!("decoded run failed on {case:?}: {e}"));
            let reference = run_reference(&module, &cfg, &launch)
                .unwrap_or_else(|e| panic!("reference run failed on {case:?}: {e}"));
            prop_assert_eq!(
                &decoded.metrics, &reference.metrics,
                "metrics diverged on {:?} (MSHRs: {})", &case, stalls
            );
            let dt = decoded.trace.as_ref().expect("decoded trace");
            let rt = reference.trace.as_ref().expect("reference trace");
            prop_assert_eq!(dt.events(), rt.events(), "traces diverged on {:?}", &case);
            let dj = decoded.journal.as_ref().expect("decoded journal");
            let rj = reference.journal.as_ref().expect("reference journal");
            prop_assert_eq!(dj, rj, "journals diverged on {:?} (MSHRs: {})", &case, stalls);
            prop_assert_eq!(
                &decoded.profile, &reference.profile,
                "profiles diverged on {:?} (MSHRs: {})", &case, stalls
            );
            for (engine, out) in [("decoded", &decoded), ("reference", &reference)] {
                let journal = out.journal.as_ref().expect("journal");
                let parked: u64 = journal.barrier_stats().iter().map(|s| s.stall_issues).sum();
                prop_assert_eq!(
                    parked, out.metrics.stall_cycles,
                    "{} per-barrier stalls on {:?} (MSHRs: {})", engine, &case, stalls
                );
                let mem_stall = |e: &JournalEvent| match e.kind {
                    JournalKind::MemStall { stall, .. } => Some(u64::from(stall)),
                    _ => None,
                };
                let journaled: u64 = journal.events().filter_map(mem_stall).sum();
                let profile = out.profile.as_ref().expect("profile");
                let profiled: u64 = profile.iter().map(|(_, b)| b.mem_stall_cycles).sum();
                prop_assert_eq!(
                    profiled, journaled,
                    "{} memory stalls on {:?} (MSHRs: {})", engine, &case, stalls
                );
            }
            let mem_stalls = dj.events().filter(|e| matches!(e.kind, JournalKind::MemStall { .. }));
            let mem_stalls = mem_stalls.count();
            prop_assert_eq!(
                mem_stalls > 0, stalls,
                "{} MemStall events on {:?} (MSHRs: {})", mem_stalls, &case, stalls
            );
        }
    }
}

/// Crossed barrier waits: both engines must report the same enriched
/// deadlock (full waiter list, per-barrier counts, barrier-register
/// dump) and stream the same journal events — the ring buffer goes down
/// with the failed run, so the writer callback is the only witness.
#[test]
fn deadlock_reports_and_journals_identically() {
    let module = parse_and_link(
        "kernel @k(params=0, regs=3, barriers=2, entry=bb0) {\n\
         bb0:\n  join b0\n  join b1\n  %r0 = special.lane\n  %r1 = and %r0, 1\n  brdiv %r1, bb1, bb2\n\
         bb1:\n  wait b0\n  jmp bb3\n\
         bb2:\n  wait b1\n  jmp bb3\n\
         bb3:\n  exit\n}\n",
    )
    .unwrap();
    let capture = |events: &Arc<Mutex<Vec<JournalEvent>>>| -> JournalWriter {
        let sink = Arc::clone(events);
        Arc::new(move |e: &JournalEvent| sink.lock().unwrap().push(*e))
    };
    let decoded_events = Arc::new(Mutex::new(Vec::new()));
    let reference_events = Arc::new(Mutex::new(Vec::new()));
    let cfg_for = |w: JournalWriter| SimConfig {
        journal: Some(JournalConfig { writer: Some(w), ..JournalConfig::default() }),
        ..SimConfig::default()
    };
    let launch = Launch::new("k", 1);
    let decoded = run(&module, &cfg_for(capture(&decoded_events)), &launch).unwrap_err();
    let reference =
        run_reference(&module, &cfg_for(capture(&reference_events)), &launch).unwrap_err();

    let msg = decoded.to_string();
    assert_eq!(msg, reference.to_string(), "deadlock reports diverged");
    assert!(msg.contains("barrier registers:"), "{msg}");
    assert!(msg.contains("waiters per barrier:"), "{msg}");

    let de = decoded_events.lock().unwrap();
    let re = reference_events.lock().unwrap();
    assert!(!de.is_empty(), "the writer saw events");
    assert_eq!(*de, *re, "journal streams diverged");
    assert!(
        matches!(de.last(), Some(JournalEvent { kind: JournalKind::DeadlockOnset, .. })),
        "the last event is the deadlock onset: {:?}",
        de.last()
    );
}
