//! Deterministic edge-case tests for `core::deconflict` and
//! `core::interproc` — CFG shapes the conformance fuzzer produces only
//! rarely, pinned here as named cases: an empty else-arm, a PDOM
//! barrier landing in a loop preheader, a recursive common call, and
//! regression tests for cross-function barrier numbering and the
//! interprocedural call-wait conflict view.

use simt_analysis::FunctionAnalyses;
use simt_ir::{parse_and_link, BarrierId, BarrierOp, Inst, Module, Value};
use simt_sim::{run, Launch, SchedulerPolicy, SimConfig};
use specrecon_core::deconflict::{deconflict_with_calls, DeconflictMode};
use specrecon_core::{compile, CompileOptions};

const POLICIES: [SchedulerPolicy; 5] = [
    SchedulerPolicy::Greedy,
    SchedulerPolicy::MinPc,
    SchedulerPolicy::MaxPc,
    SchedulerPolicy::MostThreads,
    SchedulerPolicy::RoundRobin,
];

fn run_mem(m: &Module, policy: SchedulerPolicy, warps: usize, mem: usize) -> Vec<Value> {
    let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
    let mut l = Launch::new("k", warps);
    l.global_mem = vec![Value::I64(0); mem];
    run(m, &cfg, &l).expect("run succeeds").global_mem
}

/// Compiles `src` as baseline and as full speculative pipeline and
/// asserts bit-identical final memory under every scheduler policy.
/// Returns the speculative module for extra shape assertions.
fn assert_equivalent(src: &str, warps: usize) -> Module {
    let module = parse_and_link(src).expect("test module parses");
    let mem = warps * 32;
    let base = compile(&module, &CompileOptions::baseline()).expect("baseline compiles");
    let spec = compile(&module, &CompileOptions::speculative()).expect("speculative compiles");
    let reference = run_mem(&base.module, POLICIES[0], warps, mem);
    for policy in POLICIES {
        assert_eq!(
            run_mem(&base.module, policy, warps, mem),
            reference,
            "baseline not schedule-invariant under {policy:?}"
        );
        assert_eq!(
            run_mem(&spec.module, policy, warps, mem),
            reference,
            "speculative diverges from baseline under {policy:?}"
        );
    }
    spec.module
}

/// Divergent branch whose else-arm is empty (falls straight to the
/// reconvergence point) inside a predicted loop — the then-arm is the
/// speculation target, so the speculative wait and the PDOM wait for
/// the *same* branch land in the same block.
#[test]
fn empty_else_arm_inside_predicted_loop() {
    let src = "kernel @k(params=0, regs=7, barriers=0, entry=bb0) {\n\
  predict bb0 -> label L1\n\
bb0:\n  %r0 = special.tid\n  rngseed %r0\n  %r1 = mov 0\n  %r2 = mov 0\n  jmp bb1\n\
bb1:\n  %r3 = rng.unit\n  %r4 = lt %r3, 0.25f\n  brdiv %r4, bb2, bb3\n\
bb2 (label=L1, roi):\n  work 40\n  %r1 = add %r1, 3\n  jmp bb3\n\
bb3:\n  %r2 = add %r2, 1\n  %r5 = lt %r2, 12\n  brdiv %r5, bb1, bb4\n\
bb4:\n  store global[%r0], %r1\n  exit\n}\n";
    assert_equivalent(src, 2);
}

/// Divergence *before* a loop puts the PDOM wait in the loop's
/// preheader — the same block where the prediction region for the loop
/// body starts, so the speculative join is inserted right next to a
/// foreign barrier's wait.
#[test]
fn pdom_barrier_in_loop_preheader() {
    let src = "kernel @k(params=0, regs=8, barriers=0, entry=bb0) {\n\
  predict bb3 -> label HOT\n\
bb0:\n  %r0 = special.tid\n  rngseed %r0\n  %r1 = mov 0\n  %r3 = and %r0, 1\n\
  brdiv %r3, bb1, bb2\n\
bb1:\n  work 5\n  %r1 = add %r1, 1\n  jmp bb3\n\
bb2:\n  %r1 = add %r1, 2\n  jmp bb3\n\
bb3:\n  %r2 = mov 0\n  jmp bb4\n\
bb4:\n  %r4 = rng.unit\n  %r5 = lt %r4, 0.3f\n  brdiv %r5, bb5, bb6\n\
bb5 (label=HOT, roi):\n  work 40\n  %r1 = add %r1, 5\n  jmp bb6\n\
bb6:\n  %r2 = add %r2, 1\n  %r6 = lt %r2, 10\n  brdiv %r6, bb4, bb7\n\
bb7:\n  store global[%r0], %r1\n  exit\n}\n";
    assert_equivalent(src, 2);
}

/// A common-call prediction whose callee recurses: the callee-entry
/// wait re-executes on every recursive frame, where the barrier is
/// already empty, and must pass straight through instead of blocking
/// lanes that recurse to different depths.
#[test]
fn recursive_common_call() {
    let src = "device @rec(params=1, regs=4, barriers=0, entry=bb0) {\n\
bb0:\n  %r1 = lt %r0, 1\n  brdiv %r1, bb1, bb2\n\
bb1:\n  ret 0\n\
bb2:\n  work 10\n  %r2 = sub %r0, 1\n  call @rec(%r2) -> (%r3)\n  %r3 = add %r3, 1\n\
  ret %r3\n}\n\
kernel @k(params=0, regs=5, barriers=0, entry=bb0) {\n\
  predict bb0 -> func @rec\n\
bb0:\n  %r0 = special.tid\n  %r1 = and %r0, 1\n  brdiv %r1, bb1, bb2\n\
bb1:\n  %r2 = mov 3\n  call @rec(%r2) -> (%r3)\n  jmp bb3\n\
bb2:\n  %r2 = mov 5\n  call @rec(%r2) -> (%r3)\n  jmp bb3\n\
bb3:\n  store global[%r0], %r3\n  exit\n}\n";
    assert_equivalent(src, 2);
}

/// Regression: PDOM barriers in a device helper used to be numbered
/// from zero independently of the kernel's, colliding in the
/// warp-global register file. Compiler-inserted barrier registers must
/// never be shared across functions (the interprocedural pass excepted,
/// and it is not in play here).
#[test]
fn compiler_barriers_never_collide_across_functions() {
    let src = "device @h(params=1, regs=4, barriers=0, entry=bb0) {\n\
bb0:\n  %r1 = and %r0, 3\n  jmp bb1\n\
bb1:\n  work 8\n  %r1 = sub %r1, 1\n  %r2 = ge %r1, 0\n  brdiv %r2, bb1, bb2\n\
bb2:\n  ret %r0\n}\n\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {\n\
  predict bb0 -> label HOT\n\
bb0:\n  %r0 = special.tid\n  rngseed %r0\n  %r1 = mov 0\n  %r2 = mov 0\n  jmp bb1\n\
bb1:\n  %r3 = rng.unit\n  %r4 = lt %r3, 0.3f\n  brdiv %r4, bb2, bb3\n\
bb2 (label=HOT, roi):\n  work 30\n  call @h(%r0) -> (%r5)\n  %r1 = add %r1, %r5\n\
  jmp bb3\n\
bb3:\n  %r2 = add %r2, 1\n  %r6 = lt %r2, 8\n  brdiv %r6, bb1, bb4\n\
bb4:\n  store global[%r0], %r1\n  exit\n}\n";
    let spec = assert_equivalent(src, 2);

    let per_fn: Vec<(String, Vec<BarrierId>)> = spec
        .functions
        .iter()
        .map(|(_, f)| {
            let mut ids: Vec<BarrierId> = f
                .blocks
                .iter()
                .flat_map(|(_, b)| &b.insts)
                .filter_map(|i| match i {
                    Inst::Barrier(op) => op.barrier(),
                    _ => None,
                })
                .collect();
            ids.sort();
            ids.dedup();
            (f.name.clone(), ids)
        })
        .collect();
    for (i, (na, a)) in per_fn.iter().enumerate() {
        for (nb, b) in per_fn.iter().skip(i + 1) {
            for id in a {
                assert!(
                    !b.contains(id),
                    "barrier {id} used by both @{na} and @{nb}; registers are warp-global"
                );
            }
        }
    }
}

/// Regression: an interprocedural barrier waits at the callee's entry,
/// invisible to per-function conflict analysis. Modeling the call as
/// that barrier's wait must surface the conflict, and dynamic
/// resolution must place the PDOM cancel *before the call site*.
#[test]
fn interproc_conflict_cancels_before_call() {
    let src = "device @f(params=1, regs=2, barriers=0, entry=bb0) {\n\
bb0:\n  work 2\n  ret %r0\n}\n\
kernel @k(params=0, regs=3, barriers=2, entry=bb0) {\n\
bb0:\n  join b0\n  join b1\n  %r0 = special.lane\n  %r1 = and %r0, 1\n\
  brdiv %r1, bb1, bb2\n\
bb1:\n  call @f(%r0) -> (%r2)\n  jmp bb3\n\
bb2:\n  jmp bb3\n\
bb3:\n  wait b0\n  exit\n}\n";
    let m = parse_and_link(src).expect("test module parses");
    let callee = m.functions.iter().find(|(_, f)| f.name == "f").expect("@f exists").0;
    let kernel = m.functions.iter().find(|(_, f)| f.name == "k").expect("@k exists").0;
    let spec = [BarrierId(1)];
    let pdom = [BarrierId(0)];

    // Without the call-wait view there is no explicit Wait(b1), so the
    // crossing with b0 is undetectable.
    let mut plain = m.functions[kernel].clone();
    let fa = &mut FunctionAnalyses::default();
    let r = deconflict_with_calls(&mut plain, fa, &spec, &pdom, &[], DeconflictMode::Dynamic);
    assert!(r.resolved.is_empty(), "no conflict should be visible without the view");

    let mut viewed = m.functions[kernel].clone();
    let r = deconflict_with_calls(
        &mut viewed,
        fa,
        &spec,
        &pdom,
        &[(callee, BarrierId(1))],
        DeconflictMode::Dynamic,
    );
    assert_eq!(r.resolved, vec![(BarrierId(1), BarrierId(0))]);

    let bb1 = viewed
        .blocks
        .iter()
        .find(|(_, b)| b.insts.iter().any(|i| matches!(i, Inst::Call { .. })))
        .expect("call block survives")
        .1;
    let call_at = bb1.insts.iter().position(|i| matches!(i, Inst::Call { .. })).unwrap();
    assert!(call_at > 0, "something must precede the call");
    assert_eq!(
        bb1.insts[call_at - 1],
        Inst::Barrier(BarrierOp::Cancel(BarrierId(0))),
        "Cancel(b0) must immediately precede the call to @f"
    );
}
