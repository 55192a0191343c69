//! Differential test of the decoded execution engine against the
//! reference tree-walking interpreter.
//!
//! [`simt_sim::run`] lowers the module to a flat [`DecodedImage`] and
//! executes that; [`simt_sim::run_reference`] walks the IR directly. The
//! two must agree *exactly* — same metrics (cycle counts, efficiency,
//! stalls, barrier ops), same final memory, same per-block profile, and
//! the same error on faulting programs — for random structured kernels
//! across every scheduler policy, with calls, barriers, `syncthreads`,
//! atomics, local memory, RNG streams, and the L1 cache model in play.

mod common;

use proptest::prelude::*;
use simt_ir::{parse_and_link, parse_module, Value};
use simt_sim::{run, run_reference, Launch, SchedulerPolicy, SimConfig, SimOutput};

/// Everything that shapes one random kernel + run.
#[derive(Clone, Debug)]
struct Case {
    outer_iters: i64,
    branch_p: f64,
    then_work: u32,
    epilog_work: u32,
    inner_trip_max: i64,
    use_barrier: bool,
    use_sync: bool,
    use_call: bool,
    seed: u64,
    policy: SchedulerPolicy,
    warps: usize,
    cache: bool,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (1i64..8, 0.05f64..0.95, 0u32..40, 0u32..10, 1i64..8),
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<u64>()),
        common::any_policy(),
        1usize..3,
        any::<bool>(),
    )
        .prop_map(
            |(
                (outer_iters, branch_p, then_work, epilog_work, inner_trip_max),
                (use_barrier, use_sync, use_call, seed),
                policy,
                warps,
                cache,
            )| Case {
                outer_iters,
                branch_p,
                then_work,
                epilog_work,
                inner_trip_max,
                use_barrier,
                use_sync,
                use_call,
                seed,
                policy,
                warps,
                cache,
            },
        )
}

/// Textual kernel: outer loop around a divergent branch whose taken path
/// runs an RNG-trip inner loop, with atomics, local memory, a device call,
/// and optional convergence-barrier / `syncthreads` reconvergence. Its
/// last store is lane-mixed: a float in lanes whose last draw fell below
/// 0.5, an integer in the others.
fn kernel_src(c: &Case) -> String {
    let join = if c.use_barrier { "  join b0\n" } else { "" };
    let wait = if c.use_barrier { "  wait b0\n" } else { "" };
    let sync = if c.use_sync { "  syncthreads\n" } else { "" };
    let accumulate =
        if c.use_call { "  call @helper(%r1, 5) -> (%r1)\n" } else { "  %r1 = add %r1, 13\n" };
    format!(
        "device @helper(params=2, regs=4, barriers=0, entry=bb0) {{\n\
         bb0:\n  %r2 = add %r0, %r1\n  %r3 = mul %r2, 3\n  ret %r3\n}}\n\
         kernel @k(params=0, regs=14, barriers=1, entry=bb0) {{\n\
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
         \x20 %r5 = vote %r4\n\
         \x20 brdiv %r4, bb2, bb3\n\
         bb2:\n\
         \x20 work {wt}\n\
         {accumulate}\
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
         \x20 work {we}\n\
         \x20 %r10 = atomic_add [60], 1\n\
         \x20 store local[0], %r1\n\
         \x20 %r11 = load local[0]\n\
         \x20 %r2 = add %r2, 1\n\
         \x20 %r4 = lt %r2, {outer}\n\
         \x20 brdiv %r4, bb1, bb5\n\
         bb5:\n\
         {wait}\
         {sync}\
         \x20 %r11 = sel %r4, 1, %r1\n\
         \x20 store global[%r0], %r11\n\
         \x20 %r12 = lt %r3, 0.5\n\
         \x20 %r12 = sel %r12, %r3, %r1\n\
         \x20 %r13 = add %r0, 64\n\
         \x20 store global[%r13], %r12\n\
         \x20 exit\n}}\n",
        p = c.branch_p,
        wt = c.then_work,
        im = c.inner_trip_max,
        we = c.epilog_work,
        outer = c.outer_iters,
    )
}

fn config_for(c: &Case) -> SimConfig {
    SimConfig {
        max_cycles: 50_000_000,
        scheduler: c.policy,
        profile: true,
        mem: c.cache.then(common::l1),
        ..SimConfig::default()
    }
}

fn launch_for(c: &Case) -> Launch {
    let mut launch = Launch::new("k", c.warps);
    launch.seed = c.seed;
    launch.global_mem = vec![Value::I64(0); 128];
    launch.local_mem_size = 4;
    launch
}

/// Profile entries in a deterministic order (the profile map itself is a
/// hash map, so its iteration order is not comparable directly).
fn sorted_profile(out: &SimOutput) -> Vec<String> {
    let mut entries: Vec<String> = out
        .profile
        .as_ref()
        .map(|p| p.iter().map(|(k, v)| format!("{k:?}: {v:?}")).collect())
        .unwrap_or_default();
    entries.sort();
    entries
}

fn assert_same(decoded: &SimOutput, reference: &SimOutput, ctx: &dyn std::fmt::Debug) {
    assert_eq!(decoded.metrics, reference.metrics, "metrics diverged on {ctx:?}");
    let cell = common::mem_diff(&decoded.global_mem, &reference.global_mem);
    assert_eq!(cell, None, "memory diverged on {ctx:?}");
    assert_eq!(sorted_profile(decoded), sorted_profile(reference), "profile diverged on {ctx:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn decoded_engine_matches_reference_interpreter(case in case_strategy()) {
        let module = parse_and_link(&kernel_src(&case))
            .unwrap_or_else(|e| panic!("generated kernel must parse: {e}"));
        let cfg = config_for(&case);
        let launch = launch_for(&case);
        let decoded = run(&module, &cfg, &launch);
        let reference = run_reference(&module, &cfg, &launch);
        match (&decoded, &reference) {
            (Ok(d), Ok(r)) => assert_same(d, r, &case),
            (Err(d), Err(r)) => prop_assert_eq!(
                d.to_string(), r.to_string(), "errors diverged on {:?}", &case
            ),
            _ => prop_assert!(
                false,
                "one interpreter failed, the other did not, on {:?}: decoded={:?} reference={:?}",
                &case, &decoded.as_ref().err(), &reference.as_ref().err()
            ),
        }
    }
}

/// Faulting programs must fault identically: same error text, including
/// the (func, block, inst) location recovered from the decoded image's
/// origin map.
#[test]
fn out_of_range_access_faults_identically() {
    let module = parse_and_link(
        "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.tid\n  %r1 = load global[9999]\n  exit\n}\n",
    )
    .unwrap();
    let cfg = SimConfig::default();
    let mut launch = Launch::new("k", 1);
    launch.global_mem = vec![Value::I64(0); 8];
    let decoded = run(&module, &cfg, &launch).unwrap_err();
    let reference = run_reference(&module, &cfg, &launch).unwrap_err();
    assert_eq!(decoded.to_string(), reference.to_string());
}

/// A call to a function the linker never resolved (possible when running
/// an unlinked module directly) must produce the same runtime error from
/// both interpreters.
#[test]
fn unresolved_call_faults_identically() {
    let module = parse_module(
        "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
         bb0:\n  call @missing(1) -> (%r0)\n  exit\n}\n",
    )
    .unwrap();
    let cfg = SimConfig::default();
    let launch = Launch::new("k", 1);
    let decoded = run(&module, &cfg, &launch).unwrap_err();
    let reference = run_reference(&module, &cfg, &launch).unwrap_err();
    assert_eq!(decoded.to_string(), reference.to_string());
}

/// The empty-block edge case: a block whose only content is its
/// terminator still profiles one entry per arrival in both interpreters.
#[test]
fn empty_blocks_execute_identically() {
    let module = parse_and_link(
        "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.tid\n  jmp bb1\n\
         bb1:\n  jmp bb2\n\
         bb2:\n  store global[%r0], 7\n  exit\n}\n",
    )
    .unwrap();
    let cfg = SimConfig { profile: true, ..SimConfig::default() };
    let mut launch = Launch::new("k", 1);
    launch.global_mem = vec![Value::I64(0); 32];
    let decoded = run(&module, &cfg, &launch).unwrap();
    let reference = run_reference(&module, &cfg, &launch).unwrap();
    assert_same(&decoded, &reference, &"empty-block kernel");
}
