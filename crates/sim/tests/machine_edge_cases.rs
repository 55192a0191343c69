//! Edge-case coverage of the warp machine: deep call stacks, barriers
//! spanning frames, wide warps, local memory, and degenerate launches.

mod common;

use common::module;
use simt_ir::Value;
use simt_sim::{run, Launch, SimConfig, SimError};

#[test]
fn nested_device_calls_three_deep() {
    let m = module(
        "kernel @k(params=0, regs=3, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.tid\n  call @a(%r0) -> (%r1)\n  store global[%r0], %r1\n  exit\n}\n\
         device @a(params=1, regs=2, barriers=0, entry=bb0) {\n\
         bb0:\n  call @b(%r0) -> (%r1)\n  %r1 = add %r1, 100\n  ret %r1\n}\n\
         device @b(params=1, regs=2, barriers=0, entry=bb0) {\n\
         bb0:\n  call @c(%r0) -> (%r1)\n  %r1 = add %r1, 10\n  ret %r1\n}\n\
         device @c(params=1, regs=2, barriers=0, entry=bb0) {\n\
         bb0:\n  %r1 = add %r0, 1\n  ret %r1\n}\n",
    );
    let mut l = Launch::new("k", 1);
    l.global_mem = vec![Value::I64(0); 32];
    let out = run(&m, &SimConfig::default(), &l).unwrap();
    assert_eq!(out.global_mem[5], Value::I64(5 + 111));
}

#[test]
fn barrier_joined_in_kernel_waited_in_callee() {
    // The §4.4 mechanism at machine level: barrier state is warp-global,
    // so a callee can wait on a barrier the kernel joined.
    let m = module(
        "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
         bb0:\n  join b0\n  %r0 = special.lane\n  %r1 = and %r0, 1\n  brdiv %r1, bb1, bb2\n\
         bb1:\n  work 20\n  call @f()\n  jmp bb3\n\
         bb2:\n  call @f()\n  jmp bb3\n\
         bb3:\n  exit\n}\n\
         device @f(params=0, regs=1, barriers=1, entry=bb0) {\n\
         bb0:\n  wait b0\n  jmp bb1\n\
         bb1 (roi):\n  work 10\n  ret\n}\n",
    );
    let out = run(&m, &SimConfig::default(), &Launch::new("k", 1)).unwrap();
    assert_eq!(out.metrics.roi_simt_efficiency(), 1.0, "callee body converges");
}

#[test]
fn warp_width_64_lanes() {
    let m = module(
        "kernel @k(params=0, regs=3, barriers=1, entry=bb0) {\n\
         bb0:\n  join b0\n  %r0 = special.lane\n  %r1 = rem %r0, 7\n  jmp bb1\n\
         bb1:\n  %r1 = sub %r1, 1\n  %r2 = ge %r1, 0\n  brdiv %r2, bb1, bb2\n\
         bb2:\n  wait b0\n  jmp bb3\n\
         bb3 (roi):\n  work 5\n  %r2 = special.tid\n  store global[%r2], 1\n  exit\n}\n",
    );
    let cfg = SimConfig { warp_width: 64, ..SimConfig::default() };
    let mut l = Launch::new("k", 2);
    l.global_mem = vec![Value::I64(0); 128];
    let out = run(&m, &cfg, &l).unwrap();
    assert_eq!(out.metrics.roi_simt_efficiency(), 1.0);
    assert!(out.global_mem.iter().all(|v| *v == Value::I64(1)), "all 128 threads ran");
}

#[test]
fn local_memory_is_private_per_thread() {
    let m = module(
        "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.tid\n  store local[3], %r0\n  %r1 = load local[3]\n  store global[%r0], %r1\n  exit\n}\n",
    );
    let mut l = Launch::new("k", 2);
    l.global_mem = vec![Value::I64(0); 64];
    l.local_mem_size = 8;
    let out = run(&m, &SimConfig::default(), &l).unwrap();
    for t in 0..64 {
        assert_eq!(out.global_mem[t], Value::I64(t as i64), "thread {t} sees its own local");
    }
}

#[test]
fn local_memory_out_of_range_faults() {
    let m = module(
        "kernel @k(params=0, regs=1, barriers=0, entry=bb0) {\n\
         bb0:\n  store local[9], 1\n  exit\n}\n",
    );
    let mut l = Launch::new("k", 1);
    l.local_mem_size = 4;
    let err = run(&m, &SimConfig::default(), &l).unwrap_err();
    assert!(matches!(err, SimError::MemoryFault { space: simt_ir::MemSpace::Local, .. }));
}

#[test]
fn zero_warp_launch_finishes_immediately() {
    let m = module("kernel @k(params=0, regs=1, barriers=0, entry=bb0) {\nbb0:\n  exit\n}\n");
    let out = run(&m, &SimConfig::default(), &Launch::new("k", 0)).unwrap();
    assert_eq!(out.metrics.issues, 0);
    assert_eq!(out.metrics.simt_efficiency(), 1.0);
}

#[test]
fn copy_to_empty_mask_makes_wait_pass_through() {
    // bTemp (b1) never receives participants: waiting on it releases
    // immediately (empty-mask pass-through, the documented soft-barrier
    // slip case).
    let m = module(
        "kernel @k(params=0, regs=1, barriers=2, entry=bb0) {\n\
         bb0:\n  bcopy b1, b0\n  wait b1\n  exit\n}\n",
    );
    let out = run(&m, &SimConfig::default(), &Launch::new("k", 1)).unwrap();
    assert!(out.metrics.cycles < 100, "no blocking expected");
}

#[test]
fn arithmetic_fault_reports_thread() {
    let m = module(
        "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.lane\n  %r1 = div 10, %r0\n  exit\n}\n",
    );
    let err = run(&m, &SimConfig::default(), &Launch::new("k", 1)).unwrap_err();
    match err {
        SimError::Arithmetic { at, message } => {
            assert_eq!(at.lane, 0, "lane 0 divides by zero");
            assert!(message.contains("division by zero"));
        }
        other => panic!("expected arithmetic fault, got {other}"),
    }
}

#[test]
fn division_by_nonzero_lanes_would_succeed() {
    // Same kernel but lane 0 masked out via a branch: no fault.
    let m = module(
        "kernel @k(params=0, regs=3, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.lane\n  %r2 = gt %r0, 0\n  brdiv %r2, bb1, bb2\n\
         bb1:\n  %r1 = div 10, %r0\n  exit\n\
         bb2:\n  exit\n}\n",
    );
    let out = run(&m, &SimConfig::default(), &Launch::new("k", 1)).unwrap();
    assert!(out.metrics.issues > 0);
}

#[test]
fn seed_rng_makes_streams_task_dependent() {
    // Two threads seeding with the same value draw identical streams.
    let m = module(
        "kernel @k(params=0, regs=3, barriers=0, entry=bb0) {\n\
         bb0:\n  rngseed 42\n  %r0 = rng.u63\n  %r1 = special.tid\n  store global[%r1], %r0\n  exit\n}\n",
    );
    let mut l = Launch::new("k", 1);
    l.global_mem = vec![Value::I64(0); 32];
    let out = run(&m, &SimConfig::default(), &l).unwrap();
    let first = out.global_mem[0];
    assert!(out.global_mem.iter().all(|v| *v == first), "same seed, same stream");
    assert_ne!(first, Value::I64(0));
}

#[test]
fn stall_accounting_counts_waiting_lanes() {
    let m = module(
        "kernel @k(params=0, regs=3, barriers=1, entry=bb0) {\n\
         bb0:\n  join b0\n  %r0 = special.lane\n  %r1 = eq %r0, 0\n  brdiv %r1, bb1, bb2\n\
         bb1:\n  work 100\n  jmp bb2\n\
         bb2:\n  wait b0\n  jmp bb3\n\
         bb3:\n  exit\n}\n",
    );
    let out = run(&m, &SimConfig::default(), &Launch::new("k", 1)).unwrap();
    assert!(out.metrics.stall_cycles > 0, "31 lanes waited while lane 0 worked");
}

#[test]
fn syncthreads_converges_all_live_threads() {
    // Staggered arrival at syncthreads; the block after runs converged.
    let m = module(
        "kernel @k(params=0, regs=3, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.lane\n  %r1 = and %r0, 1\n  brdiv %r1, bb1, bb2\n\
         bb1:\n  work 40\n  jmp bb2\n\
         bb2:\n  syncthreads\n  jmp bb3\n\
         bb3 (roi):\n  work 5\n  exit\n}\n",
    );
    let out = run(&m, &SimConfig::default(), &Launch::new("k", 1)).unwrap();
    assert_eq!(out.metrics.roi_simt_efficiency(), 1.0);
}

#[test]
fn divergent_syncthreads_deadlocks_like_hardware() {
    // Half the warp never reaches the syncthreads and spins: illegal CUDA,
    // reported as a deadlock... except spinning threads are runnable, so
    // the guard that fires is the cycle limit. Use an exiting-free spin.
    // A *blocked* divergent sync: half waits at syncthreads, half waits on
    // a barrier nobody releases.
    let m = module(
        "kernel @k(params=0, regs=3, barriers=1, entry=bb0) {\n\
         bb0:\n  join b0\n  %r0 = special.lane\n  %r1 = and %r0, 1\n  brdiv %r1, bb1, bb2\n\
         bb1:\n  syncthreads\n  jmp bb3\n\
         bb2:\n  wait b0\n  jmp bb3\n\
         bb3:\n  exit\n}\n",
    );
    let err = run(&m, &SimConfig::default(), &Launch::new("k", 1)).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "got {err}");
}

#[test]
fn syncthreads_releases_when_stragglers_exit() {
    // Threads that exit count as arrived (the forward-progress rule).
    let m = module(
        "kernel @k(params=0, regs=3, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.lane\n  %r1 = and %r0, 1\n  brdiv %r1, bb1, bb2\n\
         bb1:\n  exit\n\
         bb2:\n  syncthreads\n  exit\n}\n",
    );
    let out = run(&m, &SimConfig::default(), &Launch::new("k", 1)).unwrap();
    assert!(out.metrics.issues > 0);
}
