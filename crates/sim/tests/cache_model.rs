//! The L1 cache cost model: hits are cheap, misses pay full latency,
//! stores/atomics invalidate, and values are never affected.

mod common;

use common::cfg_with_cache;
use simt_ir::{parse_and_link, Value};
use simt_sim::{run, LatencyModel, Launch, MemHierarchy, SimConfig};

#[test]
fn repeated_loads_hit_and_get_cheaper() {
    // Every thread loads the same line 50 times.
    let m = parse_and_link(
        "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = mov 0\n  jmp bb1\n\
         bb1:\n  %r1 = load global[3]\n  %r0 = add %r0, 1\n  %r2 = lt %r0, 50\n  br %r2, bb1, bb2\n\
         bb2:\n  exit\n}\n",
    )
    .unwrap();
    let mut l = Launch::new("k", 1);
    l.global_mem = vec![Value::I64(7); 16];

    let cold = run(&m, &SimConfig::default(), &l).unwrap();
    let warm = run(&m, &cfg_with_cache(), &l).unwrap();
    assert!(
        warm.metrics.cycles < cold.metrics.cycles,
        "cache should cut cycles: {} vs {}",
        warm.metrics.cycles,
        cold.metrics.cycles
    );
    let l1 = warm.metrics.mem.levels[0];
    assert!(l1.hits >= 49, "hits {}", l1.hits);
    assert_eq!(l1.misses, 1);
}

#[test]
fn values_are_unaffected_by_the_cache() {
    let m = parse_and_link(
        "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = special.tid\n  %r1 = load global[%r0]\n  %r2 = mul %r1, 2\n  store global[%r0], %r2\n  %r3 = load global[%r0]\n  store global[%r0], %r3\n  exit\n}\n",
    )
    .unwrap();
    let mut l = Launch::new("k", 2);
    l.global_mem = (0..64).map(Value::I64).collect();
    let plain = run(&m, &SimConfig::default(), &l).unwrap();
    let cached = run(&m, &cfg_with_cache(), &l).unwrap();
    assert_eq!(plain.global_mem, cached.global_mem);
    for t in 0..64 {
        assert_eq!(cached.global_mem[t], Value::I64(2 * t as i64));
    }
}

#[test]
fn conflicting_lines_evict() {
    // Two addresses mapping to the same direct-mapped slot, alternated:
    // every access misses.
    let l1 = MemHierarchy::l1(4, 16, 2, &LatencyModel::default());
    let cfg = SimConfig { mem: Some(l1), ..SimConfig::default() };
    // line(0)=0 -> slot 0; line(64*16=1024)=64 -> slot 0 as well (64 % 4 == 0).
    let m = parse_and_link(
        "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = mov 0\n  jmp bb1\n\
         bb1:\n  %r1 = load global[0]\n  %r1 = load global[1024]\n  %r0 = add %r0, 1\n  %r2 = lt %r0, 10\n  br %r2, bb1, bb2\n\
         bb2:\n  exit\n}\n",
    )
    .unwrap();
    let mut l = Launch::new("k", 1);
    l.global_mem = vec![Value::I64(0); 1025];
    let out = run(&m, &cfg, &l).unwrap();
    let l1 = out.metrics.mem.levels[0];
    assert_eq!(l1.hits, 0, "ping-pong eviction leaves no hits");
    assert_eq!(l1.misses, 20);
}

#[test]
fn stores_invalidate_cached_lines() {
    // load (miss) -> load (hit) -> store same line -> load (miss again).
    let m = parse_and_link(
        "kernel @k(params=0, regs=3, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = load global[5]\n  %r1 = load global[5]\n  store global[5], 9\n  %r2 = load global[5]\n  exit\n}\n",
    )
    .unwrap();
    let mut l = Launch::new("k", 1);
    l.global_mem = vec![Value::I64(1); 16];
    let out = run(&m, &cfg_with_cache(), &l).unwrap();
    // load miss, load hit, store (hits the cached line, then
    // invalidates it), load miss again.
    let l1 = out.metrics.mem.levels[0];
    assert_eq!(l1.hits, 2, "hits {}", l1.hits);
    assert_eq!(l1.misses, 2, "misses {}", l1.misses);
    assert_eq!(out.global_mem[5], Value::I64(9));
}

#[test]
fn atomics_invalidate_across_warps() {
    // Warp threads cache cell 0, then atomics bump it; a later load still
    // returns the true value and pays a miss.
    let m = parse_and_link(
        "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
         bb0:\n  %r0 = load global[0]\n  %r1 = atomic_add [0], 1\n  %r2 = load global[0]\n  %r3 = special.tid\n  %r3 = add %r3, 1\n  store global[%r3], %r2\n  exit\n}\n",
    )
    .unwrap();
    let mut l = Launch::new("k", 2);
    l.global_mem = vec![Value::I64(0); 65];
    let out = run(&m, &cfg_with_cache(), &l).unwrap();
    assert_eq!(out.global_mem[0], Value::I64(64), "all 64 atomics landed");
}
