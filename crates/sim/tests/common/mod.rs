//! Helpers shared by the simulator's integration tests.
//!
//! Each test binary compiles its own copy via `mod common;`, so a
//! helper unused by one binary is expected — hence the allow.
#![allow(dead_code)]

use proptest::prelude::*;
use simt_ir::{parse_and_link, Module, Value};
use simt_sim::{LatencyModel, Launch, MemHierarchy, SchedulerPolicy, SimConfig};

/// Every scheduler policy the simulator offers, for exhaustive sweeps.
pub const ALL_POLICIES: [SchedulerPolicy; 5] = [
    SchedulerPolicy::Greedy,
    SchedulerPolicy::MinPc,
    SchedulerPolicy::MaxPc,
    SchedulerPolicy::MostThreads,
    SchedulerPolicy::RoundRobin,
];

/// Parses and links a test module, panicking on malformed source.
pub fn module(src: &str) -> Module {
    parse_and_link(src).expect("test module parses")
}

/// A launch of `warps` warps with `mem` zeroed global-memory cells.
pub fn launch_with_mem(kernel: &str, warps: usize, mem: usize) -> Launch {
    let mut l = Launch::new(kernel, warps);
    l.global_mem = vec![Value::I64(0); mem];
    l
}

/// The single-level L1 the cache tests price against: 64 lines of 16
/// cells (128-byte lines), hits cost 2.
pub fn l1() -> MemHierarchy {
    MemHierarchy::l1(64, 16, 2, &LatencyModel::default())
}

/// The default config with the L1 cache cost model enabled.
pub fn cfg_with_cache() -> SimConfig {
    SimConfig { mem: Some(l1()), ..SimConfig::default() }
}

/// The first cell where two memory images differ by bits — type and
/// payload, so `-0.0` differs from `0.0` and a NaN matches itself, which
/// `Value`'s `==` gets wrong both ways — or `None` when they agree,
/// length included.
pub fn mem_diff(a: &[Value], b: &[Value]) -> Option<usize> {
    let bits = |v: &Value| match *v {
        Value::I64(x) => (false, x as u64),
        Value::F64(x) => (true, x.to_bits()),
    };
    let cell = a.iter().zip(b).position(|(x, y)| bits(x) != bits(y));
    cell.or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))
}

/// Proptest strategy drawing uniformly from [`ALL_POLICIES`].
pub fn any_policy() -> impl Strategy<Value = SchedulerPolicy> {
    (0..ALL_POLICIES.len()).prop_map(|i| ALL_POLICIES[i])
}
