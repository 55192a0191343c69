//! RNG stream independence under seed sweeps.
//!
//! Each instance of a sweep must draw exactly the stream a standalone
//! launch with the same seed would give every thread — no cross-instance
//! contamination, no draw-order skew from lockstep execution. The kernel
//! below dumps each thread's first four draws to global memory; the
//! proptest compares a sweep against per-seed standalone launches across
//! warp counts.

use proptest::prelude::*;
use simt_ir::{parse_and_link, Value};
use simt_sim::{run, run_sweep_image, DecodedImage, Launch, SimConfig, SweepLaunch};

/// Four RNG draws per thread, stored to `global[tid*4 ..= tid*4+3]`.
const RNG_DUMP_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = mul %r0, 4
  %r2 = rng.u63
  store global[%r1], %r2
  %r1 = add %r1, 1
  %r2 = rng.u63
  store global[%r1], %r2
  %r1 = add %r1, 1
  %r2 = rng.u63
  store global[%r1], %r2
  %r1 = add %r1, 1
  %r2 = rng.u63
  store global[%r1], %r2
  exit
}
";

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn sweep_streams_equal_standalone_launch_streams(
        warps in 1usize..5,
        seed_lo in 0u64..u64::MAX - 64,
        n in 2u64..9,
    ) {
        let module = parse_and_link(RNG_DUMP_KERNEL).expect("kernel parses");
        let cfg = SimConfig::default();
        let mut base = Launch::new("k", warps);
        base.global_mem = vec![Value::I64(0); warps * 32 * 4];
        let sweep = SweepLaunch::new(base.clone(), seed_lo, seed_lo + n);
        let image = DecodedImage::decode(&module);
        let out = run_sweep_image(&image, &cfg, &sweep, None).expect("sweep runs");
        prop_assert_eq!(out.runs.len(), n as usize);
        for entry in &out.runs {
            let mut launch = base.clone();
            launch.seed = entry.seed;
            let standalone = run(&module, &cfg, &launch).expect("standalone runs");
            let swept = entry.result.as_ref().expect("sweep instance runs");
            prop_assert_eq!(
                &swept.global_mem,
                &standalone.global_mem,
                "warps={} seed={}: per-instance stream differs from a standalone launch",
                warps,
                entry.seed
            );
            prop_assert_eq!(&swept.metrics, &standalone.metrics);
        }
    }
}
