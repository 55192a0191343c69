//! The scalar entry points: one launch of a decoded image.
//!
//! A scalar launch runs on the lockstep cohort of [`crate::sweep`] at one
//! slot. There the cohort keeps the warp's lanes as the columns of its
//! value store — register `r` of the frame based at stack offset `base`
//! is row `base + r`, lane `l`'s payload in column `l` and its type in
//! bit `l` of the row's float word — so a data arm's row op is one read
//! and one write of that word per frame-base group, and the launch
//! records its trace, profile and journal through [`crate::observe`]'s
//! observer and counts its [`EngineStats`](crate::EngineStats). Its
//! execution model is the tree-walking oracle's in [`crate::reference`]
//! (Volta-style independent thread scheduling with convergence-barrier
//! registers; see the module docs there), and the two are kept
//! bit-for-bit equivalent — same metrics, memory, traces, profiles, RNG
//! streams, and errors — which a property test enforces.

use crate::config::SimConfig;
use crate::decode::DecodedImage;
use crate::error::SimError;
use crate::machine::{Launch, SimOutput};

/// A cloneable cooperative-cancellation flag for in-flight simulations.
///
/// Hand one to [`run_image_with`] and flip it from another thread
/// (deadline reaper, shutdown path, disconnected client) to stop the run
/// at the next scheduling round with [`SimError::Cancelled`]. The check
/// is a single relaxed atomic load per round, so the hot loop pays
/// nothing measurable; runs that complete never observe the token.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Runs a kernel launch of a decoded image to completion.
///
/// Behaves exactly like [`run`](crate::machine::run) — which is
/// implemented as decode followed by this function — but lets callers
/// decode once and launch many times (the batch evaluation engine caches
/// images this way).
///
/// # Errors
///
/// Returns a [`SimError`] on deadlock, memory/arithmetic faults, cycle
/// budget exhaustion, or an invalid/unlinked module.
pub fn run_image(
    image: &DecodedImage,
    cfg: &SimConfig,
    launch: &Launch,
) -> Result<SimOutput, SimError> {
    run_image_with(image, cfg, launch, None)
}

/// [`run_image`] with an optional cooperative [`CancelToken`].
///
/// The token is polled between scheduling rounds; a cancelled run stops
/// with [`SimError::Cancelled`] carrying the cycle it was observed at.
/// Cancellation never corrupts shared state — the machine is local to
/// this call — so a caller (the evaluation service, for one) can keep
/// reusing its compiled-image cache after a cancelled run.
///
/// # Errors
///
/// Everything [`run_image`] returns, plus [`SimError::Cancelled`].
pub fn run_image_with(
    image: &DecodedImage,
    cfg: &SimConfig,
    launch: &Launch,
    cancel: Option<&CancelToken>,
) -> Result<SimOutput, SimError> {
    crate::sweep::run_one(image, cfg, launch, cancel)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::alloc_count;
    use crate::cols::encode;
    use crate::config::{ReconvergenceModel, SchedulerPolicy};
    use crate::error::ReconDump;
    use crate::sweep::Cohort;
    use simt_ir::{parse_and_link, Value};

    /// A deliberately busy kernel: divergent branches, a loop, global
    /// loads/stores, an atomic, a depth-2 device-function call chain,
    /// RNG, a vote, and convergence barriers — every hot-loop shape at
    /// once.
    const STEADY_KERNEL: &str = "\
kernel @k(params=1, regs=8, barriers=1, entry=bb0) {
bb0:
  %r1 = special.tid
  %r2 = rem %r1, 4
  join b0
  brdiv %r2, bb1, bb2
bb1:
  %r3 = rng.unit
  %r4 = mul %r1, 3
  %r5 = load global[%r4]
  call @f(%r5, %r2) -> (%r5)
  store global[%r4], %r5
  jmp bb3
bb2:
  %r5 = atomic_add [0], 1
  %r6 = vote %r2
  jmp bb3
bb3:
  wait b0
  %r0 = sub %r0, 1
  brdiv %r0, bb0, bb4
bb4:
  syncthreads
  exit
}
device @f(params=2, regs=4, barriers=0, entry=bb0) {
bb0:
  %r2 = add %r0, %r1
  call @g(%r2) -> (%r3)
  ret %r3
}
device @g(params=1, regs=2, barriers=0, entry=bb0) {
bb0:
  %r1 = mul %r0, 2
  ret %r1
}
";

    /// After warm-up, a scalar launch's round (the one-slot cohort's)
    /// does not touch the heap — under the barrier file and under the
    /// hardware models, whose split list (forks push, fusions and exits
    /// remove) and reconvergence stack must stop allocating at their
    /// high-water marks, and whose hinted rounds must allocate nothing.
    /// Counts allocations via the test binary's counting global allocator
    /// across a window of steady-state rounds.
    #[test]
    fn step_is_allocation_free_in_steady_state() {
        let module = parse_and_link(STEADY_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        for recon in [
            ReconvergenceModel::BarrierFile,
            ReconvergenceModel::WarpSplit { window: 4, compact: true },
            ReconvergenceModel::IpdomStack,
        ] {
            let cfg = SimConfig { recon, ..SimConfig::default() };
            let at = recon.spec();
            let launch = steady_launch(400);
            let mut m =
                Cohort::<true>::new(&image, &cfg, &launch, launch.seed, 1).expect("cohort builds");
            let mut sub = m.subs.pop().expect("root sub-cohort");

            // Warm-up: grow every scratch buffer, the register arena and
            // frame stacks (to the call chain's depth), the split list or
            // reconvergence stack, and the per-warp busy schedule to
            // their high-water marks.
            for _ in 0..500 {
                if m.round(&mut sub) {
                    panic!("kernel finished during warm-up under {at}; enlarge the loop bound");
                }
            }

            let mut steps = 0u32;
            let before = m.engine;
            let allocs = alloc_count::allocations_during(|| {
                for _ in 0..2000 {
                    if m.round(&mut sub) {
                        break;
                    }
                    steps += 1;
                }
            });
            assert_eq!(sub.slots, 1, "the launch faulted under {at}");
            assert!(
                steps >= 1000,
                "kernel too short to observe steady state ({steps} steps, {at})"
            );
            assert_eq!(allocs, 0, "step allocated {allocs} times over {steps} steps under {at}");
            assert!(
                m.engine.hinted_rounds > before.hinted_rounds
                    && m.engine.batched_issues > before.batched_issues,
                "the window exercised no hinted round under {at}: {:?}",
                m.engine
            );

            // And the run still completes correctly afterwards.
            while !m.round(&mut sub) {}
            assert!(sub.cycle > 0 && sub.slots == 1, "the launch finishes under {at}");
        }
    }

    /// Runs `src` at warp widths 1, 5, 32 and 64 under every policy and
    /// demands the oracle's result bit for bit: final memory by payload
    /// and type (so `-0.0` ≠ `0.0` and a NaN equals itself), metrics, or
    /// the same error. Returns each run's width and result.
    fn against_oracle(
        src: &str,
        launch: impl Fn(usize) -> Launch,
    ) -> Vec<(usize, Result<SimOutput, SimError>)> {
        let module = parse_and_link(src).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let bits = |mem: &[Value]| mem.iter().map(|&v| encode(v)).collect::<Vec<_>>();
        let mut runs = Vec::new();
        for warp_width in [1, 5, 32, 64] {
            let launch = launch(warp_width);
            for scheduler in SchedulerPolicy::ALL {
                let cfg = SimConfig { warp_width, scheduler, ..SimConfig::default() };
                let at = format!("width {warp_width} {scheduler:?}");
                let got = run_image(&image, &cfg, &launch);
                match (&got, crate::reference::run_reference(&module, &cfg, &launch)) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(bits(&got.global_mem), bits(&want.global_mem), "{at}");
                        assert_eq!(got.metrics, want.metrics, "{at}");
                    }
                    (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{at}"),
                    (got, want) => {
                        panic!("{at}: engines disagree: {:?} vs {want:?}", got.as_ref().err())
                    }
                }
                runs.push((warp_width, got));
            }
        }
        runs
    }

    /// `mem` cells of `init`, and `args`, for kernel `@k` on two warps.
    pub(crate) fn launch_of(args: Vec<Value>, mem: usize, init: Value) -> Launch {
        Launch {
            kernel: "k".into(),
            num_warps: 2,
            args,
            global_mem: vec![init; mem],
            local_mem_size: 2,
            seed: 9,
        }
    }

    /// Operand types that depend on the lane: `sel` on lane parity puts
    /// `0.5` in odd lanes and `3` in even ones, and the mixed register
    /// then feeds arithmetic, a compare, a divisor, a bitwise op on a
    /// value derived from it, global and local memory, a call argument
    /// and a return value, a vote, a `sel` and a branch condition (`sub
    /// 3` is an integer zero, falsy, in even lanes and `-2.5`, truthy, in
    /// odd ones).
    pub(crate) const MIXED_KERNEL: &str = "\
kernel @k(params=0, regs=16, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = special.lane
  %r2 = rem %r1, 2
  %r3 = sel %r2, 0.5, 3
  %r4 = add %r3, %r1
  %r5 = lt %r3, 1
  %r6 = div 7, %r3
  %r7 = and %r5, %r1
  %r8 = mul %r0, 8
  store global[%r8], %r4
  %r9 = add %r8, 1
  store global[%r9], %r6
  %r10 = load global[%r8]
  store local[1], %r10
  %r11 = load local[1]
  call @f(%r11, %r3) -> (%r12, %r13)
  %r14 = sub %r3, 3
  %r15 = vote %r14
  %r7 = sel %r14, %r7, %r6
  brdiv %r14, bb1, bb2
bb1:
  %r12 = add %r12, %r15
  jmp bb3
bb2:
  %r13 = mul %r13, 2
  jmp bb3
bb3:
  %r9 = add %r8, 2
  store global[%r9], %r12
  %r9 = add %r8, 3
  store global[%r9], %r13
  %r9 = add %r8, 4
  store global[%r9], %r7
  %r9 = add %r8, 5
  store global[%r9], %r5
  exit
}
device @f(params=2, regs=3, barriers=0, entry=bb0) {
bb0:
  %r2 = mul %r0, %r1
  ret %r2, %r1
}
";

    /// The decoded engine keeps a lane's type through every data path of
    /// [`MIXED_KERNEL`], bit-identical to the oracle, and the mixed rows
    /// take the loop that reads each lane's type bit.
    #[test]
    fn lane_dependent_operand_types_match_the_oracle() {
        let runs = against_oracle(MIXED_KERNEL, |w| launch_of(vec![], 16 * w, Value::I64(-1)));
        for (width, out) in runs {
            let out = out.expect("the kernel does not fault");
            let mem = &out.global_mem;
            // Lane 1 (thread 1): 0.5 + 1, 7 / 0.5, the call's product
            // 1.5 * 0.5 plus the vote (every odd lane), 0.5 returned.
            if width > 1 {
                let odd = (width / 2) as f64;
                assert_eq!(
                    mem[8..12],
                    [Value::F64(1.5), Value::F64(14.0), Value::F64(0.75 + odd), Value::F64(0.5)]
                );
                assert!(out.engine.mixed_rows > 0, "width {width}: {:?}", out.engine);
            } else {
                assert_eq!(out.engine.mixed_rows, 0, "one lane cannot mix: {:?}", out.engine);
            }
            // Lane 0: 3 + 0, 7 / 3, then 9 (the product) and 3 doubled.
            assert_eq!(mem[..4], [Value::I64(3), Value::I64(2), Value::I64(9), Value::I64(6)]);
        }
    }

    /// A NaN payload and `-0.0` in the kernel's two arguments, moved
    /// through `mov`, `sel`, global and local memory, a call and its
    /// return, and branch conditions (`-0.0` is falsy, the NaN truthy).
    pub(crate) const PAYLOAD_KERNEL: &str = "\
kernel @k(params=2, regs=12, barriers=0, entry=bb0) {
bb0:
  %r2 = special.tid
  %r3 = special.lane
  %r4 = rem %r3, 2
  %r5 = mov %r0
  %r6 = sel %r4, %r0, %r1
  %r7 = mul %r2, 6
  store global[%r7], %r5
  %r8 = add %r7, 1
  store global[%r8], %r6
  %r9 = load global[%r8]
  store local[0], %r9
  %r9 = load local[0]
  call @id(%r9, %r1) -> (%r10, %r11)
  %r8 = add %r7, 2
  store global[%r8], %r10
  %r8 = add %r7, 3
  store global[%r8], %r11
  brdiv %r1, bb1, bb2
bb1:
  %r8 = add %r7, 4
  store global[%r8], 1
  jmp bb3
bb2:
  brdiv %r6, bb4, bb3
bb4:
  %r8 = add %r7, 5
  store global[%r8], %r6
  jmp bb3
bb3:
  exit
}
device @id(params=2, regs=2, barriers=0, entry=bb0) {
bb0:
  ret %r0, %r1
}
";

    /// NaN payloads and `-0.0` survive every move bit-exact, and branch
    /// conditions read them by type, not by payload.
    #[test]
    fn nan_payloads_and_negative_zero_survive_bit_exact() {
        let (nan, neg) = (f64::from_bits(0x7ff8_0000_dead_beef), -0.0f64);
        let args = vec![Value::F64(nan), Value::F64(neg)];
        let runs =
            against_oracle(PAYLOAD_KERNEL, |w| launch_of(args.clone(), 12 * w, Value::I64(-1)));
        for (width, out) in runs {
            let mem: Vec<_> =
                out.expect("no fault").global_mem.iter().map(|&v| encode(v)).collect();
            let (nan, neg, untouched) =
                ((nan.to_bits(), true), (neg.to_bits(), true), encode(Value::I64(-1)));
            for t in 0..2 * width {
                let sel = if t % width % 2 == 1 { nan } else { neg };
                let taken = if sel == nan { nan } else { untouched };
                assert_eq!(
                    mem[6 * t..6 * t + 6],
                    [nan, sel, sel, neg, untouched, taken],
                    "thread {t}"
                );
            }
        }
    }

    /// A faultable op after a straight-line run on warp 0, where lanes of
    /// the upper half (lane 0 at width 1) hold `bad` and the others
    /// `good`; warp 1 reads out of bounds a few issues in.
    pub(crate) fn fault_kernel(op: &str, bad: &str, good: &str) -> String {
        format!(
            "kernel @k(params=0, regs=8, barriers=0, entry=bb0) {{\n\
             bb0:\n  %r0 = special.lane\n  %r1 = special.warpwidth\n  %r2 = mul %r0, 2\n\
             \x20 %r2 = add %r2, 1\n  %r3 = ge %r2, %r1\n  %r4 = special.warp\n  br %r4, bb2, bb1\n\
             bb1:\n  %r5 = sel %r3, {bad}, {good}\n  %r6 = add %r0, 1\n  %r6 = mul %r6, 3\n\
             \x20 %r6 = sub %r6, 2\n  %r6 = xor %r6, 5\n  %r7 = {op} %r6, %r5\n\
             \x20 store global[%r0], %r7\n  exit\n\
             bb2:\n  %r5 = load global[-1]\n  exit\n}}\n"
        )
    }

    /// Bitwise ops on a float and integer division by zero fault at the
    /// first faulting lane with the oracle's exact message, and the
    /// straight-line batcher never runs ahead through such an op: with a
    /// second warp faulting earlier in simulated time, that earlier
    /// fault is the one reported.
    #[test]
    fn faults_stop_at_the_first_lane_and_are_never_batched() {
        let cases = [
            ("and", "1.5", "1", "bitwise `and` applied to a float"),
            ("div", "0", "2.5", "integer division by zero"),
            ("rem", "0", "2.5", "integer remainder by zero"),
        ];
        for (op, bad, good, message) in cases {
            let src = fault_kernel(op, bad, good);
            let one_warp = |w| Launch { num_warps: 1, ..launch_of(vec![], w, Value::I64(0)) };
            for (width, out) in against_oracle(&src, one_warp) {
                match out.expect_err("warp 0 faults") {
                    SimError::Arithmetic { at, message: m } => {
                        assert_eq!((at.warp, at.lane, m.as_str()), (0, width / 2, message), "{op}");
                    }
                    other => panic!("{op}: expected an arithmetic fault, got {other}"),
                }
            }
            let two_warps = |w| launch_of(vec![], w, Value::I64(0));
            for (_, out) in against_oracle(&src, two_warps) {
                let e = out.expect_err("warp 1 faults");
                assert!(matches!(e, SimError::MemoryFault { at, .. } if at.warp == 1), "{op}: {e}");
            }
        }
    }

    /// `atomic_add` at addresses that differ by lane and by seed: a
    /// lane-typed value (`0.5` in odd lanes, `3` in even ones) into the
    /// alternating integer (even) and float (odd) cells `0..9`, at
    /// `tid % 8` and then one cell further in the seeds whose draw is odd;
    /// the NaN argument into cell 10 by every lane; and, where the draw is
    /// 3 mod 4, the middle lane's second add out of range. Each thread
    /// stores its three old values at `16 + 3 * tid`.
    pub(crate) const ATOMIC_KERNEL: &str = "\
kernel @k(params=1, regs=14, barriers=0, entry=bb0) {
bb0:
  %r1 = special.tid
  %r2 = special.lane
  %r3 = rem %r2, 2
  %r4 = sel %r3, 0.5, 3
  %r5 = rem %r1, 8
  %r6 = atomic_add [%r5], %r4
  %r7 = atomic_add [10], %r0
  %r8 = rng.u63
  %r9 = rem %r8, 2
  %r9 = add %r5, %r9
  %r8 = rem %r8, 4
  %r8 = eq %r8, 3
  %r10 = special.warpwidth
  %r10 = div %r10, 2
  %r10 = eq %r2, %r10
  %r10 = and %r10, %r8
  %r10 = mul %r10, 100000
  %r9 = add %r9, %r10
  %r11 = atomic_add [%r9], %r4
  %r12 = mul %r1, 3
  %r12 = add %r12, 16
  store global[%r12], %r6
  %r12 = add %r12, 1
  store global[%r12], %r7
  %r12 = add %r12, 1
  store global[%r12], %r11
  exit
}
";

    /// [`ATOMIC_KERNEL`]'s launch on two warps of `width` lanes.
    pub(crate) fn atomic_launch(width: usize, seed: u64) -> Launch {
        let cell = |i| match i {
            i if i % 2 == 1 => Value::F64(i as f64 + 0.25),
            i => Value::I64(i as i64),
        };
        let nan = Value::F64(f64::from_bits(0x7ff8_0000_dead_beef));
        let outs = std::iter::repeat_n(Value::I64(-1), 6 * width);
        Launch {
            args: vec![nan],
            global_mem: (0..16).map(cell).chain(outs).collect(),
            seed,
            ..launch_of(vec![], 0, Value::I64(0))
        }
    }

    /// [`ATOMIC_KERNEL`] matches the oracle; the NaN survives the adds and
    /// an out-of-range middle lane faults the run there.
    #[test]
    fn atomics_at_lane_and_seed_dependent_addresses_match_the_oracle() {
        let (mut ok, mut faulted) = (0, 0);
        for seed in 0..6 {
            for (width, out) in against_oracle(ATOMIC_KERNEL, |w| atomic_launch(w, seed)) {
                match out {
                    Ok(out) => {
                        ok += 1;
                        assert!(matches!(out.global_mem[10], Value::F64(x) if x.is_nan()));
                    }
                    Err(SimError::MemoryFault { at, .. }) => {
                        faulted += 1;
                        assert_eq!(at.lane, width / 2, "seed {seed} width {width}");
                    }
                    Err(e) => panic!("seed {seed} width {width}: {e}"),
                }
            }
        }
        assert!(ok > 0 && faulted > 0, "{ok} clean runs, {faulted} faults");
    }

    /// Runs `src` profiled on two warps of four lanes: batched, as its
    /// traced twin (tracing turns batches and hints off) and, under the
    /// barrier file (the only model the oracle has), on the oracle.
    /// Metrics, per-block profiles and final memory must agree. Returns
    /// the batched run, whose [`EngineStats`] say where its batches
    /// stopped.
    fn batched_against_unbatched(
        src: &str,
        recon: ReconvergenceModel,
        scheduler: SchedulerPolicy,
    ) -> SimOutput {
        let module = parse_and_link(src).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let cfg =
            SimConfig { warp_width: 4, recon, scheduler, profile: true, ..SimConfig::default() };
        let launch = launch_of(vec![], 16, Value::I64(0));
        let at = recon.spec();
        let got = run_image(&image, &cfg, &launch).expect("batched run");
        let traced = SimConfig { trace: true, ..cfg.clone() };
        let mut twins = vec![("traced", run_image(&image, &traced, &launch).expect("traced run"))];
        assert_eq!(twins[0].1.engine.batched_issues, 0, "the traced twin batched under {at}");
        if recon == ReconvergenceModel::BarrierFile {
            let oracle = crate::reference::run_reference(&module, &cfg, &launch);
            twins.push(("oracle", oracle.expect("oracle run")));
        }
        for (twin, want) in twins {
            assert_eq!(got.metrics, want.metrics, "{twin} under {at}");
            assert_eq!(got.profile, want.profile, "{twin} under {at}");
            assert_eq!(got.global_mem, want.global_mem, "{twin} under {at}");
        }
        got
    }

    /// The three models, under Greedy.
    const MODELS: [ReconvergenceModel; 3] = [
        ReconvergenceModel::BarrierFile,
        ReconvergenceModel::IpdomStack,
        ReconvergenceModel::WarpSplit { window: 4, compact: true },
    ];

    /// 128 `add`s in a row: the first batch runs `BATCH_LIMIT` issues past
    /// its round's own and leaves its hint, so the next round skips the
    /// pick.
    #[test]
    fn a_batch_stops_at_the_limit_and_leaves_its_hint() {
        let adds = "  %r1 = add %r1, 3\n".repeat(128);
        let src = format!(
            "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {{\nbb0:\n  %r0 = special.tid\n\
             {adds}  store global[%r0], %r1\n  exit\n}}\n"
        );
        for recon in MODELS {
            let out = batched_against_unbatched(&src, recon, SchedulerPolicy::Greedy);
            // Per warp: `special` and 64 `add`s, then `add` and the 63
            // left, the store and the exit on hints, and the round that
            // finds the warp done.
            let e = out.engine;
            let at = recon.spec();
            assert_eq!((e.rounds, e.hinted_rounds, e.batched_issues), (10, 6, 254), "{at}: {e:?}");
            assert_eq!(out.global_mem[..8], [Value::I64(384); 8], "{at}");
        }
    }

    /// A divergent branch ends the batch that issued it; the IPDOM hook
    /// still turns it into stack pushes.
    #[test]
    fn a_batch_ends_at_a_divergent_branch() {
        let src = "\
kernel @k(params=0, regs=3, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rem %r0, 2
  %r2 = add %r0, 5
  brdiv %r1, bb1, bb2
bb1:
  %r2 = mul %r2, 3
  jmp bb3
bb2:
  %r2 = sub %r2, 1
  jmp bb3
bb3:
  store global[%r0], %r2
  exit
}
";
        // Per warp, `rem`, `add` and `brdiv` batch behind `special`; then
        // each arm's `jmp` batches behind its first issue, except under
        // warp-split, where neither arm is the warp's only frontier.
        for (recon, batched) in MODELS.into_iter().zip([10, 10, 6]) {
            let out = batched_against_unbatched(src, recon, SchedulerPolicy::Greedy);
            let at = recon.spec();
            assert_eq!(out.engine.batched_issues, batched, "{at}: {:?}", out.engine);
            assert_eq!(out.global_mem[..4].to_vec(), [4, 18, 6, 24].map(Value::I64), "{at}");
            if recon == ReconvergenceModel::IpdomStack {
                assert_eq!(out.metrics.recon.stack_pushes, 4, "one split per warp");
            }
        }
    }

    /// A batch jumps from a plain block into a region-of-interest block
    /// and out again: the ROI share of its cost is counted per issue.
    #[test]
    fn a_batch_crosses_roi_block_boundaries() {
        let src = "\
kernel @k(params=0, regs=2, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = mul %r0, 2
  jmp bb1
bb1 (roi):
  work 7
  %r1 = add %r1, 1
  jmp bb2
bb2:
  %r1 = add %r1, 4
  store global[%r0], %r1
  exit
}
";
        for recon in MODELS {
            let out = batched_against_unbatched(src, recon, SchedulerPolicy::Greedy);
            let (m, at) = (&out.metrics, recon.spec());
            assert_eq!(out.engine.batched_issues, 2 * 6, "{at}: one batch per warp");
            assert!(0 < m.roi_issues && m.roi_issues < m.issue_weight, "{at}: {m:?}");
        }
    }

    /// `join` and `arrived` run inside one batch; `arrived` reads the
    /// participants the batched `join` added (the IPDOM stack has no
    /// barrier file: it reads 0).
    #[test]
    fn join_then_arrived_inside_one_batch() {
        let src = "\
kernel @k(params=0, regs=3, barriers=1, entry=bb0) {
bb0:
  %r0 = special.tid
  join b0
  %r1 = arrived b0
  %r2 = add %r1, 100
  cancel b0
  store global[%r0], %r2
  exit
}
";
        for recon in MODELS {
            let out = batched_against_unbatched(src, recon, SchedulerPolicy::Greedy);
            let at = recon.spec();
            assert_eq!(out.engine.batched_issues, 2 * 3, "{at}: {:?}", out.engine);
            let arrived = if recon == ReconvergenceModel::IpdomStack { 0 } else { 4 };
            assert_eq!(out.global_mem[..8], [Value::I64(100 + arrived); 8], "{at}");
        }
    }

    /// Under Greedy a divergent group batches, but stops before its pc
    /// reaches the other group's: the next round merges the two there.
    #[test]
    fn a_greedy_batch_stops_before_a_merge() {
        let src = "\
kernel @k(params=0, regs=3, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rem %r0, 2
  br %r1, bb1, bb2
bb1:
  %r2 = mul %r0, 3
  %r2 = add %r2, 1
  jmp bb2
bb2:
  %r2 = add %r2, 7
  store global[%r0], %r2
  exit
}
";
        let out = batched_against_unbatched(
            src,
            ReconvergenceModel::BarrierFile,
            SchedulerPolicy::Greedy,
        );
        // Per warp: `special`, `rem`, `br`; the odd lanes' `mul`, `add`,
        // `jmp`, stopped by the guard without a hint; the merged `add`;
        // the store and the exit on hints; the round that finds it done.
        let e = out.engine;
        assert_eq!((e.rounds, e.hinted_rounds, e.batched_issues), (12, 4, 8), "{e:?}");
        let profile = out.profile.expect("profiled");
        let merged = profile.block(simt_ir::FuncId(0), simt_ir::BlockId(2));
        assert_eq!((merged.issues, merged.active_lanes), (2 * 3, 2 * 3 * 4), "bb2 runs merged");
    }

    /// Odd lanes run a nested call chain (`@f` → `@g`, each returning
    /// two values into its caller's window) while even lanes stay in the
    /// kernel frame, then push `@g` over the arena rows the odd lanes
    /// are using. `%r7` is a float in odd lanes and an integer in even
    /// ones, so the windows mix types too. The sum of every window's
    /// values is stored at the end.
    const ARENA_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rem %r0, 2
  %r6 = sel %r1, 100.5, 100
  %r7 = add %r0, %r6
  brdiv %r1, bb1, bb2
bb1:
  call @f(%r0, %r7) -> (%r2, %r3)
  jmp bb3
bb2:
  %r2 = mul %r0, 5
  %r3 = sub %r7, 1
  jmp bb3
bb3:
  call @g(%r2) -> (%r4, %r5)
  %r2 = add %r2, %r3
  %r4 = add %r4, %r5
  %r2 = add %r2, %r4
  %r2 = add %r2, %r7
  store global[%r0], %r2
  exit
}
device @f(params=2, regs=5, barriers=0, entry=bb0) {
bb0:
  %r2 = add %r0, %r1
  call @g(%r2) -> (%r3, %r4)
  %r2 = add %r2, %r4
  ret %r3, %r2
}
device @g(params=1, regs=3, barriers=0, entry=bb0) {
bb0:
  %r1 = mul %r0, 3
  %r2 = add %r0, 11
  ret %r1, %r2
}
";

    /// Lanes at different call depths reuse the same arena rows without
    /// clobbering each other's payloads or type bits, and multi-value
    /// returns land in the caller's window — at warp widths 1, 5, 32 and
    /// 64, under every policy (they interleave the two arms
    /// differently), bit-identical to the tree-walking oracle. Lanes at
    /// two depths meet at one pc of `@g`, where the data arms run one
    /// row op per frame base. Debug builds also run `WarpCtl::check_frames`
    /// at every pick.
    #[test]
    fn divergent_call_depths_share_the_arena_safely() {
        let runs = against_oracle(ARENA_KERNEL, |w| launch_of(vec![], 2 * w, Value::I64(-1)));
        let mut split = 0;
        for (_, out) in runs {
            let out = out.expect("decoded run");
            // Thread 1 went through the nested chain: f(1, 101.5) calls
            // g(102.5) -> (307.5, 113.5) and returns (307.5, 216), then
            // g(307.5) -> (922.5, 318.5): the sum plus 101.5. Thread 0
            // stays in integers: 0 + 99 + 0 + 11 + 100.
            assert_eq!(out.global_mem[..2], [Value::I64(210), Value::F64(1866.0)]);
            split += out.engine.split_base_issues;
        }
        assert!(split > 0, "no issue met lanes at two call depths");
    }

    /// A divergent branch whose arms reconverge at `bb3`, with a
    /// `__syncthreads` inside one arm — legal under Volta's independent
    /// thread scheduling, a classic deadlock under stack reconvergence.
    const DIVERGENT_SYNC_KERNEL: &str = "\
kernel @k(params=0, regs=2, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rem %r0, 2
  brdiv %r1, bb1, bb2
bb1:
  syncthreads
  jmp bb3
bb2:
  jmp bb3
bb3:
  store global[%r0], %r1
  exit
}
";

    fn steady_launch(iters: i64) -> Launch {
        Launch {
            kernel: "k".into(),
            num_warps: 2,
            args: vec![Value::I64(iters)],
            global_mem: vec![Value::I64(7); 256],
            local_mem_size: 0,
            seed: 9,
        }
    }

    /// All three reconvergence models execute the same lane work, so
    /// final memory agrees; only timing and the model's own counters
    /// differ. The barrier-file model must keep its counters all-zero
    /// (the bit-identity guarantee), the hardware models must show
    /// their machinery actually engaged on a divergent kernel.
    #[test]
    fn hardware_models_reach_the_same_memory() {
        let module = parse_and_link(STEADY_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let launch = steady_launch(12);
        let base = run_image(&image, &SimConfig::default(), &launch).expect("barrier-file run");
        assert!(
            crate::counters::is_zero(&base.metrics.recon),
            "barrier-file recon counters must stay zero"
        );

        let cfg = SimConfig { recon: ReconvergenceModel::IpdomStack, ..SimConfig::default() };
        let stack = run_image(&image, &cfg, &launch).expect("ipdom run");
        assert_eq!(stack.global_mem, base.global_mem);
        assert!(stack.metrics.recon.stack_pushes > 0, "divergence must push");
        assert_eq!(stack.metrics.recon.stack_pushes, stack.metrics.recon.stack_pops);
        assert!(stack.metrics.recon.stack_max_depth >= 2);

        for (window, compact) in [(0, false), (4, true)] {
            let cfg = SimConfig {
                recon: ReconvergenceModel::WarpSplit { window, compact },
                ..SimConfig::default()
            };
            let split = run_image(&image, &cfg, &launch).expect("warp-split run");
            assert_eq!(split.global_mem, base.global_mem, "window={window} compact={compact}");
            assert!(split.metrics.recon.splits > 0, "divergence must fork a split");
            assert!(split.metrics.recon.fusions > 0, "reconvergence must re-fuse");
        }
    }

    /// The warp-split model preserves per-warp forward progress, so a
    /// sync inside a divergent arm still completes — like Volta, unlike
    /// the stack.
    #[test]
    fn warp_split_keeps_forward_progress_through_divergent_sync() {
        let module = parse_and_link(DIVERGENT_SYNC_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let mut launch = steady_launch(0);
        launch.args.clear();
        launch.num_warps = 1;
        let base = run_image(&image, &SimConfig::default(), &launch).expect("barrier-file run");
        let cfg = SimConfig {
            recon: ReconvergenceModel::WarpSplit { window: 2, compact: false },
            ..SimConfig::default()
        };
        let split = run_image(&image, &cfg, &launch).expect("warp-split run");
        assert_eq!(split.global_mem, base.global_mem);
    }

    /// The stack model serializes the taken arm first; its `syncthreads`
    /// can never be satisfied while the not-taken lanes are parked below
    /// the top-of-stack — and the deadlock report must carry the stack,
    /// not an empty barrier dump.
    #[test]
    fn ipdom_stack_deadlocks_where_volta_reconverges() {
        let module = parse_and_link(DIVERGENT_SYNC_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let mut launch = steady_launch(0);
        launch.args.clear();
        launch.num_warps = 1;
        run_image(&image, &SimConfig::default(), &launch).expect("volta completes this kernel");
        let cfg = SimConfig { recon: ReconvergenceModel::IpdomStack, ..SimConfig::default() };
        let err = run_image(&image, &cfg, &launch).expect_err("the stack model deadlocks");
        match err {
            SimError::Deadlock { recon: ReconDump::IpdomStack { stack }, .. } => {
                assert!(!stack.is_empty(), "report must carry the reconvergence stack");
                assert!(stack.iter().any(|e| e.pending != 0));
            }
            other => panic!("expected an ipdom deadlock dump, got {other:?}"),
        }
    }
}
