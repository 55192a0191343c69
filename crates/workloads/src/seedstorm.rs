//! Seed-storm: a seed-divergent sweep stressor.
//!
//! Promoted from the shapes the conformance genome's seed sweeps
//! generate most often: *seed-dependent uniform branches*. Each round,
//! every lane draws from its RNG and the warp votes; the vote count is
//! warp-uniform but a pure function of the launch seed, so under a seed
//! sweep whole instances disagree on the branch on nearly every round.
//! This was the worst case for the detach-to-scalar engine the cohort
//! replaced — it spent most of its time replaying minority seeds on
//! scalar machines — and is the best case for masked sub-cohort forking,
//! which keeps each disagreeing class executing SIMD-style under its
//! own slot mask and merges the sub-cohorts back at every join.
//!
//! Two deliberate design points:
//!
//! - The arms are *cost*-symmetric (identical opcode sequences over
//!   different operands): sub-cohorts can only merge when their clocks
//!   and control planes agree, which is also exactly when the old
//!   engine could rejoin a detached scalar — so the workload isolates
//!   the masked-vs-scalar difference rather than changing which
//!   reconvergences are possible.
//! - One branch per warp per round: each warp votes independently, so a
//!   cohort splits into (at most) 2^warps classes per round and merges
//!   back at the join. Nesting branches would *multiply* per-warp path
//!   counts until nearly every seed ran as a sub-cohort of its own and
//!   turn the measurement into a fork benchmark; nested-divergence
//!   coverage lives in the conformance genome instead.
//!
//! The kernel is *not* part of [`registry`](crate::registry) (that list
//! mirrors Table 2 of the paper); it is exposed as a named workload to
//! the CLI/server the same way the microbenchmark is, and the ledger's
//! `seed-sweep` workload measures it alongside the Monte Carlo registry
//! entries. The fork/merge engine burns no
//! scalar-machine rounds here (the detach-to-scalar engine it replaced
//! burned ~2k per 32-seed sweep). Against 32 independent launches of
//! the decoded engine it is close to even: a sub-cohort averages 8.6 of
//! 32 slots and amortizes little, so the cohort's fixed cost per issue
//! decides. The typed columns first made the cohort 1.85x faster than
//! the launches; the decoded engine then got faster too (typed lane
//! columns, straight-line batching and pick hints), and the cohort fell
//! to 0.84–0.96x. With the cohort's own pick hints, per-batch spans and
//! one-word barrier release checks it runs at 1.03–1.23x (about 9.5 ms
//! against 10.3 ms in the fast runs). Method: one process,
//! `run_sweep_image` of the SR image over seeds `0..32` against 32
//! `run_image_with` launches of the same seeds, best of 20 each, six
//! alternating runs per build, release, on a 2-vCPU host whose speed
//! drifts by up to 2x between runs (the ratio is taken within a run).

use crate::common::{emit_hash, MEM_BASE};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, SpecialValue, Value};
use simt_sim::Launch;

/// Parameters of the seed-storm kernel.
#[derive(Clone, Debug)]
pub struct Params {
    /// Warps in the launch.
    pub num_warps: usize,
    /// Rounds per thread; each round votes on fresh RNG draws, so each
    /// round is a fresh fork/merge cycle for the sweep engine.
    pub rounds: i64,
    /// Synthetic cycles on each (cost-symmetric) arm.
    pub arm_work: u32,
    /// ALU instructions on each arm (beyond the `work` marker). The
    /// arms carry real straight-line instruction count — not just
    /// synthetic `work` cycles — because that is what the sweep engine
    /// amortizes: each masked issue executes once per sub-cohort
    /// instead of once per seed, so the fork/merge win scales with the
    /// instructions between divergence and join.
    pub arm_ops: u32,
    /// RNG seed of the default launch (sweeps override it per slot).
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self { num_warps: 2, rounds: 24, arm_work: 20, arm_ops: 48, seed: 0x5EED_0D1F }
    }
}

/// Emits one cost-symmetric arm: `work`, then `arm_ops` straight-line
/// ALU instructions folding `c` into `acc` (a rotating mul/add/xor
/// chain over arm-specific constants), then a jump to the join block.
/// Both arms run the identical opcode sequence, so both paths through
/// a round burn the same cycles and the engine can merge the forked
/// sub-cohorts at the join.
fn emit_arm(
    b: &mut FunctionBuilder,
    p: &Params,
    acc: simt_ir::Reg,
    c: simt_ir::Reg,
    k1: i64,
    k2: i64,
    join: simt_ir::BlockId,
) {
    b.work(p.arm_work);
    for op in 0..p.arm_ops {
        match op % 3 {
            0 => {
                let t = b.bin(BinOp::Mul, c, k1 + i64::from(op));
                b.bin_into(acc, BinOp::Add, acc, t);
            }
            1 => {
                let m = b.bin(BinOp::Xor, acc, k2 + i64::from(op));
                b.mov_into(acc, m);
            }
            _ => b.bin_into(acc, BinOp::Add, acc, k1 ^ i64::from(op)),
        }
    }
    b.jmp(join);
}

/// Builds the seed-storm workload.
///
/// Per round: every lane draws from its RNG, the warp votes, and the
/// warp-uniform count steers a divergent branch between two
/// cost-symmetric arms. Under a seed sweep the vote count is a pure
/// function of the seed, so whole instances fork apart — and because
/// both paths cost the same, the forks re-merge at the join block
/// every round.
pub fn build(p: &Params) -> Workload {
    let mut b = FunctionBuilder::new("seed_storm", FuncKind::Kernel, 0);
    let tid = b.special(SpecialValue::Tid);
    let h = emit_hash(&mut b, tid);
    let acc = b.mov(h);
    let i = b.mov(0i64);
    let header = b.block("round");
    let heavy = b.block("heavy");
    let light = b.block("light");
    let join = b.block("join");
    let out = b.block("out");
    b.jmp(header);

    b.switch_to(header);
    let u = b.rng_unit();
    let pred = b.bin(BinOp::Lt, u, 0.5f64);
    let count = b.vote(pred);
    // Half the default warp width: the vote count is binomial around
    // this threshold, so the branch is a near-coin-flip per (seed, warp).
    let hot = b.bin(BinOp::Lt, count, 16i64);
    b.br_div(hot, light, heavy);

    b.switch_to(heavy);
    emit_arm(&mut b, p, acc, count, 3, 5, join);
    b.switch_to(light);
    emit_arm(&mut b, p, acc, count, 11, 13, join);

    b.switch_to(join);
    b.bin_into(i, BinOp::Add, i, 1i64);
    let more = b.bin(BinOp::Lt, i, p.rounds);
    b.br_div(more, header, out);

    b.switch_to(out);
    let slot = b.bin(BinOp::Add, tid, MEM_BASE);
    b.store_global(acc, slot);
    b.exit();

    let mut module = Module::new();
    module.add_function(b.finish());
    let mut launch = Launch::new("seed_storm", p.num_warps);
    launch.seed = p.seed;
    launch.global_mem = vec![Value::I64(0); MEM_BASE as usize + p.num_warps * 32];
    Workload {
        name: "seed-storm",
        description: "Seed-divergent sweep stressor promoted from the conformance genome: \
                      vote-uniform RNG branches with cost-symmetric arms, so instances fork \
                      apart and re-merge on every round of a seed sweep.",
        pattern: DivergencePattern::IterationDelay,
        module,
        launch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, RunOutput, RunSpec, Seeds};
    use simt_sim::SimConfig;

    /// Seeds `lo..hi` of the uncompiled kernel as lockstep cohorts.
    fn sweep(lo: u64, hi: u64) -> RunOutput {
        let workload = build(&Params::default());
        let spec = RunSpec {
            workload,
            compile: None,
            cfg: SimConfig::default(),
            seeds: Seeds::Range(lo, hi),
        };
        Engine::new(1).run(&spec, None, |run| run).unwrap()
    }

    #[test]
    fn sweep_forks_and_remerges_without_scalar_fallback() {
        let out = sweep(0, 32);
        for run in &out.runs {
            run.result.as_ref().expect("no faults in seed-storm");
        }
        let stats = out.sweep.expect("a range runs as cohorts");
        assert!(stats.forks > 0, "seeds must disagree on votes: {stats:?}");
        assert!(stats.merges > 0, "forked sub-cohorts must re-merge: {stats:?}");
        assert_eq!(stats.scalar_steps, 0, "2^warps classes fit the cap: {stats:?}");
        assert!(
            stats.mean_occupancy() > 4.0,
            "divergent sweep still runs many slots per issue: {stats:?}"
        );
    }

    #[test]
    fn kernel_writes_every_thread_slot() {
        let out = sweep(7, 8);
        let run = out.runs[0].result.as_ref().unwrap();
        let touched =
            run.global_mem.iter().skip(MEM_BASE as usize).filter(|v| **v != Value::I64(0)).count();
        assert!(touched > 32, "most threads accumulate something: {touched}");
    }
}
