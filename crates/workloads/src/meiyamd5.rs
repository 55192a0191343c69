//! MeiyaMD5 — MD5 hash reversal.
//!
//! Each task tests a batch of candidate pre-images against a target
//! digest; batch sizes are heavily load-imbalanced (the search space is
//! partitioned unevenly), and each candidate costs a fixed block of
//! genuinely compute-dense MD5-style rounds. The paper calls this "a
//! load-imbalanced, compute-heavy inner loop making it the ideal
//! candidate for Loop Merge" (§5.4).
//!
//! The inner body implements real MD5-round arithmetic (F function,
//! rotate-left, additive constants) on 32-bit values carried in our i64
//! registers — compute with zero memory traffic.

use crate::common::{begin_task_loop, emit_hash, MEM_BASE, QUEUE_ADDR};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, Reg, Value};
use simt_sim::Launch;

/// Tunable workload size.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of candidate batches (tasks).
    pub num_tasks: i64,
    /// Warps in the launch.
    pub num_warps: usize,
    /// Maximum candidates per batch; actual counts are `(h % max)^2 / max`
    /// — a skewed (quadratic) imbalance.
    pub max_candidates: i64,
    /// MD5-ish rounds per candidate.
    pub rounds: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self { num_tasks: 384, num_warps: 4, max_candidates: 48, rounds: 4, seed: 0x5EED_0007 }
    }
}

/// Memory layout of the launch built by [`build`].
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    /// Base of the per-task best-digest output.
    pub result_base: i64,
}

/// Computes the memory layout for the given parameters.
pub fn layout(_p: &Params) -> MemLayout {
    MemLayout { result_base: MEM_BASE }
}

const MASK32: i64 = 0xFFFF_FFFF;

/// Emits one MD5-style round: `a = b + rotl(a + F(b,c,d) + x + k, s)` with
/// `F(b,c,d) = (b & c) | (!b & d)`, all in 32-bit arithmetic.
#[allow(clippy::too_many_arguments)] // mirrors the MD5 round signature
fn emit_md5_round(
    b: &mut FunctionBuilder,
    a: Reg,
    bb: Reg,
    c: Reg,
    d: Reg,
    x: Reg,
    k: i64,
    s: i64,
) {
    use BinOp::*;
    let bc = b.bin(And, bb, c);
    let nb = b.bin(Xor, bb, MASK32);
    let nbd = b.bin(And, nb, d);
    let f = b.bin(Or, bc, nbd);
    let t0 = b.bin(Add, a, f);
    let t1 = b.bin(Add, t0, x);
    let t2 = b.bin(Add, t1, k);
    let t2m = b.bin(And, t2, MASK32);
    let hi = b.bin(Shl, t2m, s);
    let lo = b.bin(Shr, t2m, 32 - s);
    let rot0 = b.bin(Or, hi, lo);
    let rot = b.bin(And, rot0, MASK32);
    let sum = b.bin(Add, bb, rot);
    let out = b.bin(And, sum, MASK32);
    b.mov_into(a, out);
}

/// Builds the MeiyaMD5 workload.
pub fn build(p: &Params) -> Workload {
    let l = layout(p);
    let mut b = FunctionBuilder::new("meiyamd5", FuncKind::Kernel, 0);
    b.predict_label("digest_loop", None);
    let tl = begin_task_loop(&mut b, p.num_tasks);

    // ---- Prolog: batch size (quadratically skewed) ------------------------
    let h = emit_hash(&mut b, tl.task);
    let m0 = b.bin(BinOp::Rem, h, p.max_candidates);
    let sq = b.bin(BinOp::Mul, m0, m0);
    let skew = b.bin(BinOp::Div, sq, p.max_candidates);
    let count = b.bin(BinOp::Add, skew, 1i64);
    let best = b.mov(0i64);
    let i = b.mov(0i64);
    let digest_loop = b.block("digest_loop");
    let out_blk = b.block("out");
    b.jmp(digest_loop);

    // ---- Inner loop: hash one candidate ------------------------------------
    b.switch_to(digest_loop);
    b.mark_roi();
    // Candidate word derived from (task, i).
    let cand0 = b.bin(BinOp::Mul, i, 2654435761i64);
    let cand1 = b.bin(BinOp::Xor, cand0, h);
    let x = b.bin(BinOp::And, cand1, MASK32);
    // MD5 state init (standard IV words).
    let a = b.mov(0x67452301i64);
    let bb2 = b.mov(0xefcdab89i64);
    let c = b.mov(0x98badcfei64);
    let d = b.mov(0x10325476i64);
    for r in 0..p.rounds {
        emit_md5_round(&mut b, a, bb2, c, d, x, 0xd76aa478 + r * 0x1000, 7 + (r % 4) * 5);
        emit_md5_round(&mut b, d, a, bb2, c, x, 0xe8c7b756 - r * 0x333, 12);
    }
    let better = b.bin(BinOp::Gt, a, best);
    let nb = b.sel(better, a, best);
    b.mov_into(best, nb);
    b.bin_into(i, BinOp::Add, i, 1i64);
    let more = b.bin(BinOp::Lt, i, count);
    b.br_div(more, digest_loop, out_blk);

    // ---- Epilog -------------------------------------------------------------
    b.switch_to(out_blk);
    let slot = b.bin(BinOp::Add, tl.task, l.result_base);
    b.store_global(best, slot);
    b.jmp(tl.fetch);

    let mut module = Module::new();
    module.add_function(b.finish());

    let mut launch = Launch::new("meiyamd5", p.num_warps);
    launch.seed = p.seed;
    let mem_len = (l.result_base + p.num_tasks) as usize;
    let mut mem = vec![Value::I64(0); mem_len];
    mem[QUEUE_ADDR as usize] = Value::I64(0);
    launch.global_mem = mem;

    Workload {
        name: "meiyamd5",
        description: "Performs Message-Digest algorithm 5 (MD5) hash reverses. Contains a \
                      load-imbalanced, compute-heavy inner loop — the ideal Loop Merge \
                      candidate.",
        pattern: DivergencePattern::LoopMerge,
        module,
        launch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baseline_mem, pdom_vs_sr};

    fn small() -> Workload {
        build(&Params { num_tasks: 96, num_warps: 1, ..Params::default() })
    }

    #[test]
    fn sr_improves_efficiency_substantially() {
        let [base, sr] = pdom_vs_sr(small());
        assert!(
            sr.simt_efficiency() > base.simt_efficiency() + 0.1,
            "eff: {} -> {}",
            base.simt_efficiency(),
            sr.simt_efficiency()
        );
    }

    #[test]
    fn digests_stay_in_32_bits_and_are_nonzero() {
        let w = small();
        let mem = baseline_mem(&w);
        let l = layout(&Params::default());
        let mut nonzero = 0;
        for t in 0..96usize {
            let v = mem[(l.result_base as usize) + t].as_i64();
            assert!((0..=MASK32).contains(&v), "task {t}: digest {v:#x}");
            if v != 0 {
                nonzero += 1;
            }
        }
        assert!(nonzero > 90, "most digests should be nonzero, got {nonzero}");
    }

    #[test]
    fn quadratic_skew_makes_baseline_divergent() {
        let [base, _] = pdom_vs_sr(small());
        assert!(base.simt_efficiency() < 0.55, "baseline eff {}", base.simt_efficiency());
    }
}
