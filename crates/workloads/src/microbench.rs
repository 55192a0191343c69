//! Microbenchmarks.
//!
//! The paper found no full application exhibiting the common-function-call
//! pattern of Figure 2(c) and validated it with microbenchmarks instead
//! (§5.1); this module provides that microbenchmark plus a
//! convergent-control sanity kernel used by the corpus and tests.

use crate::common::{emit_hash, MEM_BASE, QUEUE_ADDR};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, SpecialValue, Value};
use simt_sim::Launch;

/// Parameters of the common-function-call microbenchmark.
#[derive(Clone, Debug)]
pub struct Params {
    /// Warps in the launch.
    pub num_warps: usize,
    /// Iterations of the divergent-call loop per thread.
    pub iterations: i64,
    /// Synthetic cycles inside the shared function body.
    pub body_work: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self { num_warps: 4, iterations: 24, body_work: 60, seed: 0x5EED_000A }
    }
}

/// Builds the Figure 2(c) microbenchmark: a loop whose divergent branch
/// calls the same device function from both sides, with an
/// interprocedural `Predict(@shade)` annotation.
pub fn build_common_call(p: &Params) -> Workload {
    let mut module = Module::new();

    // The shared device function (the predicted reconvergence point).
    {
        let mut f = FunctionBuilder::new("shade", FuncKind::Device, 1);
        let x = f.param(0);
        let body = f.block("shade_body");
        f.jmp(body);
        f.switch_to(body);
        f.mark_roi();
        f.work(p.body_work);
        let y0 = f.bin(BinOp::Mul, x, 2654435761i64);
        let y = f.bin(BinOp::And, y0, 0xFFFF_i64);
        f.ret(vec![y.into()]);
        module.add_function(f.finish());
    }

    // The kernel: each iteration branches divergently; both sides call
    // @shade with different preprocessing.
    let mut b = FunctionBuilder::new("common_call", FuncKind::Kernel, 0);
    b.predict_function("shade", None);
    let tid = b.special(SpecialValue::Tid);
    let h = emit_hash(&mut b, tid);
    b.seed_rng(h);
    let acc = b.mov(0i64);
    let i = b.mov(0i64);
    let loop_hdr = b.block("loop");
    let heavy_pre = b.block("heavy_pre");
    let light_pre = b.block("light_pre");
    let join = b.block("join");
    let out = b.block("out");
    b.jmp(loop_hdr);

    b.switch_to(loop_hdr);
    let u = b.rng_unit();
    let heavy = b.bin(BinOp::Lt, u, 0.5f64);
    b.br_div(heavy, heavy_pre, light_pre);

    b.switch_to(heavy_pre);
    b.work(12);
    let a1 = b.bin(BinOp::Add, h, i);
    let r1 = b.call("shade", vec![a1.into()], 1);
    b.bin_into(acc, BinOp::Add, acc, r1[0]);
    b.jmp(join);

    b.switch_to(light_pre);
    b.work(3);
    let a2 = b.bin(BinOp::Xor, h, i);
    let r2 = b.call("shade", vec![a2.into()], 1);
    b.bin_into(acc, BinOp::Add, acc, r2[0]);
    b.jmp(join);

    b.switch_to(join);
    b.bin_into(i, BinOp::Add, i, 1i64);
    let more = b.bin(BinOp::Lt, i, p.iterations);
    b.br_div(more, loop_hdr, out);

    b.switch_to(out);
    let slot = b.bin(BinOp::Add, tid, MEM_BASE);
    b.store_global(acc, slot);
    b.exit();
    module.add_function(b.finish());
    module.resolve_calls().expect("shade exists");

    let mut launch = Launch::new("common_call", p.num_warps);
    launch.seed = p.seed;
    let threads = p.num_warps * 32;
    launch.global_mem = vec![Value::I64(0); MEM_BASE as usize + threads];
    // Queue cell unused here but kept for layout uniformity.
    launch.global_mem[QUEUE_ADDR as usize] = Value::I64(0);

    Workload {
        name: "common-call",
        description: "Microbenchmark validating the Figure 2(c) pattern: both sides of a \
                      divergent branch call the same function; the entry of the function is \
                      the predicted reconvergence point (§4.4).",
        pattern: DivergencePattern::CommonFunctionCall,
        module,
        launch,
    }
}

/// Parameters for the Figure 2(a)/2(b) reference kernels.
#[derive(Clone, Debug)]
pub struct Fig2Params {
    /// Warps in the launch.
    pub num_warps: usize,
    /// Outer loop iterations per thread.
    pub outer_iters: i64,
    /// Probability of the divergent condition (2a) per iteration.
    pub branch_p: f64,
    /// Synthetic cycles of the expensive common code.
    pub expensive_work: u32,
    /// Maximum inner-loop trips (2b); actual counts are hash-skewed.
    pub max_trips: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig2Params {
    fn default() -> Self {
        Self {
            num_warps: 2,
            outer_iters: 20,
            branch_p: 0.2,
            expensive_work: 60,
            max_trips: 48,
            seed: 0x5EED_00F2,
        }
    }
}

/// Figure 2(a): a divergent condition within a loop, annotated with the
/// proposed reconvergence point at the expensive block (Iteration Delay).
pub fn build_fig2a(p: &Fig2Params) -> Workload {
    let mut b = FunctionBuilder::new("fig2a", FuncKind::Kernel, 0);
    b.predict_label("L1", None);
    let tid = b.special(SpecialValue::Tid);
    b.seed_rng(tid);
    let acc = b.mov(0i64);
    let i = b.mov(0i64);
    let header = b.block("header");
    let expensive = b.block("L1");
    let epilog = b.block("epilog");
    let out = b.block("out");
    b.jmp(header);

    b.switch_to(header);
    let u = b.rng_unit();
    let taken = b.bin(BinOp::Lt, u, p.branch_p);
    b.br_div(taken, expensive, epilog);

    b.switch_to(expensive);
    b.mark_roi();
    b.work(p.expensive_work);
    b.bin_into(acc, BinOp::Add, acc, 7i64);
    b.jmp(epilog);

    b.switch_to(epilog);
    b.bin_into(i, BinOp::Add, i, 1i64);
    let more = b.bin(BinOp::Lt, i, p.outer_iters);
    b.br_div(more, header, out);

    b.switch_to(out);
    let slot = b.bin(BinOp::Add, tid, MEM_BASE);
    b.store_global(acc, slot);
    b.exit();

    let mut module = Module::new();
    module.add_function(b.finish());
    let mut launch = Launch::new("fig2a", p.num_warps);
    launch.seed = p.seed;
    launch.global_mem = vec![Value::I64(0); MEM_BASE as usize + p.num_warps * 32];
    Workload {
        name: "fig2a",
        description: "Figure 2(a) reference kernel: divergent condition within a loop                       (Iteration Delay).",
        pattern: DivergencePattern::IterationDelay,
        module,
        launch,
    }
}

/// Figure 2(b): a nested loop with a divergent trip count, annotated at
/// the inner-loop header (Loop Merge).
pub fn build_fig2b(p: &Fig2Params) -> Workload {
    let mut b = FunctionBuilder::new("fig2b", FuncKind::Kernel, 0);
    b.predict_label("L1", None);
    let tid = b.special(SpecialValue::Tid);
    let acc = b.mov(0i64);
    let i = b.mov(0i64);
    let header = b.block("header");
    let inner = b.block("L1");
    let epilog = b.block("epilog");
    let out = b.block("out");
    b.jmp(header);

    b.switch_to(header);
    // Prolog: per-(thread, iteration) trip count, hash-skewed.
    let mix0 = b.bin(BinOp::Mul, tid, 0x9E37_i64);
    let mix1 = b.bin(BinOp::Xor, mix0, i);
    let h = emit_hash(&mut b, mix1);
    let t0 = b.bin(BinOp::Rem, h, p.max_trips);
    let tsq = b.bin(BinOp::Mul, t0, t0);
    let trips0 = b.bin(BinOp::Div, tsq, p.max_trips);
    let trips = b.bin(BinOp::Add, trips0, 1i64);
    let j = b.mov(0i64);
    b.jmp(inner);

    b.switch_to(inner);
    b.mark_roi();
    b.work(p.expensive_work / 2);
    b.bin_into(acc, BinOp::Add, acc, j);
    b.bin_into(j, BinOp::Add, j, 1i64);
    let more = b.bin(BinOp::Lt, j, trips);
    b.br_div(more, inner, epilog);

    b.switch_to(epilog);
    b.bin_into(i, BinOp::Add, i, 1i64);
    let outer_more = b.bin(BinOp::Lt, i, p.outer_iters);
    b.br_div(outer_more, header, out);

    b.switch_to(out);
    let slot = b.bin(BinOp::Add, tid, MEM_BASE);
    b.store_global(acc, slot);
    b.exit();

    let mut module = Module::new();
    module.add_function(b.finish());
    let mut launch = Launch::new("fig2b", p.num_warps);
    launch.seed = p.seed;
    launch.global_mem = vec![Value::I64(0); MEM_BASE as usize + p.num_warps * 32];
    Workload {
        name: "fig2b",
        description: "Figure 2(b) reference kernel: loop trip count divergence (Loop Merge).",
        pattern: DivergencePattern::LoopMerge,
        module,
        launch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baseline_mem, pdom_vs_sr, speedup};

    #[test]
    fn interprocedural_sr_converges_shared_body() {
        let w = build_common_call(&Params { num_warps: 1, ..Params::default() });
        let [base, sr] = pdom_vs_sr(w);
        assert!(
            sr.roi_simt_efficiency() > base.roi_simt_efficiency() + 0.2,
            "roi eff: {} -> {}",
            base.roi_simt_efficiency(),
            sr.roi_simt_efficiency()
        );
        assert!(speedup(&base, &sr) > 1.0, "speedup {}", speedup(&base, &sr));
    }

    #[test]
    fn fig2a_improves_under_sr() {
        let w = build_fig2a(&Fig2Params { num_warps: 1, ..Fig2Params::default() });
        let [base, sr] = pdom_vs_sr(w);
        assert!(
            sr.roi_simt_efficiency() > base.roi_simt_efficiency() + 0.2,
            "roi: {} -> {}",
            base.roi_simt_efficiency(),
            sr.roi_simt_efficiency()
        );
    }

    #[test]
    fn fig2b_improves_under_sr() {
        let w = build_fig2b(&Fig2Params { num_warps: 1, ..Fig2Params::default() });
        let [base, sr] = pdom_vs_sr(w);
        assert!(
            sr.simt_efficiency() > base.simt_efficiency() + 0.08,
            "eff: {} -> {}",
            base.simt_efficiency(),
            sr.simt_efficiency()
        );
        assert!(speedup(&base, &sr) > 1.0, "speedup {}", speedup(&base, &sr));
    }

    #[test]
    fn kernel_writes_every_thread_slot() {
        let w = build_common_call(&Params { num_warps: 1, ..Params::default() });
        let mem = baseline_mem(&w);
        for t in 0..32usize {
            assert_ne!(mem[MEM_BASE as usize + t], Value::I64(0), "thread {t}");
        }
    }
}
