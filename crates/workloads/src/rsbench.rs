//! RSBench — multipole macroscopic cross-section lookup (Figure 3).
//!
//! The paper's primary Loop-Merge example: each lookup walks every nuclide
//! of a randomly chosen material and accumulates cross-section data. The
//! per-material nuclide counts come from the real RSBench "large" input
//! (12 materials, 4..321 nuclides), which is exactly the 4–321 range the
//! paper quotes — this is what makes the inner trip count divergent.
//! The kernel is compute-bound: the per-nuclide body carries substantial
//! arithmetic next to one gather load.
//!
//! Annotation: `Predict(L1)` at the kernel entry with the inner-loop
//! header as the reconvergence point (Figure 3's `L1`).

use crate::common::{begin_task_loop, emit_hash, MEM_BASE, QUEUE_ADDR};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, UnOp, Value};
use simt_sim::Launch;

/// Per-material nuclide counts from RSBench's default (large) input.
pub const NUCLIDE_COUNTS: [i64; 12] = [321, 96, 34, 22, 20, 21, 12, 11, 10, 9, 16, 45];

/// Tunable workload size.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of lookup tasks in the work queue.
    pub num_tasks: i64,
    /// Warps in the launch.
    pub num_warps: usize,
    /// Size of the cross-section gather table.
    pub data_len: i64,
    /// Synthetic cycles of multipole math per nuclide (the compute-bound
    /// knob; RSBench evaluates a Faddeeva function per pole).
    pub body_work: u32,
    /// Synthetic cycles of per-lookup post-processing (epilog).
    pub epilog_work: u32,
    /// RNG seed for the launch.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            num_tasks: 512,
            num_warps: 4,
            data_len: 2048,
            body_work: 22,
            epilog_work: 8,
            seed: 0x5EED_0001,
        }
    }
}

/// Memory layout of the launch built by [`build`].
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    /// Base of the 12-entry material → nuclide-count table.
    pub counts_base: i64,
    /// Base of the cross-section data table.
    pub data_base: i64,
    /// Base of the per-task result array.
    pub result_base: i64,
}

/// Computes the memory layout for the given parameters.
pub fn layout(p: &Params) -> MemLayout {
    let counts_base = MEM_BASE;
    let data_base = counts_base + NUCLIDE_COUNTS.len() as i64;
    let result_base = data_base + p.data_len;
    MemLayout { counts_base, data_base, result_base }
}

/// Builds the RSBench workload.
///
/// ```
/// use workloads::{eval, rsbench, Grid, RunSpec};
///
/// let params = rsbench::Params { num_tasks: 64, num_warps: 1, ..Default::default() };
/// let w = rsbench::build(&params);
/// let grid = Grid::new(vec![RunSpec::of(w)]).axis("mode", ["baseline", "speculative"]);
/// let cells = eval::shared().run_grid(&grid).unwrap();
/// assert!(cells[1].metrics().cycles < cells[0].metrics().cycles);
/// ```
pub fn build(p: &Params) -> Workload {
    let l = layout(p);
    let mut b = FunctionBuilder::new("rsbench", FuncKind::Kernel, 0);
    b.predict_label("L1", None);
    let tl = begin_task_loop(&mut b, p.num_tasks);

    // ---- Prolog: pick a material and load its nuclide count -------------
    let h = emit_hash(&mut b, tl.task);
    let mat = b.bin(BinOp::Rem, h, NUCLIDE_COUNTS.len() as i64);
    let count_addr = b.bin(BinOp::Add, mat, l.counts_base);
    let count = b.load_global(count_addr);
    let acc = b.mov(0.0f64);
    let j = b.mov(0i64);
    let inner = b.block("L1");
    let epilog = b.block("epilog");
    b.jmp(inner);

    // ---- Inner loop: accumulate one nuclide's cross sections ------------
    b.switch_to(inner);
    b.mark_roi();
    // Gather one pole's data for this (material, nuclide) pair.
    let stride = b.bin(BinOp::Mul, mat, 131i64);
    let jj = b.bin(BinOp::Mul, j, 17i64);
    let mix = b.bin(BinOp::Add, stride, jj);
    let idx = b.bin(BinOp::Rem, mix, p.data_len);
    let addr = b.bin(BinOp::Add, idx, l.data_base);
    let pole = b.load_global(addr);
    // Multipole evaluation stand-in: real flops plus a work knob.
    let sq = b.bin(BinOp::Mul, pole, pole);
    let e = b.un(UnOp::Sqrt, sq);
    b.work(p.body_work);
    let contrib = b.bin(BinOp::Add, e, 0.5f64);
    b.bin_into(acc, BinOp::Add, acc, contrib);
    b.bin_into(j, BinOp::Add, j, 1i64);
    let more = b.bin(BinOp::Lt, j, count);
    b.br_div(more, inner, epilog);

    // ---- Epilog: post-processing and result store ------------------------
    b.switch_to(epilog);
    b.work(p.epilog_work);
    let slot = b.bin(BinOp::Add, tl.task, l.result_base);
    b.store_global(acc, slot);
    b.jmp(tl.fetch);

    let mut module = Module::new();
    module.add_function(b.finish());

    let mut launch = Launch::new("rsbench", p.num_warps);
    launch.seed = p.seed;
    let mem_len = (l.result_base + p.num_tasks) as usize;
    let mut mem = vec![Value::I64(0); mem_len];
    mem[QUEUE_ADDR as usize] = Value::I64(0);
    for (i, &c) in NUCLIDE_COUNTS.iter().enumerate() {
        mem[(l.counts_base as usize) + i] = Value::I64(c);
    }
    // Deterministic cross-section table (values in [0.5, 1.5)).
    let mut state = p.seed | 1;
    for i in 0..p.data_len as usize {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        mem[(l.data_base as usize) + i] = Value::F64(0.5 + unit);
    }
    launch.global_mem = mem;

    Workload {
        name: "rsbench",
        description: "A nuclear reactor simulation mini-application that optimizes Monte Carlo \
                      neutron transport. The main kernel has a loop with a divergent trip count \
                      (4..321 nuclides per material); thread coarsening increases work per thread.",
        pattern: DivergencePattern::LoopMerge,
        module,
        launch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pdom_vs_sr, speedup};

    fn small() -> Workload {
        let p = Params { num_tasks: 96, num_warps: 1, ..Params::default() };
        build(&p)
    }

    #[test]
    fn speculative_improves_efficiency_and_speed() {
        let w = small();
        let [base, sr] = pdom_vs_sr(w);
        assert!(
            sr.simt_efficiency() > base.simt_efficiency() + 0.1,
            "eff: {} -> {}",
            base.simt_efficiency(),
            sr.simt_efficiency()
        );
        assert!(speedup(&base, &sr) > 1.2, "speedup {}", speedup(&base, &sr));
    }

    #[test]
    fn baseline_efficiency_is_low() {
        // The 4..321 trip-count spread should leave the PDOM baseline well
        // under 50% efficiency, as in the paper's Figure 7.
        let w = small();
        let [base, _] = pdom_vs_sr(w);
        assert!(base.simt_efficiency() < 0.5, "baseline eff {}", base.simt_efficiency());
    }

    #[test]
    fn results_are_deterministic_across_runs() {
        let w = small();
        let [a_base, a_sr] = pdom_vs_sr(w.clone());
        let [b_base, b_sr] = pdom_vs_sr(w);
        assert_eq!(a_base.cycles, b_base.cycles);
        assert_eq!(a_sr.cycles, b_sr.cycles);
    }

    #[test]
    fn default_params_build_and_shrink() {
        let mut spec = crate::RunSpec::of(build(&Params::default()));
        spec.apply(&[("warps", "1")]).unwrap();
        assert_eq!(spec.workload.launch.num_warps, 1);
        simt_ir::assert_verified(&spec.workload.module);
    }
}
