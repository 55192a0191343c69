//! XSBench — macroscopic cross-section lookup, memory-bound variant.
//!
//! Simulates the same problem as RSBench but is bound by memory: the
//! per-nuclide body is dominated by scattered gather loads, and — the
//! property the paper highlights — the *epilog/prolog is expensive too*
//! (the energy-grid binary search that locates the lookup window). That
//! makes full reconvergence suboptimal: refilling an idle thread costs a
//! serialized grid search, so XSBench peaks at a partial soft-barrier
//! threshold in Figure 9 rather than at full convergence.

use crate::common::{begin_task_loop, emit_hash, MEM_BASE, QUEUE_ADDR};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, Value};
use simt_sim::Launch;

/// Per-material nuclide counts (same distribution source as RSBench).
pub const NUCLIDE_COUNTS: [i64; 12] = [321, 96, 34, 22, 20, 21, 12, 11, 10, 9, 16, 45];

/// Tunable workload size.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of lookup tasks.
    pub num_tasks: i64,
    /// Warps in the launch.
    pub num_warps: usize,
    /// Size of the unionized energy grid (gather table).
    pub grid_len: i64,
    /// Iterations of the energy-grid binary search in the prolog — the
    /// expensive task-refill cost.
    pub search_steps: i64,
    /// Synthetic compute per nuclide (small: memory-bound).
    pub body_work: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            num_tasks: 512,
            num_warps: 4,
            grid_len: 4096,
            search_steps: 12,
            body_work: 4,
            seed: 0x5EED_0002,
        }
    }
}

/// Memory layout of the launch built by [`build`].
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    /// Base of the material → nuclide-count table.
    pub counts_base: i64,
    /// Base of the unionized energy grid.
    pub grid_base: i64,
    /// Base of the per-task result array.
    pub result_base: i64,
}

/// Computes the memory layout for the given parameters.
pub fn layout(p: &Params) -> MemLayout {
    let counts_base = MEM_BASE;
    let grid_base = counts_base + NUCLIDE_COUNTS.len() as i64;
    let result_base = grid_base + p.grid_len;
    MemLayout { counts_base, grid_base, result_base }
}

/// Builds the XSBench workload.
pub fn build(p: &Params) -> Workload {
    let l = layout(p);
    let mut b = FunctionBuilder::new("xsbench", FuncKind::Kernel, 0);
    b.predict_label("L1", None);
    let tl = begin_task_loop(&mut b, p.num_tasks);

    // ---- Prolog: energy sample + expensive binary search on the grid ----
    let h = emit_hash(&mut b, tl.task);
    let mat = b.bin(BinOp::Rem, h, NUCLIDE_COUNTS.len() as i64);
    let count_addr = b.bin(BinOp::Add, mat, l.counts_base);
    let count = b.load_global(count_addr);

    // Binary search: `search_steps` probes of the energy grid, each a
    // dependent scattered load — the expensive refill the paper calls out.
    let lo = b.mov(0i64);
    let hi = b.mov(p.grid_len - 1);
    let step = b.mov(0i64);
    let search = b.block("grid_search");
    let body_pre = b.anon_block();
    b.jmp(search);
    b.switch_to(search);
    let mid0 = b.bin(BinOp::Add, lo, hi);
    let mid = b.bin(BinOp::Shr, mid0, 1i64);
    let probe_addr = b.bin(BinOp::Add, mid, l.grid_base);
    let probe = b.load_global(probe_addr);
    // Compare probe against the (hashed) target energy and narrow.
    let target = b.bin(BinOp::And, h, 0xFFFF_i64);
    let below = b.bin(BinOp::Lt, probe, target);
    let mid_plus = b.bin(BinOp::Add, mid, 1i64);
    let new_lo = b.sel(below, mid_plus, lo);
    let new_hi = b.sel(below, hi, mid);
    b.mov_into(lo, new_lo);
    b.mov_into(hi, new_hi);
    b.bin_into(step, BinOp::Add, step, 1i64);
    let more_search = b.bin(BinOp::Lt, step, p.search_steps);
    b.br(more_search, search, body_pre);

    b.switch_to(body_pre);
    let acc = b.mov(0i64);
    let j = b.mov(0i64);
    let inner = b.block("L1");
    let epilog = b.block("epilog");
    b.jmp(inner);

    // ---- Inner loop: per-nuclide gather-dominated accumulation ----------
    b.switch_to(inner);
    b.mark_roi();
    let base_idx = b.bin(BinOp::Mul, j, 37i64);
    let e_idx = b.bin(BinOp::Add, base_idx, lo);
    let idx0 = b.bin(BinOp::Rem, e_idx, p.grid_len);
    let a0 = b.bin(BinOp::Add, idx0, l.grid_base);
    let v0 = b.load_global(a0);
    let idx1 = b.bin(BinOp::Xor, idx0, 0x155_i64);
    let idx1m = b.bin(BinOp::Rem, idx1, p.grid_len);
    let a1 = b.bin(BinOp::Add, idx1m, l.grid_base);
    let v1 = b.load_global(a1);
    b.work(p.body_work);
    let s = b.bin(BinOp::Add, v0, v1);
    b.bin_into(acc, BinOp::Add, acc, s);
    b.bin_into(j, BinOp::Add, j, 1i64);
    let more = b.bin(BinOp::Lt, j, count);
    b.br_div(more, inner, epilog);

    // ---- Epilog -----------------------------------------------------------
    b.switch_to(epilog);
    let slot = b.bin(BinOp::Add, tl.task, l.result_base);
    b.store_global(acc, slot);
    b.jmp(tl.fetch);

    let mut module = Module::new();
    module.add_function(b.finish());

    let mut launch = Launch::new("xsbench", p.num_warps);
    launch.seed = p.seed;
    let mem_len = (l.result_base + p.num_tasks) as usize;
    let mut mem = vec![Value::I64(0); mem_len];
    mem[QUEUE_ADDR as usize] = Value::I64(0);
    for (i, &c) in NUCLIDE_COUNTS.iter().enumerate() {
        mem[(l.counts_base as usize) + i] = Value::I64(c);
    }
    // Sorted energy grid (what a binary search expects).
    for i in 0..p.grid_len as usize {
        mem[(l.grid_base as usize) + i] = Value::I64((i as i64) * 0xFFFF / p.grid_len);
    }
    launch.global_mem = mem;

    Workload {
        name: "xsbench",
        description: "Simulates a problem similar to RSBench, but is memory bound rather than \
                      compute bound. The nested divergent loop has both an expensive inner loop \
                      and an expensive epilog (the energy-grid search that refills a thread).",
        pattern: DivergencePattern::LoopMerge,
        module,
        launch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, pdom_vs_sr, speedup, Grid, RunSpec};

    fn small() -> Workload {
        build(&Params { num_tasks: 96, num_warps: 1, ..Params::default() })
    }

    #[test]
    fn speculative_improves_efficiency() {
        let [base, sr] = pdom_vs_sr(small());
        assert!(
            sr.simt_efficiency() > base.simt_efficiency(),
            "eff: {} -> {}",
            base.simt_efficiency(),
            sr.simt_efficiency()
        );
    }

    #[test]
    fn soft_thresholds_run_and_preserve_results() {
        let grid = Grid::new(vec![RunSpec::of(small())])
            .axis("threshold", ["4", "16", "28"])
            .axis("mode", ["baseline", "speculative"]);
        for cell in eval::shared().run_grid(&grid).expect("each threshold preserves results") {
            assert!(cell.metrics().cycles > 0, "{}", cell.name());
        }
    }

    #[test]
    fn memory_bound_shape() {
        // The grid loads dominate: the inner body issues more memory cost
        // than compute. Indirectly visible as lower speedup potential than
        // rsbench, but results must still be exact.
        let [base, sr] = pdom_vs_sr(small());
        assert!(speedup(&base, &sr) > 0.8, "speedup collapsed: {}", speedup(&base, &sr));
    }
}
