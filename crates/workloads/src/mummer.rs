//! MUMmer — suffix-tree sequence alignment for genome matching.
//!
//! Each query walks the reference as long as characters match; query
//! lengths and match depths vary per read, so the matching loop has
//! divergent trip counts. The inner body is a pair of dependent loads
//! (reference node + query character) plus comparison logic. Coarsened
//! over queries; Loop-Merge annotation at the matching loop.

use crate::common::{begin_task_loop, emit_hash, MEM_BASE, QUEUE_ADDR};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, Value};
use simt_sim::Launch;

/// Tunable workload size.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of queries (tasks).
    pub num_queries: i64,
    /// Warps in the launch.
    pub num_warps: usize,
    /// Reference sequence length.
    pub ref_len: i64,
    /// Maximum query length (actual lengths vary 4..max).
    pub max_query_len: i64,
    /// Synthetic cycles of per-character scoring.
    pub score_work: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            num_queries: 512,
            num_warps: 4,
            ref_len: 4096,
            max_query_len: 72,
            score_work: 18,
            seed: 0x5EED_0006,
        }
    }
}

/// Memory layout of the launch built by [`build`].
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    /// Base of the reference sequence (one symbol per cell).
    pub ref_base: i64,
    /// Base of the per-query match-length output.
    pub result_base: i64,
}

/// Computes the memory layout for the given parameters.
pub fn layout(p: &Params) -> MemLayout {
    let ref_base = MEM_BASE;
    let result_base = ref_base + p.ref_len;
    MemLayout { ref_base, result_base }
}

/// Builds the MUMmer workload.
pub fn build(p: &Params) -> Workload {
    let l = layout(p);
    let mut b = FunctionBuilder::new("mummer", FuncKind::Kernel, 0);
    b.predict_label("match_loop", None);
    let tl = begin_task_loop(&mut b, p.num_queries);

    // ---- Prolog: derive query start, length, and seed character ----------
    let h = emit_hash(&mut b, tl.task);
    // Quadratically-skewed query lengths (real read sets mix short reads
    // with long repeats): mean well below the max, heavy tail.
    let qlen0 = b.bin(BinOp::Rem, h, p.max_query_len - 4);
    let qsq = b.bin(BinOp::Mul, qlen0, qlen0);
    let qskew = b.bin(BinOp::Div, qsq, p.max_query_len - 4);
    let qlen = b.bin(BinOp::Add, qskew, 4i64);
    let start = b.bin(BinOp::Rem, h, p.ref_len);
    let depth = b.mov(0i64);
    let matched = b.mov(0i64);
    let match_loop = b.block("match_loop");
    let report = b.block("report");
    b.jmp(match_loop);

    // ---- Matching loop -----------------------------------------------------
    b.switch_to(match_loop);
    b.mark_roi();
    // Reference symbol at the walk position.
    let rpos0 = b.bin(BinOp::Add, start, depth);
    let rpos = b.bin(BinOp::Rem, rpos0, p.ref_len);
    let raddr = b.bin(BinOp::Add, rpos, l.ref_base);
    let rsym = b.load_global(raddr);
    // Query symbol derived from the task hash stream (deterministic).
    let qmix0 = b.bin(BinOp::Mul, depth, 1099087573i64);
    let qmix1 = b.bin(BinOp::Xor, qmix0, h);
    let qsym = b.bin(BinOp::And, qmix1, 3i64);
    b.work(p.score_work);
    let eq = b.bin(BinOp::Eq, rsym, qsym);
    b.bin_into(matched, BinOp::Add, matched, eq);
    b.bin_into(depth, BinOp::Add, depth, 1i64);
    // Walk the full query (suffix-tree descent visits every character).
    let go_on = b.bin(BinOp::Lt, depth, qlen);
    b.br_div(go_on, match_loop, report);

    // ---- Epilog: report the match length -----------------------------------
    b.switch_to(report);
    let slot = b.bin(BinOp::Add, tl.task, l.result_base);
    b.store_global(matched, slot);
    b.jmp(tl.fetch);

    let mut module = Module::new();
    module.add_function(b.finish());

    let mut launch = Launch::new("mummer", p.num_warps);
    launch.seed = p.seed;
    let mem_len = (l.result_base + p.num_queries) as usize;
    let mut mem = vec![Value::I64(0); mem_len];
    mem[QUEUE_ADDR as usize] = Value::I64(0);
    // Reference over a 4-symbol alphabet (ACGT).
    let mut state = p.seed | 1;
    for i in 0..p.ref_len as usize {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        mem[(l.ref_base as usize) + i] = Value::I64(((state >> 33) & 3) as i64);
    }
    launch.global_mem = mem;

    Workload {
        name: "mummer",
        description: "A parallel sequence alignment kernel used for genome sequencing. \
                      Per-query match depths vary, giving the matching loop a divergent trip \
                      count.",
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
        build(&Params { num_queries: 96, num_warps: 1, ..Params::default() })
    }

    #[test]
    fn sr_improves_match_loop_convergence() {
        let [base, sr] = pdom_vs_sr(small());
        assert!(
            sr.roi_simt_efficiency() > base.roi_simt_efficiency(),
            "roi eff: {} -> {}",
            base.roi_simt_efficiency(),
            sr.roi_simt_efficiency()
        );
    }

    #[test]
    fn match_lengths_are_plausible() {
        let w = small();
        let mem = baseline_mem(&w);
        let p = Params { num_queries: 96, num_warps: 1, ..Params::default() };
        let l = layout(&p);
        for t in 0..96usize {
            let v = mem[(l.result_base as usize) + t].as_i64();
            assert!((0..=p.max_query_len).contains(&v), "task {t}: matched {v}");
        }
    }
}
