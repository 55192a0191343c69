//! OptiX-style ray traversal.
//!
//! Models the divergence profile of a BVH ray tracer built on NVIDIA's
//! OptiX engine (§5.4 notes several automatically-detected candidates live
//! in OptiX workloads): a traversal loop alternates between cheap internal
//! node steps and expensive leaf intersections, chosen data-dependently
//! per ray. Iteration-Delay on the leaf-intersection block collects rays
//! across traversal steps; rays terminate after a variable number of
//! steps (trip-count divergence on top).

use crate::common::{begin_task_loop, emit_hash, MEM_BASE, QUEUE_ADDR};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, Value};
use simt_sim::Launch;

/// Tunable workload size.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of rays (tasks).
    pub num_rays: i64,
    /// Warps in the launch.
    pub num_warps: usize,
    /// Probability a traversal step reaches a leaf (expensive intersect).
    pub leaf_p: f64,
    /// Probability the ray terminates after a leaf test.
    pub hit_p: f64,
    /// Maximum traversal steps.
    pub max_steps: i64,
    /// Synthetic cycles of a leaf intersection (triangle tests).
    pub leaf_work: u32,
    /// Synthetic cycles of an internal node step (AABB slab test).
    pub node_work: u32,
    /// BVH node table size.
    pub bvh_len: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            num_rays: 512,
            num_warps: 4,
            leaf_p: 0.35,
            hit_p: 0.10,
            max_steps: 40,
            leaf_work: 85,
            node_work: 4,
            bvh_len: 2048,
            seed: 0x5EED_0008,
        }
    }
}

/// Memory layout of the launch built by [`build`].
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    /// Base of the BVH node table.
    pub bvh_base: i64,
    /// Base of the per-ray hit output.
    pub result_base: i64,
}

/// Computes the memory layout for the given parameters.
pub fn layout(p: &Params) -> MemLayout {
    let bvh_base = MEM_BASE;
    let result_base = bvh_base + p.bvh_len;
    MemLayout { bvh_base, result_base }
}

/// Builds the OptiX-style workload.
pub fn build(p: &Params) -> Workload {
    let l = layout(p);
    let mut b = FunctionBuilder::new("optix", FuncKind::Kernel, 0);
    b.predict_label("leaf", None);
    let tl = begin_task_loop(&mut b, p.num_rays);

    // ---- Ray setup -----------------------------------------------------------
    let h = emit_hash(&mut b, tl.task);
    let node = b.bin(BinOp::And, h, p.bvh_len - 1);
    let t_best = b.mov(0.0f64);
    let step = b.mov(0i64);
    let traverse = b.block("traverse");
    let leaf = b.block("leaf");
    let node_step = b.block("node_step");
    let advance = b.block("advance");
    let finish = b.block("finish");
    b.jmp(traverse);

    // ---- Traversal: leaf or internal node? -----------------------------------
    b.switch_to(traverse);
    let naddr = b.bin(BinOp::Add, node, l.bvh_base);
    let ndata = b.load_global(naddr);
    let r = b.rng_unit();
    let is_leaf = b.bin(BinOp::Lt, r, p.leaf_p);
    b.br_div(is_leaf, leaf, node_step);

    // ---- Leaf intersection: the expensive common code --------------------------
    b.switch_to(leaf);
    b.mark_roi();
    b.work(p.leaf_work);
    let tf = b.bin(BinOp::Mul, ndata, 0.25f64);
    b.bin_into(t_best, BinOp::Add, t_best, tf);
    b.jmp(advance);

    // ---- Internal node: cheap slab test -----------------------------------------
    b.switch_to(node_step);
    b.work(p.node_work);
    let child = b.bin(BinOp::Mul, node, 2i64);
    let child1 = b.bin(BinOp::Add, child, 1i64);
    let wrapped = b.bin(BinOp::Rem, child1, p.bvh_len);
    b.mov_into(node, wrapped);
    b.jmp(advance);

    // ---- Step epilog: termination tests -------------------------------------------
    b.switch_to(advance);
    b.bin_into(step, BinOp::Add, step, 1i64);
    let hr = b.rng_unit();
    let hit = b.bin(BinOp::Lt, hr, p.hit_p);
    let capped = b.bin(BinOp::Ge, step, p.max_steps);
    let stop = b.bin(BinOp::Or, hit, capped);
    let go_on = b.bin(BinOp::Eq, stop, 0i64);
    b.br_div(go_on, traverse, finish);

    b.switch_to(finish);
    let slot = b.bin(BinOp::Add, tl.task, l.result_base);
    b.store_global(t_best, slot);
    b.jmp(tl.fetch);

    let mut module = Module::new();
    module.add_function(b.finish());

    let mut launch = Launch::new("optix", p.num_warps);
    launch.seed = p.seed;
    let mem_len = (l.result_base + p.num_rays) as usize;
    let mut mem = vec![Value::I64(0); mem_len];
    mem[QUEUE_ADDR as usize] = Value::I64(0);
    let mut state = p.seed | 1;
    for i in 0..p.bvh_len as usize {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        mem[(l.bvh_base as usize) + i] = Value::F64(unit * 8.0);
    }
    launch.global_mem = mem;

    Workload {
        name: "optix",
        description: "NVIDIA's ray tracing engine optimized for high ray-tracing performance \
                      on parallel architectures. Traversal alternates cheap node steps with \
                      expensive leaf intersections, chosen divergently per ray.",
        pattern: DivergencePattern::IterationDelay,
        module,
        launch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdom_vs_sr;

    fn small() -> Workload {
        build(&Params { num_rays: 96, num_warps: 1, ..Params::default() })
    }

    #[test]
    fn leaf_intersections_converge_under_sr() {
        let [base, sr] = pdom_vs_sr(small());
        assert!(
            sr.roi_simt_efficiency() > base.roi_simt_efficiency() + 0.15,
            "roi eff: {} -> {}",
            base.roi_simt_efficiency(),
            sr.roi_simt_efficiency()
        );
    }

    #[test]
    fn node_steps_remain_cheap_relative_to_leaves() {
        let p = Params::default();
        assert!(p.leaf_work > 4 * p.node_work, "shape parameter sanity");
    }
}
