//! MCB — LLNL's Monte Carlo Benchmark (simplified heuristic transport).
//!
//! Iteration-Delay shape: each particle takes a random number of flight
//! segments; on a fraction of segments it suffers a *collision*, whose
//! physics (cross-section evaluation, direction resampling) is the
//! expensive common code. Under PDOM the collision block executes with
//! whatever sub-mask happened to collide this segment; the annotation
//! collects colliding threads across segments instead.

use crate::common::{begin_task_loop, emit_hash, MEM_BASE, QUEUE_ADDR};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, UnOp, Value};
use simt_sim::Launch;

/// Tunable workload size.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of particles (tasks).
    pub num_particles: i64,
    /// Warps in the launch.
    pub num_warps: usize,
    /// Probability a segment ends in a collision.
    pub collision_p: f64,
    /// Probability the particle is absorbed after any segment.
    pub absorb_p: f64,
    /// Maximum segments per particle.
    pub max_segments: i64,
    /// Synthetic cycles of collision physics (the expensive block).
    pub collision_work: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            num_particles: 512,
            num_warps: 4,
            collision_p: 0.3,
            absorb_p: 0.06,
            max_segments: 48,
            collision_work: 55,
            seed: 0x5EED_0003,
        }
    }
}

/// Memory layout of the launch built by [`build`].
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    /// Base of the per-particle tally output.
    pub result_base: i64,
}

/// Computes the memory layout for the given parameters.
pub fn layout(_p: &Params) -> MemLayout {
    MemLayout { result_base: MEM_BASE }
}

/// Builds the MCB workload.
pub fn build(p: &Params) -> Workload {
    let l = layout(p);
    let mut b = FunctionBuilder::new("mcb", FuncKind::Kernel, 0);
    b.predict_label("collision", None);
    let tl = begin_task_loop(&mut b, p.num_particles);

    // ---- Per-particle setup ----------------------------------------------
    let h = emit_hash(&mut b, tl.task);
    let energy = b.bin(BinOp::And, h, 0xFF_i64);
    let tally = b.mov(0.0f64);
    let seg = b.mov(0i64);
    let segment = b.block("segment");
    let collision = b.block("collision");
    let post = b.block("post_collision");
    let tally_out = b.block("tally_out");
    b.jmp(segment);

    // ---- Segment loop: free flight, then maybe collide --------------------
    b.switch_to(segment);
    // Free-flight distance sample (cheap).
    let u = b.rng_unit();
    let d = b.un(UnOp::Log, u);
    let dist = b.un(UnOp::Neg, d);
    b.bin_into(tally, BinOp::Add, tally, dist);
    let c = b.rng_unit();
    let collide = b.bin(BinOp::Lt, c, p.collision_p);
    b.br_div(collide, collision, post);

    // ---- Collision physics: the expensive common code ---------------------
    b.switch_to(collision);
    b.mark_roi();
    b.work(p.collision_work);
    let e2 = b.bin(BinOp::Mul, energy, 7i64);
    let e3 = b.bin(BinOp::Rem, e2, 251i64);
    let ef = b.un(UnOp::ItoF, e3);
    let scat = b.un(UnOp::Sqrt, ef);
    b.bin_into(tally, BinOp::Add, tally, scat);
    b.jmp(post);

    // ---- Segment epilog: absorption roulette + cap -------------------------
    b.switch_to(post);
    b.bin_into(seg, BinOp::Add, seg, 1i64);
    let a = b.rng_unit();
    let survive = b.bin(BinOp::Ge, a, p.absorb_p);
    let in_cap = b.bin(BinOp::Lt, seg, p.max_segments);
    let go_on = b.bin(BinOp::And, survive, in_cap);
    b.br_div(go_on, segment, tally_out);

    b.switch_to(tally_out);
    let slot = b.bin(BinOp::Add, tl.task, l.result_base);
    b.store_global(tally, slot);
    b.jmp(tl.fetch);

    let mut module = Module::new();
    module.add_function(b.finish());

    let mut launch = Launch::new("mcb", p.num_warps);
    launch.seed = p.seed;
    let mem_len = (l.result_base + p.num_particles) as usize;
    let mut mem = vec![Value::I64(0); mem_len];
    mem[QUEUE_ADDR as usize] = Value::I64(0);
    launch.global_mem = mem;

    Workload {
        name: "mcb",
        description: "A Monte Carlo benchmark used to test performance of parallel \
                      architectures; simulates a simplified variant of the heuristic transport \
                      equation. A divergent collision branch inside the segment loop holds the \
                      expensive common code.",
        pattern: DivergencePattern::IterationDelay,
        module,
        launch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pdom_vs_sr, speedup};

    fn small() -> Workload {
        build(&Params { num_particles: 96, num_warps: 1, ..Params::default() })
    }

    #[test]
    fn collision_block_converges_under_sr() {
        let [base, sr] = pdom_vs_sr(small());
        assert!(
            sr.roi_simt_efficiency() > base.roi_simt_efficiency() + 0.2,
            "roi eff: {} -> {}",
            base.roi_simt_efficiency(),
            sr.roi_simt_efficiency()
        );
    }

    #[test]
    fn baseline_collision_mask_is_thin() {
        // ~30% of lanes collide per segment: the PDOM collision mask sits
        // around the collision probability.
        let [base, _] = pdom_vs_sr(small());
        assert!(base.roi_simt_efficiency() < 0.55, "baseline roi {}", base.roi_simt_efficiency());
    }

    #[test]
    fn sr_does_not_slow_down_badly() {
        // Iteration Delay trades serialized prolog/epilog for collision
        // convergence; on this configuration it should at worst be mildly
        // slower and typically faster.
        let [base, sr] = pdom_vs_sr(small());
        assert!(speedup(&base, &sr) > 0.9, "speedup {}", speedup(&base, &sr));
    }
}
