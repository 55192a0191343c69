//! PathTracer — Monte Carlo light transport in a Cornell box of spheres.
//!
//! Loop-trip-count divergence: each sample traces one or more bounces, and
//! Russian Roulette terminates paths randomly, so per-sample bounce counts
//! vary wildly. The bounce body (sphere intersection + BRDF sampling) is
//! expensive; fetching a new sample is *cheap* — which is why the paper
//! finds PathTracer fastest at full reconvergence in Figure 9 (threshold
//! at the warp width): idle lanes should be refilled immediately.

use crate::common::{begin_task_loop, emit_hash, MEM_BASE, QUEUE_ADDR};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, UnOp, Value};
use simt_sim::Launch;

/// Tunable workload size.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of samples (tasks).
    pub num_samples: i64,
    /// Warps in the launch.
    pub num_warps: usize,
    /// Russian-roulette continuation probability per bounce.
    pub continue_p: f64,
    /// Maximum bounces per path.
    pub max_bounces: i64,
    /// Synthetic cycles per intersection test (the expensive body).
    pub intersect_work: u32,
    /// Number of spheres in the scene table.
    pub num_spheres: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            num_samples: 512,
            num_warps: 4,
            continue_p: 0.72,
            max_bounces: 24,
            intersect_work: 48,
            num_spheres: 64,
            seed: 0x5EED_0004,
        }
    }
}

/// Memory layout of the launch built by [`build`].
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    /// Base of the sphere table.
    pub spheres_base: i64,
    /// Base of the per-sample radiance output.
    pub result_base: i64,
}

/// Computes the memory layout for the given parameters.
pub fn layout(p: &Params) -> MemLayout {
    let spheres_base = MEM_BASE;
    let result_base = spheres_base + p.num_spheres;
    MemLayout { spheres_base, result_base }
}

/// Builds the PathTracer workload.
pub fn build(p: &Params) -> Workload {
    let l = layout(p);
    let mut b = FunctionBuilder::new("pathtracer", FuncKind::Kernel, 0);
    b.predict_label("bounce", None);
    let tl = begin_task_loop(&mut b, p.num_samples);

    // ---- Prolog: camera-ray setup (cheap) --------------------------------
    let h = emit_hash(&mut b, tl.task);
    let radiance = b.mov(0.0f64);
    let depth = b.mov(0i64);
    let ray = b.bin(BinOp::And, h, 0x3FF_i64);
    let bounce = b.block("bounce");
    let shade = b.block("shade");
    b.jmp(bounce);

    // ---- Bounce loop: intersect scene + BRDF sample (expensive) ---------
    b.switch_to(bounce);
    b.mark_roi();
    // Nearest-sphere lookup: one gather plus heavy intersection math.
    let mix = b.bin(BinOp::Mul, ray, 29i64);
    let dmix = b.bin(BinOp::Add, mix, depth);
    let sid = b.bin(BinOp::Rem, dmix, p.num_spheres);
    let saddr = b.bin(BinOp::Add, sid, l.spheres_base);
    let sphere = b.load_global(saddr);
    b.work(p.intersect_work);
    let dot = b.bin(BinOp::Mul, sphere, 0.125f64);
    let root = b.un(UnOp::Sqrt, dot);
    b.bin_into(radiance, BinOp::Add, radiance, root);
    b.bin_into(depth, BinOp::Add, depth, 1i64);
    // Russian roulette + max-depth cutoff.
    let u = b.rng_unit();
    let alive = b.bin(BinOp::Lt, u, p.continue_p);
    let below_max = b.bin(BinOp::Lt, depth, p.max_bounces);
    let go_on = b.bin(BinOp::And, alive, below_max);
    b.br_div(go_on, bounce, shade);

    // ---- Epilog: accumulate radiance (cheap refill) ----------------------
    b.switch_to(shade);
    let slot = b.bin(BinOp::Add, tl.task, l.result_base);
    b.store_global(radiance, slot);
    b.jmp(tl.fetch);

    let mut module = Module::new();
    module.add_function(b.finish());

    let mut launch = Launch::new("pathtracer", p.num_warps);
    launch.seed = p.seed;
    let mem_len = (l.result_base + p.num_samples) as usize;
    let mut mem = vec![Value::I64(0); mem_len];
    mem[QUEUE_ADDR as usize] = Value::I64(0);
    let mut state = p.seed | 1;
    for i in 0..p.num_spheres as usize {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
        mem[(l.spheres_base as usize) + i] = Value::F64(unit * 4.0);
    }
    launch.global_mem = mem;

    Workload {
        name: "pathtracer",
        description: "A CUDA microbenchmark that renders a sample scene of spheres in a Cornell \
                      box. Russian Roulette randomly terminates paths, giving loop trip count \
                      divergence; refilling an idle thread with a new sample is cheap.",
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
        build(&Params { num_samples: 96, num_warps: 1, ..Params::default() })
    }

    #[test]
    fn speculative_improves_efficiency_and_speed() {
        let [base, sr] = pdom_vs_sr(small());
        assert!(
            sr.simt_efficiency() > base.simt_efficiency() + 0.1,
            "eff: {} -> {}",
            base.simt_efficiency(),
            sr.simt_efficiency()
        );
        assert!(speedup(&base, &sr) > 1.1, "speedup {}", speedup(&base, &sr));
    }

    #[test]
    fn roulette_produces_divergent_baseline() {
        let [base, _] = pdom_vs_sr(small());
        assert!(base.simt_efficiency() < 0.6, "baseline eff {}", base.simt_efficiency());
    }

    #[test]
    fn full_barrier_beats_low_threshold() {
        // PathTracer's Figure-9 shape: cheap refill means maximal
        // convergence wins; a tiny threshold (near-free-running) is worse.
        // Threshold 32, the warp width, is the full barrier.
        let grid = Grid::new(vec![RunSpec::of(small())]).axis("threshold", ["32", "2"]);
        let cells = eval::shared().run_grid(&grid).expect("both thresholds preserve results");
        let (full, low) = (cells[0].metrics().cycles, cells[1].metrics().cycles);
        assert!(full < low, "full {full} vs threshold-2 {low}");
    }
}
