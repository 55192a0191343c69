//! GPU-MCML — photon transport in turbid media (light dosimetry).
//!
//! Photons hop/drop/spin until roulette kills them: *hop* samples a step
//! length (logarithm), *drop* deposits weight into an absorption grid
//! (scatter store), *spin* resamples the direction (the expensive
//! trig-heavy part). Photon lifetimes vary enormously, so the photon loop
//! has strong trip-count divergence; the paper reports one of the largest
//! efficiency gains here.

use crate::common::{begin_task_loop, emit_hash, MEM_BASE, QUEUE_ADDR};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, UnOp, Value};
use simt_sim::Launch;

/// Tunable workload size.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of photons (tasks).
    pub num_photons: i64,
    /// Warps in the launch.
    pub num_warps: usize,
    /// Weight decay per step (survival factor).
    pub albedo: f64,
    /// Roulette: photons below this weight face termination.
    pub weight_floor: f64,
    /// Roulette survival probability below the floor.
    pub roulette_p: f64,
    /// Maximum steps per photon.
    pub max_steps: i64,
    /// Synthetic cycles of the spin (direction resampling).
    pub spin_work: u32,
    /// Absorption grid size.
    pub grid_len: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            num_photons: 512,
            num_warps: 4,
            albedo: 0.9,
            weight_floor: 0.12,
            roulette_p: 0.3,
            max_steps: 64,
            spin_work: 42,
            grid_len: 1024,
            seed: 0x5EED_0009,
        }
    }
}

/// Memory layout of the launch built by [`build`].
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    /// Base of the absorption grid.
    pub grid_base: i64,
    /// Base of the per-photon step-count output.
    pub result_base: i64,
}

/// Computes the memory layout for the given parameters.
pub fn layout(p: &Params) -> MemLayout {
    let grid_base = MEM_BASE;
    let result_base = grid_base + p.grid_len;
    MemLayout { grid_base, result_base }
}

/// Builds the GPU-MCML workload.
pub fn build(p: &Params) -> Workload {
    let l = layout(p);
    let mut b = FunctionBuilder::new("gpumcml", FuncKind::Kernel, 0);
    b.predict_label("hop", None);
    let tl = begin_task_loop(&mut b, p.num_photons);

    // ---- Photon setup ---------------------------------------------------------
    let h = emit_hash(&mut b, tl.task);
    let pos = b.bin(BinOp::And, h, 0x3FF_i64);
    let weight = b.mov(1.0f64);
    let step = b.mov(0i64);
    let hop = b.block("hop");
    let roulette = b.block("roulette");
    let dead = b.block("dead");
    b.jmp(hop);

    // ---- Hop + drop + spin: one photon step -------------------------------------
    b.switch_to(hop);
    b.mark_roi();
    // Hop: step length.
    let u = b.rng_unit();
    let lg = b.un(UnOp::Log, u);
    let s = b.un(UnOp::Neg, lg);
    // Drop: deposit (1 - albedo) * weight into the grid.
    let dep = b.bin(BinOp::Mul, weight, 1.0 - p.albedo);
    let cell0 = b.bin(BinOp::Mul, pos, 17i64);
    let cell1 = b.bin(BinOp::Add, cell0, step);
    let cell = b.bin(BinOp::Rem, cell1, p.grid_len);
    let caddr = b.bin(BinOp::Add, cell, l.grid_base);
    // Atomic deposit: photons from different warps share grid cells.
    b.atomic_add(caddr, dep);
    let w2 = b.bin(BinOp::Mul, weight, p.albedo);
    b.mov_into(weight, w2);
    // Spin: direction resampling (expensive trig).
    b.work(p.spin_work);
    let sv = b.bin(BinOp::Mul, s, 0.5f64);
    let _cos = b.un(UnOp::Sqrt, sv);
    b.bin_into(step, BinOp::Add, step, 1i64);
    // Continue while weight above the floor and under the cap.
    let low = b.bin(BinOp::Lt, weight, p.weight_floor);
    let capped = b.bin(BinOp::Ge, step, p.max_steps);
    let must_check = b.bin(BinOp::Or, low, capped);
    let keep_flying = b.bin(BinOp::Eq, must_check, 0i64);
    b.br_div(keep_flying, hop, roulette);

    // ---- Roulette ---------------------------------------------------------------
    b.switch_to(roulette);
    let r = b.rng_unit();
    let survive0 = b.bin(BinOp::Lt, r, p.roulette_p);
    let under_cap = b.bin(BinOp::Lt, step, p.max_steps);
    let survive = b.bin(BinOp::And, survive0, under_cap);
    // Surviving photons get their weight boosted (unbiased estimator).
    let boosted = b.bin(BinOp::Div, weight, p.roulette_p);
    let wnew = b.sel(survive, boosted, weight);
    b.mov_into(weight, wnew);
    b.br_div(survive, hop, dead);

    b.switch_to(dead);
    let slot = b.bin(BinOp::Add, tl.task, l.result_base);
    b.store_global(step, slot);
    b.jmp(tl.fetch);

    let mut module = Module::new();
    module.add_function(b.finish());

    let mut launch = Launch::new("gpumcml", p.num_warps);
    launch.seed = p.seed;
    let mem_len = (l.result_base + p.num_photons) as usize;
    let mut mem = vec![Value::I64(0); mem_len];
    mem[QUEUE_ADDR as usize] = Value::I64(0);
    for i in 0..p.grid_len as usize {
        mem[(l.grid_base as usize) + i] = Value::F64(0.0);
    }
    launch.global_mem = mem;

    Workload {
        name: "gpu-mcml",
        description: "Simulates photon transport in turbid media (light dosimetry). Hop/drop/\
                      spin steps repeat until roulette terminates the photon; lifetimes vary \
                      enormously, giving strong loop trip count divergence.",
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
        build(&Params { num_photons: 96, num_warps: 1, ..Params::default() })
    }

    #[test]
    fn sr_substantially_improves_efficiency() {
        let [base, sr] = pdom_vs_sr(small());
        assert!(
            sr.simt_efficiency() > base.simt_efficiency() + 0.1,
            "eff: {} -> {}",
            base.simt_efficiency(),
            sr.simt_efficiency()
        );
    }

    #[test]
    fn absorption_grid_accumulates_weight() {
        let w = small();
        let mem = baseline_mem(&w);
        let p = Params { num_photons: 96, num_warps: 1, ..Params::default() };
        let l = layout(&p);
        let total: f64 =
            (0..p.grid_len as usize).map(|i| mem[(l.grid_base as usize) + i].as_f64()).sum();
        assert!(total > 1.0, "deposited weight {total}");
    }
}
