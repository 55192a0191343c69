//! MC-GPU — Monte Carlo x-ray transport for CT imaging.
//!
//! Photon histories step through the anatomy; at each interaction point a
//! random channel is chosen: photoelectric absorption (terminates),
//! Compton scattering (the expensive common code: Klein–Nishina sampling),
//! or Rayleigh scattering (cheap). Iteration-Delay on the Compton block
//! collects scattering photons across steps.

use crate::common::{begin_task_loop, emit_hash, MEM_BASE, QUEUE_ADDR};
use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, UnOp, Value};
use simt_sim::Launch;

/// Tunable workload size.
#[derive(Clone, Debug)]
pub struct Params {
    /// Number of photon histories (tasks).
    pub num_photons: i64,
    /// Warps in the launch.
    pub num_warps: usize,
    /// Probability of photoelectric absorption (terminates the photon).
    pub absorb_p: f64,
    /// Probability of Compton scattering (expensive), conditioned on
    /// not absorbing.
    pub compton_p: f64,
    /// Maximum interactions per photon.
    pub max_steps: i64,
    /// Synthetic cycles for Compton sampling.
    pub compton_work: u32,
    /// Synthetic cycles for Rayleigh sampling (cheap path).
    pub rayleigh_work: u32,
    /// Voxel grid size (scatter-store target).
    pub grid_len: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            num_photons: 512,
            num_warps: 4,
            absorb_p: 0.08,
            compton_p: 0.45,
            max_steps: 40,
            compton_work: 95,
            rayleigh_work: 6,
            grid_len: 1024,
            seed: 0x5EED_0005,
        }
    }
}

/// Memory layout of the launch built by [`build`].
#[derive(Clone, Copy, Debug)]
pub struct MemLayout {
    /// Base of the voxel dose grid.
    pub grid_base: i64,
    /// Base of the per-photon path-length output.
    pub result_base: i64,
}

/// Computes the memory layout for the given parameters.
pub fn layout(p: &Params) -> MemLayout {
    let grid_base = MEM_BASE;
    let result_base = grid_base + p.grid_len;
    MemLayout { grid_base, result_base }
}

/// Builds the MC-GPU workload.
pub fn build(p: &Params) -> Workload {
    let l = layout(p);
    let mut b = FunctionBuilder::new("mcgpu", FuncKind::Kernel, 0);
    b.predict_label("compton", None);
    let tl = begin_task_loop(&mut b, p.num_photons);

    let h = emit_hash(&mut b, tl.task);
    let pos = b.bin(BinOp::And, h, 0x3FF_i64);
    let weight = b.mov(1.0f64);
    let step = b.mov(0i64);
    let fly = b.block("fly");
    let choice = b.block("channel_choice");
    let compton = b.block("compton");
    let rayleigh = b.block("rayleigh");
    let interact_done = b.block("interact_done");
    let absorb = b.block("absorb");
    b.jmp(fly);

    // ---- Flight + channel selection ---------------------------------------
    b.switch_to(fly);
    let u = b.rng_unit();
    let logu = b.un(UnOp::Log, u);
    let path = b.un(UnOp::Neg, logu);
    // Deposit dose along the way (scatter store into the voxel grid).
    let voxel0 = b.bin(BinOp::Mul, pos, 13i64);
    let voxel1 = b.bin(BinOp::Add, voxel0, step);
    let voxel = b.bin(BinOp::Rem, voxel1, p.grid_len);
    let vaddr = b.bin(BinOp::Add, voxel, l.grid_base);
    // Atomic dose deposit: voxels are shared across photons and warps.
    b.atomic_add(vaddr, path);
    let c0 = b.rng_unit();
    let absorbed = b.bin(BinOp::Lt, c0, p.absorb_p);
    b.br_div(absorbed, absorb, choice);

    // ---- Channel selection: Compton vs Rayleigh ---------------------------
    b.switch_to(choice);
    let c1 = b.rng_unit();
    let is_compton = b.bin(BinOp::Lt, c1, p.compton_p);
    b.br_div(is_compton, compton, rayleigh);

    // ---- Compton: the expensive common code -------------------------------
    b.switch_to(compton);
    b.mark_roi();
    b.work(p.compton_work);
    let w2 = b.bin(BinOp::Mul, weight, 0.96f64);
    b.mov_into(weight, w2);
    b.jmp(interact_done);

    // ---- Rayleigh: the cheap path ------------------------------------------
    b.switch_to(rayleigh);
    b.work(p.rayleigh_work);
    b.jmp(interact_done);

    // ---- Step epilog --------------------------------------------------------
    b.switch_to(interact_done);
    b.bin_into(step, BinOp::Add, step, 1i64);
    let in_cap = b.bin(BinOp::Lt, step, p.max_steps);
    b.br_div(in_cap, fly, absorb);

    b.switch_to(absorb);
    let slot = b.bin(BinOp::Add, tl.task, l.result_base);
    b.store_global(weight, slot);
    b.jmp(tl.fetch);

    let mut module = Module::new();
    module.add_function(b.finish());

    let mut launch = Launch::new("mcgpu", p.num_warps);
    launch.seed = p.seed;
    let mem_len = (l.result_base + p.num_photons) as usize;
    let mut mem = vec![Value::I64(0); mem_len];
    mem[QUEUE_ADDR as usize] = Value::I64(0);
    launch.global_mem = mem;

    Workload {
        name: "mc-gpu",
        description: "A GPU-accelerated Monte Carlo simulation that models radiation transport \
                      of x-rays for CT scans of the human anatomy. The Compton-scatter channel \
                      is the expensive common code inside the interaction loop.",
        pattern: DivergencePattern::IterationDelay,
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
    fn compton_converges_under_sr() {
        let [base, sr] = pdom_vs_sr(small());
        assert!(
            sr.roi_simt_efficiency() > base.roi_simt_efficiency() + 0.15,
            "roi eff: {} -> {}",
            base.roi_simt_efficiency(),
            sr.roi_simt_efficiency()
        );
    }

    #[test]
    fn dose_grid_is_written() {
        let w = small();
        let mem = baseline_mem(&w);
        let l = layout(&Params { num_photons: 96, num_warps: 1, ..Params::default() });
        let touched =
            (0..1024).filter(|i| mem[(l.grid_base as usize) + i] != Value::I64(0)).count();
        assert!(touched > 100, "dose grid barely touched: {touched}");
    }
}
