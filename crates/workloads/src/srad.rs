//! SRAD — speckle-reducing anisotropic diffusion (Rodinia).
//!
//! Each lane diffuses one pixel over a fixed number of iterations. Per
//! iteration it reads a neighbor value, then takes a data-dependent
//! branch: ~30% of lanes land on the *clamp* path (the diffusion
//! coefficient left the stable range and the local Laplacian must be
//! recomputed before updating), the rest on the plain *diffuse* path.
//! Both paths then run the same expensive update tail with path-specific
//! coefficients — the unbalanced then/else shape SR cannot repair
//! (the lanes are on *different* paths, so no reconvergence schedule
//! de-duplicates the tail) but control-flow melding can. The `Predict`
//! annotation marks the clamp arm so the SR comparison arm has its best
//! shot at batching the clamp prologue.
//!
//! Not part of the Table-2 [`crate::registry`] (the paper does not
//! evaluate SRAD); addressable by name from the CLI sweep, the eval
//! service, and the figures harness.

use crate::{DivergencePattern, Workload};
use simt_ir::{BinOp, FuncKind, FunctionBuilder, Module, Value};
use simt_sim::Launch;

/// Base of the neighbor-value table in global memory.
const IMAGE_BASE: i64 = 64;

/// Tunable workload size.
#[derive(Clone, Debug)]
pub struct Params {
    /// Diffusion iterations per pixel.
    pub iters: i64,
    /// Warps in the launch.
    pub num_warps: usize,
    /// Probability a lane takes the clamp path each iteration.
    pub clamp_prob: f64,
    /// Synthetic cycles of the shared update tail (runs on both paths).
    pub tail_work: u32,
    /// Synthetic cycles of the clamp-only Laplacian recompute.
    pub clamp_work: u32,
    /// Neighbor-table length.
    pub image_len: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            iters: 24,
            num_warps: 4,
            clamp_prob: 0.3,
            tail_work: 80,
            clamp_work: 40,
            image_len: 512,
            seed: 0x5EED_0010,
        }
    }
}

/// Builds the SRAD workload.
pub fn build(p: &Params) -> Workload {
    let mut b = FunctionBuilder::new("srad", FuncKind::Kernel, 0);
    b.predict_label("clamp", None);

    let tid = b.special(simt_ir::SpecialValue::Tid);
    let i = b.mov(0i64);
    let acc = b.mov(0i64);
    // Shared destinations for the update tail: both arms write the same
    // registers, only their coefficients differ.
    let coef = b.mov(0i64);
    let head = b.block("head");
    let clamp = b.block("clamp");
    let diffuse = b.block("diffuse");
    let next = b.block("next");
    let done = b.block("done");
    b.jmp(head);

    // ---- Loop head: read a neighbor, decide the path ---------------------
    b.switch_to(head);
    let npos0 = b.bin(BinOp::Add, tid, i);
    let npos = b.bin(BinOp::Rem, npos0, p.image_len);
    let naddr = b.bin(BinOp::Add, npos, IMAGE_BASE);
    let neighbor = b.load_global(naddr);
    let u = b.rng_unit();
    let unstable = b.bin(BinOp::Lt, u, p.clamp_prob);
    b.br_div(unstable, clamp, diffuse);

    // ---- Clamp path: Laplacian recompute, then the update tail -----------
    b.switch_to(clamp);
    b.mark_roi();
    b.work(p.clamp_work);
    b.work(p.tail_work);
    b.bin_into(coef, BinOp::Mul, neighbor, 3i64);
    b.bin_into(coef, BinOp::Add, coef, 1i64);
    b.bin_into(acc, BinOp::Add, acc, coef);
    b.jmp(next);

    // ---- Diffuse path: the same tail with plain coefficients -------------
    b.switch_to(diffuse);
    b.mark_roi();
    b.work(p.tail_work);
    b.bin_into(coef, BinOp::Mul, neighbor, 5i64);
    b.bin_into(coef, BinOp::Add, coef, 2i64);
    b.bin_into(acc, BinOp::Add, acc, coef);
    b.jmp(next);

    // ---- Iterate ----------------------------------------------------------
    b.switch_to(next);
    b.bin_into(i, BinOp::Add, i, 1i64);
    let go_on = b.bin(BinOp::Lt, i, p.iters);
    b.br_div(go_on, head, done);

    b.switch_to(done);
    let slot = b.bin(BinOp::Add, tid, IMAGE_BASE + p.image_len);
    b.store_global(acc, slot);
    b.exit();

    let mut module = Module::new();
    module.add_function(b.finish());

    let mut launch = Launch::new("srad", p.num_warps);
    launch.seed = p.seed;
    // Result slots sized for the default 32-lane warps.
    let lanes = p.num_warps * 32;
    let mut mem = vec![Value::I64(0); (IMAGE_BASE + p.image_len) as usize + lanes];
    let mut state = p.seed | 1;
    for cell in mem.iter_mut().skip(IMAGE_BASE as usize).take(p.image_len as usize) {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *cell = Value::I64(((state >> 33) & 0xFF) as i64);
    }
    launch.global_mem = mem;

    Workload {
        name: "srad",
        description: "Speckle-reducing anisotropic diffusion: per-pixel update loop whose \
                      clamp/diffuse branch is unbalanced but shares an expensive update tail \
                      across both arms.",
        pattern: DivergencePattern::IterationDelay,
        module,
        launch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{eval, Cell, Grid, RunSpec};
    use specrecon_core::RepairStrategy;

    /// SRAD under every repair strategy, in [`RepairStrategy::ALL`]'s
    /// order; the grid checks that all of them leave the same memory.
    fn repairs() -> Vec<Cell> {
        let names: Vec<String> = RepairStrategy::ALL.iter().map(|r| r.to_string()).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let grid = Grid::new(vec![RunSpec::of(small())]).axis("repair", &names);
        eval::shared().run_grid(&grid).expect("every repair runs and agrees")
    }

    fn small() -> Workload {
        build(&Params { num_warps: 1, ..Params::default() })
    }

    #[test]
    fn all_repairs_agree_on_results() {
        let cells = repairs();
        assert_eq!(cells[0].pairs[0].1, "pdom");
        for cell in &cells {
            let (base, mem) = (&cells[0].runs[0].global_mem, &cell.runs[0].global_mem);
            assert_eq!(base, mem, "{} diverged from pdom results", cell.name());
        }
    }

    #[test]
    fn melding_beats_both_pdom_and_sr() {
        let cells = repairs();
        let eff = |r: RepairStrategy| {
            let cell = cells.iter().find(|c| c.pairs[0].1 == r.to_string()).expect("every repair");
            cell.metrics().simt_efficiency()
        };
        let (pdom, sr, meld) =
            (eff(RepairStrategy::Pdom), eff(RepairStrategy::Sr), eff(RepairStrategy::Meld));
        assert!(meld > pdom, "meld {meld} should beat pdom {pdom}");
        assert!(meld > sr, "meld {meld} should beat sr {sr}");
    }
}
