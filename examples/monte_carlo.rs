//! The paper's flagship workload: RSBench (Monte Carlo neutron-transport
//! cross-section lookups, Figure 3).
//!
//! Demonstrates the full user workflow on a realistic kernel:
//! 1. take the coarsened kernel with its `Predict(L1)` annotation;
//! 2. compile baseline and Speculative Reconvergence variants;
//! 3. run both and confirm identical results but very different SIMT
//!    efficiency and cycle counts;
//! 4. try a soft-barrier threshold as well (§4.6).
//!
//! Run with: `cargo run --release --example monte_carlo`

use specrecon::passes::CompileOptions;
use specrecon::workloads::eval;
use specrecon::workloads::rsbench;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = rsbench::Params::default();
    let workload = rsbench::build(&params);
    println!(
        "RSBench model: {} lookups over 12 materials with {:?} nuclides each\n",
        params.num_tasks,
        rsbench::NUCLIDE_COUNTS
    );

    let cfg = specrecon::sim::SimConfig::default();
    let engine = eval::shared();
    let cmp = engine.compare(&workload, &cfg)?;
    println!(
        "baseline (PDOM):          SIMT efficiency {:>5.1}%, {:>8} cycles",
        cmp.baseline.simt_eff * 100.0,
        cmp.baseline.cycles
    );
    println!(
        "speculative reconvergence: SIMT efficiency {:>5.1}%, {:>8} cycles",
        cmp.speculative.simt_eff * 100.0,
        cmp.speculative.cycles
    );
    println!(
        "=> efficiency gain {:.2}x, speedup {:.2}x (results verified identical)\n",
        cmp.efficiency_gain(),
        cmp.speedup()
    );

    println!("soft-barrier thresholds (release once N threads arrive):");
    for t in [8u32, 16, 24, 32] {
        let wt = workload.rebind().threshold(t).done();
        let c = engine.compare_with(&wt, &CompileOptions::speculative(), &cfg)?;
        println!(
            "  T={t:>2}: SIMT efficiency {:>5.1}%, speedup {:.2}x",
            c.speculative.simt_eff * 100.0,
            c.speedup()
        );
    }
    println!("\n(RSBench's inner loop is compute-dense and its refill cheap, so the\n full barrier — T=32 — is already near-optimal; compare XSBench in the\n pathtracer_sweep example.)");
    Ok(())
}
