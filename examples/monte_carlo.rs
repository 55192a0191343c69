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

use specrecon::workloads::{eval, rsbench, Grid, RunSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = rsbench::Params::default();
    let workload = rsbench::build(&params);
    println!(
        "RSBench model: {} lookups over 12 materials with {:?} nuclides each\n",
        params.num_tasks,
        rsbench::NUCLIDE_COUNTS
    );

    // Each grid runs its cells both ways and checks that every pair left
    // the same memory.
    let engine = eval::shared();
    let base = RunSpec::of(workload);
    let modes = ["baseline", "speculative"];
    let cells = engine.run_grid(&Grid::new(vec![base.clone()]).axis("mode", modes))?;
    let (b, s) = (cells[0].metrics(), cells[1].metrics());
    println!(
        "baseline (PDOM):          SIMT efficiency {:>5.1}%, {:>8} cycles",
        b.simt_efficiency() * 100.0,
        b.cycles
    );
    println!(
        "speculative reconvergence: SIMT efficiency {:>5.1}%, {:>8} cycles",
        s.simt_efficiency() * 100.0,
        s.cycles
    );
    println!(
        "=> efficiency gain {:.2}x, speedup {:.2}x (results verified identical)\n",
        s.simt_efficiency() / b.simt_efficiency(),
        b.cycles as f64 / s.cycles as f64
    );

    println!("soft-barrier thresholds (release once N threads arrive):");
    let sweep = Grid::new(vec![base]).axis("threshold", [8, 16, 24, 32]).axis("mode", modes);
    for c in engine.run_grid(&sweep)?.chunks(2) {
        let (b, s) = (c[0].metrics(), c[1].metrics());
        println!(
            "  T={:>2}: SIMT efficiency {:>5.1}%, speedup {:.2}x",
            c[1].pairs[0].1,
            s.simt_efficiency() * 100.0,
            b.cycles as f64 / s.cycles as f64
        );
    }
    println!("\n(RSBench's inner loop is compute-dense and its refill cheap, so the\n full barrier — T=32 — is already near-optimal; compare XSBench in the\n pathtracer_sweep example.)");
    Ok(())
}
