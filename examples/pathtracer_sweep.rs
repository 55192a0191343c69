//! The Figure 9 experiment as an example: sweep the soft-barrier
//! threshold for PathTracer (cheap task refill) and XSBench (expensive
//! task refill) and watch their optima land at different thresholds.
//!
//! Run with: `cargo run --release --example pathtracer_sweep`

use specrecon::passes::CompileOptions;
use specrecon::sim::SimConfig;
use specrecon::workloads::eval;
use specrecon::workloads::{pathtracer, xsbench, Workload};

fn sweep(w: &Workload) -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig::default();
    println!("== {} ==", w.name);
    println!("{:>9} {:>10} {:>8}", "threshold", "SIMT eff", "speedup");
    let mut best = (0u32, 0.0f64);
    for t in [2u32, 4, 8, 12, 16, 20, 24, 28, 32] {
        let wt = w.rebind().threshold(t).done();
        let c = eval::shared().compare_with(&wt, &CompileOptions::speculative(), &cfg)?;
        if c.speedup() > best.1 {
            best = (t, c.speedup());
        }
        let marker = if t == 32 { "  (full barrier)" } else { "" };
        println!("{:>9} {:>9.1}% {:>7.2}x{marker}", t, c.speculative.simt_eff * 100.0, c.speedup());
    }
    println!("best threshold: {} ({:.2}x)\n", best.0, best.1);
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    sweep(&pathtracer::build(&pathtracer::Params::default()))?;
    sweep(&xsbench::build(&xsbench::Params::default()))?;
    println!(
        "PathTracer refills idle lanes cheaply, so maximal convergence (threshold 32)\n\
         wins; XSBench pays an energy-grid search per refill, so it peaks at a\n\
         partial threshold — the Figure 9 contrast."
    );
    Ok(())
}
