//! # workloads — the CGO'20 benchmark suite, in simt-ir
//!
//! Models of the nine applications of Table 2 of *Speculative
//! Reconvergence for Improved SIMT Efficiency*, plus the Figure 2(c)
//! common-function-call microbenchmark and the §5.4 synthetic corpus.
//!
//! The real applications are CUDA programs; what the paper's results
//! depend on is their *divergence structure* — inner-loop trip-count
//! distributions, the cost split between the common code and the
//! prolog/epilog (task refill), and compute-vs-memory balance. Each model
//! here reproduces those properties with seeded randomness and documents
//! its parameters; `DESIGN.md` records the substitution rationale.
//!
//! ```
//! use workloads::{eval, registry, Grid, RunSpec};
//!
//! assert_eq!(registry().len(), 9);
//! // RSBench at one warp, compiled both ways; the grid checks that both
//! // runs leave the same memory.
//! let base = RunSpec::parse(&[("workload", "rsbench"), ("warps", "1")]).unwrap();
//! let grid = Grid::new(vec![base]).axis("mode", ["baseline", "speculative"]);
//! let cells = eval::shared().run_grid(&grid).unwrap();
//! let speedup = cells[0].metrics().cycles as f64 / cells[1].metrics().cycles as f64;
//! assert!(speedup > 1.0);
//! ```

#![warn(missing_docs)]

pub mod common;
pub mod corpus;
pub mod eval;
pub mod gpumcml;
pub mod grid;
pub mod mcb;
pub mod mcgpu;
pub mod meiyamd5;
pub mod microbench;
pub mod mummer;
pub mod optix;
pub mod pathtracer;
pub mod reference;
pub mod report;
pub mod rsbench;
pub mod seedstorm;
pub mod spec;
pub mod srad;
pub mod xsbench;

pub use eval::{Engine, RunOutput};
pub use grid::{Cell, Grid};
pub use report::{render_run, render_seeds, SeedMetrics};
pub use spec::{RunSpec, Seeds, SpecError};

use simt_ir::Module;
use simt_sim::Launch;

/// Which §3 divergence pattern a workload exhibits (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergencePattern {
    /// Divergent condition within a loop (Figure 2(a)).
    IterationDelay,
    /// Loop trip-count divergence (Figure 2(b)).
    LoopMerge,
    /// Common function call across divergent paths (Figure 2(c)).
    CommonFunctionCall,
}

impl std::fmt::Display for DivergencePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergencePattern::IterationDelay => write!(f, "iteration delay"),
            DivergencePattern::LoopMerge => write!(f, "loop merge"),
            DivergencePattern::CommonFunctionCall => write!(f, "common function call"),
        }
    }
}

/// A ready-to-run benchmark: annotated module plus its default launch.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name (matches the paper's Table 2).
    pub name: &'static str,
    /// Table-2 description.
    pub description: &'static str,
    /// The divergence pattern the workload exercises.
    pub pattern: DivergencePattern,
    /// The kernel module, carrying its `Predict` annotations.
    pub module: Module,
    /// Default launch (memory tables initialized, seed fixed).
    pub launch: Launch,
}

type Builder = fn() -> Workload;

/// Every workload the CLI and `/v1/eval` know by name, each with its
/// builder at default parameters: the Table-2 nine in the paper's order,
/// then `microbench` (the common-call shape), `seed-storm` and `srad`.
const BUILDERS: [(&str, Builder); 12] = [
    ("rsbench", || rsbench::build(&rsbench::Params::default())),
    ("xsbench", || xsbench::build(&xsbench::Params::default())),
    ("mcb", || mcb::build(&mcb::Params::default())),
    ("pathtracer", || pathtracer::build(&pathtracer::Params::default())),
    ("mc-gpu", || mcgpu::build(&mcgpu::Params::default())),
    ("mummer", || mummer::build(&mummer::Params::default())),
    ("meiyamd5", || meiyamd5::build(&meiyamd5::Params::default())),
    ("optix", || optix::build(&optix::Params::default())),
    ("gpu-mcml", || gpumcml::build(&gpumcml::Params::default())),
    ("microbench", || microbench::build_common_call(&microbench::Params::default())),
    ("seed-storm", || seedstorm::build(&seedstorm::Params::default())),
    ("srad", || srad::build(&srad::Params::default())),
];

/// All Table-2 workloads at their default parameters, in the paper's
/// order.
pub fn registry() -> Vec<Workload> {
    BUILDERS.iter().take(9).map(|(_, build)| build()).collect()
}

/// The names [`by_name`] knows, in table order.
pub fn names() -> Vec<&'static str> {
    BUILDERS.iter().map(|&(name, _)| name).collect()
}

/// The PDOM baseline's and Speculative Reconvergence's metrics for `w`,
/// run as a grid on the shared engine, which checks that both left the
/// same memory.
#[cfg(test)]
pub(crate) fn pdom_vs_sr(w: Workload) -> [simt_sim::Metrics; 2] {
    let grid = Grid::new(vec![RunSpec::of(w)]).axis("mode", ["baseline", "speculative"]);
    let cells = eval::shared().run_grid(&grid).expect("both modes run and agree");
    [cells[0].metrics().clone(), cells[1].metrics().clone()]
}

/// Baseline cycles over SR cycles.
#[cfg(test)]
pub(crate) fn speedup(base: &simt_sim::Metrics, sr: &simt_sim::Metrics) -> f64 {
    base.cycles as f64 / sr.cycles as f64
}

/// The final memory of one launch of `w` compiled as the PDOM baseline.
#[cfg(test)]
pub(crate) fn baseline_mem(w: &Workload) -> Vec<simt_ir::Value> {
    let (opts, cfg) = (specrecon_core::CompileOptions::baseline(), simt_sim::SimConfig::default());
    eval::shared().run_full(w, &opts, &cfg).expect("the baseline runs").global_mem
}

/// Builds the one workload called `name` at its default parameters,
/// without building the others (and their global memories). It reports
/// under that name: `microbench`'s module is the common-call kernel.
pub fn by_name(name: &str) -> Option<Workload> {
    let &(name, build) = BUILDERS.iter().find(|&&(n, _)| n == name)?;
    Some(Workload { name, ..build() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_match_table_2() {
        let names: Vec<&str> = registry().iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "rsbench",
                "xsbench",
                "mcb",
                "pathtracer",
                "mc-gpu",
                "mummer",
                "meiyamd5",
                "optix",
                "gpu-mcml"
            ]
        );
        // The table is keyed by the built names; the three extras follow.
        let known = super::names();
        assert_eq!(known[..9], names);
        assert_eq!(known[9..], ["microbench", "seed-storm", "srad"]);
        for (i, name) in known.into_iter().enumerate() {
            let w = by_name(name).expect("every listed name builds");
            assert!(i >= 9 || w.name == name);
        }
        assert!(by_name("no-such-workload").is_none());
    }

    #[test]
    fn every_workload_verifies_and_has_predictions() {
        for w in registry() {
            simt_ir::assert_verified(&w.module);
            let kernel = w.module.function_by_name(&w.launch.kernel).expect("kernel exists");
            let f = &w.module.functions[kernel];
            assert!(
                !f.predictions.is_empty(),
                "{}: workloads carry their paper annotation",
                w.name
            );
            assert!(!w.description.is_empty());
        }
    }
}
