//! # specrecon-bench — regenerates every table and figure of the paper
//!
//! Each module computes the data behind one artifact of the evaluation
//! section of *Speculative Reconvergence for Improved SIMT Efficiency*
//! (CGO 2020); the `figures` binary renders them as markdown/CSV.
//! Throughput is measured by the `benchmark/` ledger, not here.
//!
//! | artifact | module |
//! |---|---|
//! | Table 2 (benchmarks)                    | [`table2`]   |
//! | Figure 7 (SIMT efficiency)              | [`fig7`]     |
//! | Figure 8 (efficiency gain vs speedup)   | [`fig7`] (derived) |
//! | Figure 9 (soft-barrier threshold sweep) | [`fig9`]     |
//! | Figure 10 + §5.4 funnel (automatic SR)  | [`fig10`]    |
//! | §4.3 static-vs-dynamic deconfliction    | [`ablate`]   |
//! | §6 partial unrolling × Loop Merge       | [`ablate`]   |
//! | scheduler-policy sensitivity            | [`ablate`]   |

#![warn(missing_docs)]

pub mod ablate;
pub mod fig10;
pub mod fig7;
pub mod fig9;
pub mod report;
pub mod table2;

/// Problem-size selector: `Quick` shrinks launches for CI/tests, `Full`
/// uses the workloads' default parameters (what EXPERIMENTS.md records).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small launches (1 warp) for fast iteration.
    Quick,
    /// Default workload parameters.
    Full,
}

impl Scale {
    /// Applies the scale to a workload (shrinks the launch for `Quick`).
    pub fn apply(self, w: &workloads::Workload) -> workloads::Workload {
        match self {
            Scale::Quick => w.rebind().warps(1).done(),
            Scale::Full => w.clone(),
        }
    }
}
