//! The simulator front door: launch descriptions and the `run` entry
//! points.
//!
//! [`run`] is implemented as *decode once, then execute*: the module is
//! lowered by [`DecodedImage::decode`](crate::decode::DecodedImage::decode)
//! into a flat instruction stream and executed by
//! [`run_image`](crate::exec::run_image), the lockstep cohort of
//! [`crate::sweep`] at one slot. Callers that launch the same
//! module repeatedly should decode once themselves (or use the batch
//! evaluation engine in the `workloads` crate, which caches images).
//!
//! The original tree-walking interpreter survives as
//! [`run_reference`](crate::reference::run_reference), the semantic oracle
//! the decoded image's runs are differentially tested against.

use crate::config::SimConfig;
use crate::decode::DecodedImage;
use crate::error::SimError;
use crate::journal::Journal;
use crate::metrics::Metrics;
use crate::profile::Profile;
use crate::trace::Trace;
use simt_ir::{Module, Value};

/// The default launch seed used everywhere a caller does not pick one:
/// [`Launch::new`], the CLI's `--seed` default, the eval server's launch
/// template, and the conformance harness. One shared constant instead of
/// scattered literals, so "the default seed" means one thing.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Parameters of one kernel launch.
#[derive(Clone, Debug, PartialEq)]
pub struct Launch {
    /// Name of the kernel to run.
    pub kernel: String,
    /// Number of warps.
    pub num_warps: usize,
    /// Kernel arguments, broadcast to every thread's parameter registers.
    pub args: Vec<Value>,
    /// Initial contents of global memory.
    pub global_mem: Vec<Value>,
    /// Size of each thread's local memory.
    pub local_mem_size: usize,
    /// Seed for the per-thread RNG streams.
    pub seed: u64,
}

impl Launch {
    /// Creates a launch of `num_warps` warps of the named kernel with no
    /// arguments, empty global memory, and a fixed default seed.
    pub fn new(kernel: impl Into<String>, num_warps: usize) -> Self {
        Self {
            kernel: kernel.into(),
            num_warps,
            args: Vec::new(),
            global_mem: Vec::new(),
            local_mem_size: 0,
            seed: DEFAULT_SEED,
        }
    }
}

/// Host-side work counts of a scalar launch (the one-slot cohort): how
/// its scheduling rounds were served, and which shapes its data arms' row
/// ops took. They describe the simulator, not the simulated machine —
/// which is why they sit beside [`Metrics`], never inside it: the engines
/// are compared on `metrics ==`, and the tree-walking reference and the
/// seeds of a multi-seed sweep report zeros. Exact for a given launch and configuration, so a test
/// can notice the fast path falling off where a timing cannot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Scheduling rounds: a ready warp was given its issue slot.
    pub rounds: u64,
    /// Rounds whose pick came from a hint left by the previous round's
    /// batch, skipping the model's grouping/normalization work.
    pub hinted_rounds: u64,
    /// Issues run ahead inside a round by the straight-line batcher.
    pub batched_issues: u64,
    /// Warp-split rounds that went through split normalization, fusion
    /// and the candidate scan (the rounds with something to arbitrate).
    pub general_split_rounds: u64,
    /// `Bin`/`Un` row ops (one per frame-base group of an issue) whose
    /// operand rows held an int in some issued lanes and a float in
    /// others, evaluated by the loop that reads each lane's type bit
    /// instead of a dense typed one. 0 unless a register's type depends
    /// on the lane.
    pub mixed_rows: u64,
    /// Data-arm issues (`bin`/`un`, `mov`, `sel`, `br`, `vote`) whose
    /// lanes sat at more than one frame base — different call depths —
    /// and ran one row op per base.
    pub split_base_issues: u64,
}

/// Result of a completed launch.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Execution metrics.
    pub metrics: Metrics,
    /// How a scalar launch served its rounds (zeros from the oracle and
    /// from the seeds of a multi-seed sweep).
    pub engine: EngineStats,
    /// Final global memory contents; empty when [`SimConfig::final_mem`]
    /// is off.
    pub global_mem: Vec<Value>,
    /// Issue trace, when [`SimConfig::trace`] was set.
    pub trace: Option<Trace>,
    /// Per-block execution profile, when [`SimConfig::profile`] was set.
    pub profile: Option<Profile>,
    /// Divergence-event journal, when [`SimConfig::journal`] was set.
    pub journal: Option<Journal>,
}

/// Runs a kernel launch to completion.
///
/// # Errors
///
/// Returns a [`SimError`] on deadlock, memory/arithmetic faults, cycle
/// budget exhaustion, or an invalid/unlinked module.
pub fn run(module: &Module, cfg: &SimConfig, launch: &Launch) -> Result<SimOutput, SimError> {
    let image = DecodedImage::decode(module);
    crate::exec::run_image(&image, cfg, launch)
}
