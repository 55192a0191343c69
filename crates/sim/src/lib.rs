//! # simt-sim — a SIMT warp simulator with Volta-style convergence barriers
//!
//! This crate is the hardware substrate of the reproduction of
//! *Speculative Reconvergence for Improved SIMT Efficiency* (CGO 2020).
//! The paper evaluates on a Volta V100; we stand in a software model that
//! implements the part of Volta that matters for the technique:
//! *independent thread scheduling* plus *convergence barrier registers*
//! (`BSSY`/`BSYNC`/`BREAK` — here `Join`/`Wait`/`Cancel` masks).
//!
//! See [`machine::run`] for the execution model, [`config::SimConfig`] for
//! machine shape and the cost model, and [`metrics::Metrics`] for the SIMT
//! efficiency accounting.
//!
//! ```
//! use simt_ir::parse_and_link;
//! use simt_sim::{run, Launch, SimConfig};
//!
//! let m = parse_and_link(
//!     "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
//!      bb0:\n  %r0 = special.tid\n  %r1 = mul %r0, 2\n  store global[%r0], %r1\n  exit\n}\n",
//! ).unwrap();
//! let mut launch = Launch::new("k", 1);
//! launch.global_mem = vec![simt_ir::Value::I64(0); 32];
//! let out = run(&m, &SimConfig::default(), &launch).unwrap();
//! assert_eq!(out.global_mem[3], simt_ir::Value::I64(6));
//! assert_eq!(out.metrics.simt_efficiency(), 1.0); // fully convergent
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod alloc_count;
mod alu;
mod barrier;
mod cols;
pub mod config;
pub mod counters;
pub mod decode;
pub mod error;
pub mod exec;
pub mod export;
pub mod journal;
pub mod machine;
pub mod mem;
pub mod metrics;
mod observe;
pub mod profile;
pub mod recon;
pub mod reference;
pub mod rng;
mod sched;
pub mod sweep;
pub mod trace;

/// The unit-test binary counts heap allocations to prove a cohort's
/// steady-state round — a scalar launch's at one slot — never touches
/// the allocator; see [`alloc_count`] and the
/// `step_is_allocation_free_in_steady_state` test in [`exec`].
#[cfg(test)]
#[global_allocator]
static COUNTING_ALLOC: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

pub use config::{LatencyModel, ReconvergenceModel, SchedulerPolicy, SimConfig};
pub use decode::DecodedImage;
pub use error::{BarrierState, ReconDump, SimError, SplitDump, StackEntryDump, ThreadLocation};
pub use exec::{run_image, run_image_with, CancelToken};
pub use export::{chrome_trace, jsonl};
pub use journal::{BarrierStats, Journal, JournalConfig, JournalEvent, JournalKind, JournalWriter};
pub use machine::{run, EngineStats, Launch, SimOutput, DEFAULT_SEED};
pub use mem::{
    AccessOutcome, LevelOutcome, MemHierarchy, MemLevel, MemLevelStats, MemStats, MAX_MEM_LEVELS,
};
pub use metrics::Metrics;
pub use profile::{BlockStats, Profile};
pub use recon::ReconStats;
pub use reference::run_reference;
pub use sweep::{run_sweep_image, SeedRun, SweepLaunch, SweepOutput, SweepStats};
pub use trace::{Trace, TraceEvent};
