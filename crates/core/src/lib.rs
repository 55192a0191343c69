//! # specrecon-core — the Speculative Reconvergence compiler passes
//!
//! Implementation of the compiler side of *Speculative Reconvergence for
//! Improved SIMT Efficiency* (Damani et al., CGO 2020) over the
//! [`simt_ir`] kernel IR:
//!
//! - [`pdom`] — the baseline: PDOM reconvergence barriers at branch
//!   post-dominators (what production GPU compilers emit);
//! - [`specrecon`] — the §4.2 synchronization algorithm for user
//!   `Predict` annotations, including the §4.6 soft-barrier lowering;
//! - [`mod@deconflict`] — §4.3 static/dynamic arbitration between speculative
//!   and PDOM barriers;
//! - [`interproc`] — §4.4 reconvergence at function entries;
//! - [`autodetect`] — §4.5 pattern detection and cost heuristics;
//! - [`mod@meld`] — DARM-style control-flow melding of divergent if/else
//!   arms, the complementary repair for shapes SR cannot help;
//! - [`mod@coarsen`] — thread coarsening into persistent-thread task loops
//!   (Figure 3's preparation step);
//! - [`barrier_alloc`] — barrier register allocation (recycling the 16
//!   physical Volta barrier registers across non-overlapping regions);
//! - [`mod@lint`] — flow-sensitive barrier-safety lint over the transformed
//!   module (the pipeline's debug-assert stage, also `specrecon lint`);
//! - [`unroll`] — partial unrolling for the §6 interaction study;
//! - [`pipeline`] — [`compile`], tying it all together.
//!
//! ```
//! use simt_ir::parse_module;
//! use specrecon_core::{compile, CompileOptions};
//!
//! let m = parse_module(
//!     "kernel @k(params=0, regs=1, barriers=0, entry=bb0) {\nbb0:\n  exit\n}\n",
//! ).unwrap();
//! let compiled = compile(&m, &CompileOptions::baseline()).unwrap();
//! assert_eq!(compiled.module.functions.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod autodetect;
pub mod barrier_alloc;
pub mod coarsen;
pub mod cost;
pub mod deconflict;
pub mod error;
pub mod interproc;
pub mod lint;
pub mod meld;
pub mod pdom;
pub mod pipeline;
pub mod region;
pub mod specrecon;
pub mod unroll;

pub use autodetect::{
    auto_annotate, auto_annotate_profiled, detect, detect_profiled, Candidate, DetectOptions,
    PatternKind,
};
pub use barrier_alloc::{
    allocate_barriers, allocate_barriers_module, BarrierAllocReport, VOLTA_BARRIER_REGISTERS,
};
pub use coarsen::{coarsen, CoarsenReport};
pub use deconflict::{deconflict, deconflict_with_calls, DeconflictMode, DeconflictReport};
pub use error::PassError;
pub use interproc::{apply_interprocedural, make_wrapper, InterprocReport};
pub use lint::{lint_compiled, lint_errors, lint_module, LintFinding, LintRule, LintSeverity};
pub use meld::{
    apply_melds, apply_melds_profiled, detect_melds, MeldCandidate, MeldOptions, MeldReport,
    MeldedRegion,
};
pub use pdom::{insert_pdom_sync, PdomReport};
pub use pipeline::{
    compile, compile_profile_guided, CompileOptions, Compiled, FunctionReport, RepairStrategy,
};
pub use region::{compute_region, Region};
pub use specrecon::{apply_speculative, SpecReport};
pub use unroll::{unroll_self_loop, UnrollError};
