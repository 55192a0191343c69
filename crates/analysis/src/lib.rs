//! # simt-analysis — CFG analyses for the Speculative Reconvergence passes
//!
//! Provides the program analyses that the compiler passes in
//! `specrecon-core` are built from:
//!
//! - [`FunctionAnalyses`] — one function's CFG analyses, built once per
//!   CFG shape and shared by every pass ([`analyses`]);
//! - [`DomTree`] — dominator and post-dominator trees (defined in
//!   `simt_ir::dom`, next to the CFG, and re-exported here);
//! - [`LoopForest`] — natural loops and nesting depth ([`loops`]);
//! - a generic union-meet bit-set dataflow solver ([`dataflow`]);
//! - if/else diamond detection for control-flow melding ([`diamonds`]);
//! - the paper's two barrier analyses and conflict detection
//!   ([`barriers`]): joined-barrier analysis (Eq. 1), barrier liveness
//!   (Eq. 2), and §4.3 conflict pairs.
//!
//! ```
//! use simt_ir::parse_module;
//! use simt_analysis::FunctionAnalyses;
//!
//! let m = parse_module(
//!     "kernel @k(params=0, regs=1, barriers=0, entry=bb0) {\n\
//!      bb0:\n  jmp bb1\n\
//!      bb1:\n  %r0 = add %r0, 1\n  %r0 = lt %r0, 4\n  br %r0, bb1, bb2\n\
//!      bb2:\n  exit\n}\n",
//! ).unwrap();
//! let f = m.functions.iter().next().unwrap().1;
//! let mut fa = FunctionAnalyses::default();
//! let cfg = fa.of(f);
//! assert_eq!(cfg.loops().loops.len(), 1);
//! assert!(cfg.dom().dominates(cfg.rpo()[0], cfg.loops().loops[0].header));
//! ```

#![warn(missing_docs)]

pub mod analyses;
pub mod barriers;
pub mod bitset;
pub mod dataflow;
pub mod diamonds;
pub mod loops;

pub use analyses::{rpo_builds, Cfg, FunctionAnalyses};
pub use barriers::{
    find_conflicts, find_conflicts_with, BarrierConflict, BarrierJoined, BarrierLiveness,
};
pub use bitset::BitSet;
pub use dataflow::{solve, DataflowProblem, DataflowResult, Direction};
pub use diamonds::{find_diamonds, find_diamonds_with, Diamond};
pub use loops::{Loop, LoopForest};
pub use simt_ir::DomTree;
