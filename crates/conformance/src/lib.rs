//! # conformance — generative conformance suite for Speculative Reconvergence
//!
//! Property-based end-to-end testing of the whole SR stack. The suite
//! has three layers:
//!
//! 1. **Generator** ([`program`], [`build`]) — a seed-driven genome
//!    ([`program::ProgramSpec`]) of well-formed divergent programs
//!    (nested loops, data-dependent branches, shared calls, early
//!    exits), biased toward the paper's Iteration-Delay, Loop-Merge,
//!    and Common-Call shapes, lowered to verified IR.
//! 2. **Oracle** ([`oracle`]) — compiles each program as the PDOM
//!    baseline and as every SR variant (soft/hard barriers,
//!    static/dynamic deconfliction, barrier allocation, autodetect)
//!    and asserts final per-thread state is bit-identical across all
//!    five scheduler policies and two launch seeds, that every run
//!    terminates, and that the barrier-safety lint stays clean.
//! 3. **Shrinker & corpora** ([`mod@shrink`], [`corpus`], [`regressions`])
//!    — failing seeds are minimized at the genome level, a fixed named
//!    corpus pins known-fragile shapes, and the root proptest
//!    regression file is ingested and replayed against the dataflow
//!    oracles.
//!
//! Entry points are the integration tests under `tests/`; the
//! `CONFORMANCE_CASES` environment variable caps the number of random
//! cases (default 256 — see `docs/TESTING.md`), and
//! `CONFORMANCE_RECON_MODELS=all` crosses the oracle's matrix with the
//! simulator's hardware reconvergence models
//! ([`oracle::recon_models`]) and a memory hierarchy
//! ([`oracle::MEM_HIER`]).

#![warn(missing_docs)]

pub mod build;
pub mod corpus;
pub mod oracle;
pub mod program;
pub mod regressions;
pub mod shrink;

pub use build::build_module;
pub use oracle::{check, OracleReport};
pub use program::{ProgramSpec, Shape};
pub use shrink::shrink;

/// Number of random cases the fuzz tests run: `CONFORMANCE_CASES` or
/// the given default.
pub fn configured_cases(default: u32) -> u32 {
    std::env::var("CONFORMANCE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}
