//! The grid's memory-hierarchy slice, on eight programs pinned by genome
//! seed: the `raw` program at hierarchy depth 0 (`dram`,
//! `MemHierarchy::flat`) costs what hierarchy-off costs once the
//! per-level `MemStats` are stripped, and at a single-level L1
//! (`MemHierarchy::l1`) its reference and cohort twins reproduce the
//! decoded cell exactly. `fuzz_equivalence` checks the same cells on
//! random programs.

use conformance::{conform_modules, replay_seed, ProgramSpec};

fn raw(module: &str) -> bool {
    module == "raw"
}

#[test]
fn degenerate_hierarchies_reproduce_legacy_costs() {
    for seed in 0x41e2_0000..0x41e2_0008 {
        conform_modules(&ProgramSpec::generate(seed), raw).unwrap_or_else(|v| panic!("{v}"));
    }
}

/// Replays `CONFORMANCE_SEED` on this slice; a no-op when it is unset.
#[test]
fn replay_env_seed() {
    if let Some(seed) = replay_seed() {
        conform_modules(&ProgramSpec::generate(seed), raw).unwrap_or_else(|v| panic!("{v}"));
    }
}
