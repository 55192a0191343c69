//! The grid's reconvergence-model slice, on eight programs pinned by
//! genome seed: the program without compiler barriers (`raw`), with
//! PDOM's (`baseline`) and with SR's (`spec-dynamic`), under every
//! policy. Under the barrier file, decoded and reference runs agree bit
//! for bit and `Metrics::recon` stays zero. Under the IPDOM stack and
//! warp splitting (bare, and windowed with compaction), every run
//! terminates with the barrier file's memory, IPDOM pushes equal pops,
//! and a traced and journaled run (no pick hint, no batching) reports
//! the plain run's metrics and memory. `fuzz_equivalence` checks the
//! same cells on random programs.

use conformance::grid::TWINNED;
use conformance::{conform_modules, replay_seed, ProgramSpec};

fn twinned(module: &str) -> bool {
    TWINNED.contains(&module)
}

#[test]
fn hardware_models_match_the_barrier_file() {
    for seed in 0x7ec0_0000..0x7ec0_0008 {
        conform_modules(&ProgramSpec::generate(seed), twinned).unwrap_or_else(|v| panic!("{v}"));
    }
}

/// Replays `CONFORMANCE_SEED` on this slice; a no-op when it is unset.
#[test]
fn replay_env_seed() {
    if let Some(seed) = replay_seed() {
        let spec = ProgramSpec::generate(seed);
        conform_modules(&spec, twinned).unwrap_or_else(|v| panic!("{v}"));
    }
}
