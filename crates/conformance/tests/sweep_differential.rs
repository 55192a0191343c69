//! The grid's cohort slices, on four programs each pinned by genome
//! seed: the lockstep seed sweep is unobservable. Every cohort twin
//! reproduces its decoded cell's runs bit for bit — metrics, memory,
//! errors — under every policy and reconvergence model, each cohort in
//! lockstep (lockstep issues, no scalar step). `fuzz_equivalence` checks
//! the same cells on random programs.

use conformance::grid::deepened;
use conformance::{conform_modules, replay_seed, ProgramSpec};

fn raw(module: &str) -> bool {
    module == "raw"
}

fn call_depth(module: &str) -> bool {
    module.starts_with("depth-")
}

#[test]
fn sweep_is_bit_identical_to_independent_runs() {
    for seed in 0x5eed_0000..0x5eed_0004 {
        conform_modules(&ProgramSpec::generate(seed), raw).unwrap_or_else(|v| panic!("{v}"));
    }
}

/// Lanes of one issue at *different* call depths, drawn per lane from
/// `tid` and from the RNG (so seeds fork while depths differ and merge
/// once they re-agree), meet at one pc inside `helper`, each with its
/// own frame base.
#[test]
fn lanes_at_different_call_depths_stay_bit_identical() {
    let specs = (0x5eed_0000..).map(ProgramSpec::generate).filter(|s| deepened(s).is_some());
    for spec in specs.take(4) {
        conform_modules(&spec, call_depth).unwrap_or_else(|v| panic!("{v}"));
    }
}

/// Replays `CONFORMANCE_SEED` on these slices; a no-op when it is unset.
#[test]
fn replay_env_seed() {
    if let Some(seed) = replay_seed() {
        let spec = ProgramSpec::generate(seed);
        conform_modules(&spec, |m| raw(m) || call_depth(m)).unwrap_or_else(|v| panic!("{v}"));
    }
}
