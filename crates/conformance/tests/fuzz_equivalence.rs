//! The conformance grid's entry point.
//!
//! Generates random divergent programs and checks each on its whole grid
//! (see `conformance::grid`): every SR variant and repair against the
//! PDOM baseline, every engine against the decoded one, across every
//! scheduler policy, reconvergence model and memory model.
//! `CONFORMANCE_CASES` sets the number of programs; a violation is
//! minimized with the genome shrinker and dumped to
//! `$CONFORMANCE_ARTIFACT_DIR` (or `target/conformance/`) with the line
//! that replays it.

use conformance::program::spec_strategy;
use conformance::{conform, replay_seed, ProgramSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: conformance::cases(),
        .. ProptestConfig::default()
    })]

    #[test]
    fn every_variant_matches_the_baseline(spec in spec_strategy()) {
        if let Err(violation) = conform(&spec) {
            prop_assert!(false, "{}", violation);
        }
    }
}

/// Replays the genome seed `CONFORMANCE_SEED` (the artifact's replay
/// line); a no-op when the variable is unset.
#[test]
fn replay_env_seed() {
    if let Some(seed) = replay_seed() {
        if let Err(violation) = conform(&ProgramSpec::generate(seed)) {
            panic!("{violation}");
        }
    }
}
