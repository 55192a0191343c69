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
//! 2. **Grid** ([`grid`]) — one matrix per program: the PDOM baseline,
//!    every SR variant and every repair, the raw program and its
//!    call-depth twins, each under every scheduler policy, reconvergence
//!    model and memory model, on the decoded engine, the lockstep cohort
//!    and the tree-walking reference; one comparator states what each
//!    cell must preserve.
//! 3. **Shrinker & corpora** ([`mod@shrink`], [`corpus`], [`regressions`])
//!    — a violating seed is minimized at the genome level and dumped
//!    ([`conform`]), a fixed named corpus pins known-fragile shapes, and
//!    the barrier-oracle proptest's regression file is ingested and
//!    replayed against the one brute-force dataflow oracle.
//!
//! The entry point is `tests/fuzz_equivalence.rs`; `sweep_differential`,
//! `hier_flat_differential` and `recon_differential` run slices of the
//! grid ([`check_modules`]) on programs pinned by genome seed. Three
//! environment variables steer them: `CONFORMANCE_CASES` ([`cases`]),
//! `CONFORMANCE_SEED` ([`replay_seed`]) and `CONFORMANCE_ARTIFACT_DIR`
//! ([`artifact_dir`]); a value that is set but malformed panics.

#![warn(missing_docs)]

pub mod build;
pub mod corpus;
pub mod grid;
pub mod program;
pub mod regressions;
pub mod shrink;

pub use build::build_module;
pub use grid::{check, check_modules, OracleReport};
pub use program::{ProgramSpec, Shape};
pub use shrink::shrink;

use std::path::PathBuf;

/// Random programs the grid checks by default.
const DEFAULT_CASES: u32 = 80;

/// `CONFORMANCE_CASES`: the number of random programs the grid checks,
/// [`DEFAULT_CASES`] when unset.
pub fn cases() -> u32 {
    cases_in(&var)
}

/// `CONFORMANCE_SEED`: one genome seed to replay, decimal or `0x` hex.
pub fn replay_seed() -> Option<u64> {
    seed_in(&var)
}

/// `CONFORMANCE_ARTIFACT_DIR`: where violations are dumped, the
/// workspace's `target/conformance/` when unset.
fn artifact_dir() -> PathBuf {
    artifact_dir_in(&var)
}

/// Looks up an environment variable.
type Env<'a> = &'a dyn Fn(&str) -> Option<String>;

fn var(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(value) => Some(value),
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("{name}: {e}"),
    }
}

/// `name`'s value parsed by `parse`; `None` when unset or blank, and a
/// panic naming the variable when set but malformed: a value ignored in
/// silence would let CI believe it ran what it did not.
fn parsed<T>(env: Env, name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    let value = env(name)?;
    let value = value.trim();
    if value.is_empty() {
        return None;
    }
    Some(parse(value).unwrap_or_else(|| panic!("{name}: malformed value {value:?}")))
}

/// A decimal or `0x`-prefixed hexadecimal unsigned integer.
fn number(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn cases_in(env: Env) -> u32 {
    parsed(env, "CONFORMANCE_CASES", |v| number(v)?.try_into().ok()).unwrap_or(DEFAULT_CASES)
}

fn seed_in(env: Env) -> Option<u64> {
    parsed(env, "CONFORMANCE_SEED", number)
}

fn artifact_dir_in(env: Env) -> PathBuf {
    parsed(env, "CONFORMANCE_ARTIFACT_DIR", |v| Some(PathBuf::from(v))).unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/conformance")
    })
}

/// Checks `spec` on the grid; a violation is shrunk at the genome level
/// and dumped to [`artifact_dir`] as `seed-<hex>.txt` with its replay
/// line, and the `Err` names the artifact.
pub fn conform(spec: &ProgramSpec) -> Result<OracleReport, String> {
    conform_modules(spec, |_| true)
}

/// [`conform`] on the cells [`check_modules`] picks. A violation is
/// shrunk, dumped and replayed on the whole grid, which holds every
/// cell of the slice.
pub fn conform_modules(
    spec: &ProgramSpec,
    pick: impl Fn(&str) -> bool,
) -> Result<OracleReport, String> {
    let violation = match check_modules(spec, pick) {
        Ok(report) => return Ok(report),
        Err(violation) => violation,
    };
    let minimized = shrink(spec, shrink::DEFAULT_BUDGET);
    let minimized_violation =
        check(&minimized).err().unwrap_or_else(|| "<minimized spec no longer fails>".to_string());
    let dir = artifact_dir();
    let path = dir.join(format!("seed-{:016x}.txt", spec.seed));
    let body = format!(
        "conformance failure\n===================\n\
         replay: CONFORMANCE_SEED={:#018x} cargo test -p conformance --test fuzz_equivalence -- replay_env_seed\n\n\
         original spec:\n{spec:#?}\n\noriginal violation:\n{violation}\n\n\
         minimized spec:\n{minimized:#?}\n\nminimized module:\n{}\n\nminimized violation:\n{minimized_violation}\n",
        spec.seed,
        build_module(&minimized),
    );
    let artifact = match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("<failed to write {}: {e}>", path.display()),
    };
    Err(format!(
        "generator seed {:#018x} violated conformance:\n{violation}\nminimized artifact: {artifact}",
        spec.seed
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An environment where every variable is `value`.
    fn set(value: &'static str) -> impl Fn(&str) -> Option<String> {
        move |_| Some(value.to_string())
    }

    #[test]
    fn cases_parse_or_default() {
        assert_eq!(cases_in(&|_| None), DEFAULT_CASES);
        assert_eq!(cases_in(&set(" ")), DEFAULT_CASES);
        assert_eq!(cases_in(&set("512")), 512);
        assert_eq!(cases_in(&set("0x40")), 64);
    }

    #[test]
    #[should_panic(expected = "CONFORMANCE_CASES: malformed value \"64k\"")]
    fn malformed_cases_panic() {
        cases_in(&set("64k"));
    }

    #[test]
    #[should_panic(expected = "CONFORMANCE_CASES: malformed value \"4294967296\"")]
    fn cases_past_u32_panic() {
        cases_in(&set("4294967296"));
    }

    #[test]
    fn seeds_parse_hex_or_decimal() {
        assert_eq!(seed_in(&|_| None), None);
        assert_eq!(seed_in(&set("0x2095709c191622ab")), Some(0x2095_709c_1916_22ab));
        assert_eq!(seed_in(&set("42")), Some(42));
    }

    #[test]
    #[should_panic(expected = "CONFORMANCE_SEED: malformed value \"0xnothex\"")]
    fn malformed_seed_panics() {
        seed_in(&set("0xnothex"));
    }

    #[test]
    fn artifact_dir_is_the_value_or_the_target_dir() {
        assert!(artifact_dir_in(&|_| None).ends_with("target/conformance"));
        assert_eq!(artifact_dir_in(&set("/tmp/seeds")), PathBuf::from("/tmp/seeds"));
    }
}
