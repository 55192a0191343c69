//! Replays the fixed corpora on every run, independent of the random
//! case schedule: the named edge-case specs and the ingested proptest
//! regression file.

use conformance::check;
use conformance::corpus::corpus;
use conformance::regressions;

#[test]
fn named_corpus_passes_the_oracle() {
    let mut ran = Vec::new();
    for (name, spec) in corpus() {
        if let Err(violation) = check(&spec) {
            panic!("corpus case {name:?} violated SR equivalence:\n{violation}");
        }
        ran.push(name);
    }
    assert!(ran.len() >= 8, "corpus unexpectedly small: {ran:?}");
}

#[test]
fn interproc_corpus_case_actually_runs_the_interproc_variant() {
    let (_, spec) = corpus()
        .into_iter()
        .find(|(name, _)| *name == "interproc_common_call")
        .expect("corpus must pin the Figure 2b shape");
    let report = check(&spec).expect("interproc corpus case must pass");
    assert!(
        report.variants_run.iter().any(|v| v == "spec-dynamic"),
        "interprocedural prediction was skipped rather than compiled: {report:?}"
    );
}

#[test]
fn repair_variants_pass_the_oracle() {
    for (name, spec) in corpus().into_iter().take(4) {
        let report = check(&spec).unwrap_or_else(|v| panic!("corpus case {name:?}:\n{v}"));
        for repair in ["repair-meld", "repair-sr+meld"] {
            assert!(
                report.variants_run.iter().any(|v| v == repair),
                "corpus case {name:?} never ran the {repair} variant: {report:?}"
            );
        }
    }
}

#[test]
fn regression_file_cases_replay_clean() {
    let cases = regressions::cases().expect("regression corpus must parse");
    assert!(!cases.is_empty());
    for (i, case) in cases.iter().enumerate() {
        if let Err(msg) = regressions::replay(case) {
            panic!("regression case #{i} ({case:?}) disagreed with the analyses:\n{msg}");
        }
    }
}
