//! Argument-parsing and output-shape tests for `specrecon sweep`,
//! driving the real binary.

use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_specrecon"))
        .arg("sweep")
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is utf-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is utf-8")
}

#[test]
fn sweeps_a_workload_and_reports_per_seed_and_aggregate() {
    let out = sweep(&["--workload", "microbench", "--seeds", "3..7", "--warps", "1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    for seed in ["0x3", "0x4", "0x5", "0x6"] {
        assert!(text.contains(&format!("seed {seed}:")), "missing {seed} in:\n{text}");
    }
    assert!(!text.contains("seed 0x7:"), "range is half-open:\n{text}");
    assert!(text.contains("SIMT efficiency"), "{text}");
    assert!(text.contains("aggregate: mean"), "{text}");
    assert!(text.contains("sweep engine: 4 instances"), "{text}");
    assert!(text.contains("forks") && text.contains("mean occupancy"), "{text}");
    // Barrier-file sweeps never take the scalar escape hatch (that is the
    // hardware models' path), so its line stays suppressed.
    assert!(!text.contains("escape hatch"), "{text}");
}

#[test]
fn divergent_sweeps_report_fork_merge_occupancy() {
    let out = sweep(&["--workload", "seed-storm", "--seeds", "0..16"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("sweep engine: 16 instances"), "{text}");
    let engine_line = text.lines().find(|l| l.starts_with("sweep engine:")).unwrap();
    let grab = |suffix: &str| {
        engine_line
            .split(", ")
            .find_map(|f| f.strip_suffix(suffix))
            .and_then(|n| n.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no `{suffix}` field in {engine_line:?}"))
    };
    assert!(grab(" forks") > 0, "{engine_line}");
    assert!(grab(" merges") > 0, "{engine_line}");
    assert!(!text.contains("escape hatch"), "seed-storm stays in the cohort:\n{text}");
}

#[test]
fn hex_ranges_and_baseline_mode_are_accepted() {
    let out =
        sweep(&["--workload", "microbench", "--seeds", "0x10..0x12", "--warps", "1", "--baseline"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("seed 0x10:") && text.contains("seed 0x11:"), "{text}");
}

#[test]
fn sweep_matches_single_seed_runs() {
    // The sweep's per-seed lines must be exactly what `--seeds N` scalar
    // batches report for the same seeds (shared engine, shared format).
    let swept = sweep(&["--workload", "microbench", "--seeds", "5..7", "--warps", "1"]);
    assert!(swept.status.success(), "stderr: {}", stderr(&swept));
    let text = stdout(&swept);
    let lines: Vec<&str> = text.lines().filter(|l| l.contains("cycles,")).collect();
    assert_eq!(lines.len(), 2, "{text}");
}

/// `sweep` reads every run key `run` reads: a memory hierarchy changes
/// the cycles of a memory-bound workload (8469 on the flat model).
#[test]
fn sweep_honours_the_memory_hierarchy() {
    let cycles = |extra: &[&str]| {
        let mut args = vec!["--workload", "pathtracer", "--seeds", "0..2", "--warps", "1"];
        args.extend(extra);
        let out = sweep(&args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let text = stdout(&out);
        let seed0 = text.lines().find(|l| l.starts_with("  seed 0x0:")).expect("seed 0 line");
        seed0.split(' ').nth(4).and_then(|n| n.parse::<u64>().ok()).expect("cycles")
    };
    assert_eq!(cycles(&[]), 8469);
    let hier = "l1:lines=4,cells=16,lat=2,mshrs=2;dram:lat=24,extra=2";
    assert_ne!(cycles(&["--mem-hier", hier]), 8469);
}

/// A misspelled flag is an error naming it, on a FILE subcommand too.
#[test]
fn misspelled_run_flags_are_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_specrecon"))
        .args(["run", "examples/kernels/listing1.sr", "--mem-heir", "l1:lines=4"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "a typo must not run the default machine");
    assert!(stderr(&out).contains("--mem-heir"), "{}", stderr(&out));
}

#[test]
fn bad_arguments_are_rejected_with_reasons() {
    for (args, needle) in [
        (&["--seeds", "1..4"][..], "missing --workload"),
        (&["--workload", "microbench"], "missing --seeds"),
        (&["--workload", "microbench", "--seeds", "4"], "LO..HI"),
        (&["--workload", "microbench", "--seeds", "9..3"], "empty"),
        (&["--workload", "microbench", "--seeds", "x..y"], "bad seed"),
        (&["--workload", "nope", "--seeds", "1..2"], "unknown workload"),
        (&["--workload", "microbench", "--seeds", "0..2", "--polcy", "minpc"], "--polcy"),
    ] {
        let out = sweep(args);
        assert!(!out.status.success(), "{args:?} should fail");
        let err = stderr(&out);
        assert!(err.contains(needle), "{args:?}: expected {needle:?} in {err:?}");
    }
}
