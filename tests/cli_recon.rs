//! Argument-parsing tests for `--recon-model` on `specrecon run` and
//! `specrecon sweep`, driving the real binary.

use std::process::{Command, Output};

const KERNEL: &str = "examples/kernels/fig2a.sr";

fn specrecon(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_specrecon")).args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is utf-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is utf-8")
}

#[test]
fn run_accepts_every_recon_model() {
    for model in ["barrier-file", "ipdom-stack", "warp-split", "warp-split:window=4,compact"] {
        let out = specrecon(&["run", KERNEL, "--warps", "1", "--recon-model", model]);
        assert!(out.status.success(), "{model}: stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("SIMT efficiency"), "{model}: {text}");
    }
}

#[test]
fn hardware_models_report_their_counters() {
    let out = specrecon(&["run", KERNEL, "--warps", "1", "--recon-model", "ipdom-stack"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("ipdom stack:"), "{}", stdout(&out));

    let out = specrecon(&["run", KERNEL, "--warps", "1", "--recon-model", "warp-split"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("warp splits:"), "{}", stdout(&out));

    // The default Volta model keeps both counter groups silent.
    let out = specrecon(&["run", KERNEL, "--warps", "1"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(!text.contains("ipdom stack:") && !text.contains("warp splits:"), "{text}");
}

/// `run --hot` reports how the engine served its rounds; a hardware
/// model must show hinted rounds (it rides the converged fast path).
#[test]
fn hot_reports_engine_rounds_under_a_hardware_model() {
    for model in ["ipdom-stack", "warp-split:window=4,compact"] {
        let out = specrecon(&["run", KERNEL, "--warps", "1", "--hot", "--recon-model", model]);
        assert!(out.status.success(), "{model}: stderr: {}", stderr(&out));
        let text = stdout(&out);
        let line = text.lines().find(|l| l.starts_with("engine: ")).unwrap_or_else(|| {
            panic!("{model}: no engine line in:\n{text}");
        });
        assert!(line.contains(" hinted, ") && !line.contains("(0 hinted"), "{model}: {line}");
    }
}

#[test]
fn run_rejects_unknown_recon_models() {
    for model in ["volta", "warp-split:gap=3", "warp-split:window=x"] {
        let out = specrecon(&["run", KERNEL, "--recon-model", model]);
        assert!(!out.status.success(), "{model} should be rejected");
        let err = stderr(&out);
        assert!(err.contains("--recon-model"), "{model}: {err}");
    }
}

#[test]
fn sweep_accepts_recon_model_and_runs_in_lockstep() {
    for model in ["ipdom-stack", "warp-split:window=4,compact"] {
        let out = specrecon(&[
            "sweep",
            "--workload",
            "microbench",
            "--seeds",
            "0..4",
            "--warps",
            "1",
            "--recon-model",
            model,
        ]);
        assert!(out.status.success(), "{model}: stderr: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("sweep engine: 4 instances"), "{model}: {text}");
        // Every model runs in the lockstep cohort: no seed steps a scalar
        // machine, so there is no escape-hatch line.
        assert!(!text.contains("instances, 0 lockstep issues"), "{model}: {text}");
        assert!(!text.contains("escape hatch"), "{model}: {text}");
    }
}

#[test]
fn sweep_rejects_unknown_recon_models() {
    let out = specrecon(&[
        "sweep",
        "--workload",
        "microbench",
        "--seeds",
        "0..2",
        "--recon-model",
        "maxwell",
    ]);
    assert!(!out.status.success(), "unknown model must be rejected");
    assert!(stderr(&out).contains("--recon-model"), "{}", stderr(&out));
}
