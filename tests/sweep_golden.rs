//! The sweep golden: what `specrecon sweep` (and `run --seeds N`) prints
//! for the six cohorts of the `seed-sweep` ledger workload (compiled SR,
//! flat memory, seeds `0..32`), one range under the IPDOM stack (a
//! lockstep cohort like the others: its stack is control state) and one
//! count-form run — rendered in process through the printer the commands
//! use ([`render_seeds`]) and compared with `tests/golden/sweep.txt`.
//! Every count in it is exact (per-seed cycles, forks, merges, the data
//! plane's row and access shapes), so a difference is a real change in
//! the cohort; regenerate the golden deliberately with `UPDATE_GOLDEN=1`.
//!
//! One spawned `specrecon sweep` must print its section byte for byte.

use specrecon::sim::SeedRun;
use specrecon::workloads::{render_seeds, Engine, RunSpec};
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sweep.txt");

/// The cohorts of the `seed-sweep` ledger workload.
const COHORTS: [&str; 6] = ["rsbench", "xsbench", "mcb", "mc-gpu", "gpu-mcml", "seed-storm"];

/// The golden's runs: the subcommand and its run keys, in file order.
/// One worker, so a range is one cohort per 32 seeds, as in the ledger.
fn runs() -> Vec<(&'static str, Vec<(&'static str, &'static str)>)> {
    let mut out: Vec<_> = COHORTS
        .iter()
        .map(|&w| ("sweep", vec![("workload", w), ("repair", "sr"), ("seeds", "0..32")]))
        .collect();
    let ipdom = [("workload", "mcb"), ("recon_model", "ipdom-stack"), ("seeds", "0..8")];
    out.push(("sweep", ipdom.to_vec()));
    out.push(("run", vec![("workload", "rsbench"), ("seeds", "4")]));
    out
}

/// The command line of a run, as the golden heads its section.
fn command(sub: &str, keys: &[(&str, &str)]) -> String {
    let flags = keys.iter().map(|(k, v)| format!("--{} {v}", k.replace('_', "-")));
    format!("{sub} {} --jobs 1", flags.collect::<Vec<_>>().join(" "))
}

/// The report of one run, as the command prints it.
fn render(keys: &[(&str, &str)]) -> String {
    let spec = RunSpec::parse(keys).unwrap_or_else(|e| panic!("{keys:?}: {e}"));
    let engine = Engine::new(1);
    let metrics_of = |run: SeedRun| (run.seed, run.result.map(|out| out.metrics));
    let out = engine.run(&spec, None, metrics_of).unwrap_or_else(|e| panic!("{keys:?}: {e}"));
    render_seeds(spec.workload.name, engine.jobs(), spec.seeds, &out)
}

/// The golden file's sections, `(command, report)` in file order.
fn golden_sections(text: &str) -> Vec<(&str, &str)> {
    text.split("## ")
        .skip(1)
        .map(|s| s.split_once('\n').expect("a section opens with its command line"))
        .collect()
}

/// The first line where `got` and `want` differ, 1-based.
fn first_difference(got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let (g, w): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    let i = (0..g.len().max(w.len())).find(|&i| g.get(i) != w.get(i)).unwrap_or(g.len());
    Some(format!("line {}: got {:?}, golden {:?}", i + 1, g.get(i), w.get(i)))
}

#[test]
fn sweep_reports_match_the_golden() {
    let runs = runs();
    let got: Vec<(String, String)> = Engine::with_default_parallelism()
        .par_map(&runs, |(sub, keys)| (command(sub, keys), render(keys)));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let text: String = got.iter().map(|(c, r)| format!("## {c}\n{r}")).collect();
        std::fs::write(GOLDEN, text).expect("golden written");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("{GOLDEN}: {e} (UPDATE_GOLDEN=1 writes it)"));
    let want = golden_sections(&want);
    assert_eq!(want.len(), got.len(), "the golden has a run too many or too few");
    for ((command, report), (want_command, want_report)) in got.iter().zip(want) {
        assert_eq!(command, want_command, "the golden lists another run here");
        if let Some(diff) = first_difference(report, want_report) {
            panic!("{command}: {diff}");
        }
    }
}

/// The command itself prints its golden section.
#[test]
fn the_cli_prints_the_golden_bytes() {
    let (sub, keys) = runs().swap_remove(0);
    let command = command(sub, &keys);
    let out = Command::new(env!("CARGO_BIN_EXE_specrecon"))
        .args(command.split(' '))
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let golden = std::fs::read_to_string(GOLDEN).expect("the golden");
    let (_, want) = golden_sections(&golden)
        .into_iter()
        .find(|(c, _)| *c == command)
        .expect("the golden has the run");
    let got = String::from_utf8(out.stdout).expect("utf-8");
    if let Some(diff) = first_difference(&got, want) {
        panic!("{command}: {diff}");
    }
}
