//! The repo's benchmark: six workloads, eight end-to-end metrics, and a
//! traced run that gives every layer its own numbers. `README.md` has the
//! reasoning; `run.sh` builds the program and this harness and starts it.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!           --specrecon PATH --root DIR --out DIR
//! benchmark --compare DIR DIR --root DIR
//! ```
//!
//! Without `--workload` every workload runs in turn, each in a process of
//! its own, so that one's peak memory is not the next one's. The last line
//! of standard output is the result of the last workload as one JSON
//! object; the exit code is non-zero if any operation failed. `--compare` is the
//! A/A check of `aa.sh` over two directories of reports.

mod api;
mod calib;
mod compare;
mod http;
mod json;
mod layers;
mod report;
mod script;
mod service;
mod span;
mod stats;
mod workloads;

use report::{Host, Metric, Report, END_TO_END};
use span::Tracer;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};
use workloads::{Ctx, Pass, Workload};

/// Times the set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;
/// Fewest passes a run reports medians over, however short `--seconds`.
const MIN_PASSES: usize = 3;

pub struct Args {
    /// The workload to run; `None` runs all of them, one process each.
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    specrecon: PathBuf,
    /// The checkout: where `examples/` and `.git` are looked for.
    root: PathBuf,
    /// Where the trace and the report files go.
    out: PathBuf,
    /// Two directories of reports to compare instead of measuring.
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        specrecon: PathBuf::new(),
        root: PathBuf::from("."),
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        i += 1;
        // `--trace` may stand alone; every other flag takes a value.
        if flag == "--trace" {
            args.trace = match argv.get(i).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    false
                }
                Some("1") => {
                    i += 1;
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = argv.get(i).ok_or_else(|| format!("{flag} expects a value"))?;
        i += 1;
        match flag {
            "--compare" => {
                let second = argv.get(i).ok_or("--compare expects two directories")?;
                i += 1;
                args.compare = Some((PathBuf::from(value), PathBuf::from(second)));
            }
            "--workload" => {
                if !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?} (known: {})",
                        workloads::NAMES.join(", ")
                    ));
                }
                args.workload = Some(value.clone());
            }
            "--seed" => args.seed = value.parse().map_err(|_| "--seed expects a whole number")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be above 0 and at most 3600".into());
                }
            }
            "--specrecon" => args.specrecon = PathBuf::from(value),
            "--root" => args.root = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.compare.is_none() && !args.specrecon.is_file() {
        return Err(format!("--specrecon {:?} is not a file", args.specrecon));
    }
    Ok(args)
}

/// A workload set up [`SETUPS`] times: the last set-up, the calibrated
/// seconds each took, and the headline figure it computed.
pub struct Ready {
    pub workload: Box<dyn Workload>,
    pub setup_s: Vec<f64>,
    pub sr_speedup_geomean: f64,
}

pub fn set_up(name: &str, ctx: &Ctx) -> Result<Ready, String> {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        // Tearing the previous one down (a service to stop) is not set-up.
        drop(last.take());
        let before = calib::spin();
        let start = Instant::now();
        last = Some(workloads::setup(name, ctx)?);
        let took = start.elapsed().as_secs_f64();
        setup_s.push(took * calib::scale(before, calib::spin()));
    }
    let (workload, sr_speedup_geomean) = last.expect("SETUPS is at least 1");
    Ok(Ready { workload, setup_s, sr_speedup_geomean })
}

/// Runs passes of the script until `seconds` have gone by, and no more
/// than `most`.
pub fn run_passes(
    workload: &mut dyn Workload,
    tr: &mut Tracer,
    seconds: f64,
    most: usize,
) -> Vec<Pass> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || (passes.len() < most && Instant::now() < deadline) {
        workload.prepare();
        passes.push(workload.pass(tr));
    }
    passes
}

/// The untraced run: every end-to-end metric of one workload.
fn end_to_end(name: &str, args: &Args, ctx: &Ctx) -> Result<Report, String> {
    let Ready { mut workload, setup_s, sr_speedup_geomean } = set_up(name, ctx)?;
    let passes = run_passes(workload.as_mut(), &mut Tracer::new(false), args.seconds, usize::MAX);
    let peak_rss_mb = service::peak_rss_mib(workload.pid())?;

    let attempted: u64 = passes.iter().map(|p| p.ops).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let over_passes = |name: &str, unit, values: Vec<f64>| Metric {
        spread: Some(stats::iqr_share(&values)),
        ..Metric::new(name, unit, stats::median(&values))
    };
    let values = [
        over_passes("setup_s", "s", setup_s),
        over_passes("ops_per_s", "1/s", per_pass(&|p| (p.ops - p.failed) as f64 / p.calibrated_s)),
        over_passes("insts_per_s", "1/s", per_pass(&|p| p.insts as f64 / p.calibrated_s)),
        over_passes("op_p50_ms", "ms", per_pass(&|p| p.percentile_ms(50.0))),
        over_passes("op_p90_ms", "ms", per_pass(&|p| p.percentile_ms(90.0))),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb),
        Metric { exact: true, ..Metric::new("sr_speedup_geomean", "ratio", sr_speedup_geomean) },
    ];
    assert!(values.iter().map(|m| (m.name.as_str(), m.unit)).eq(END_TO_END));
    Ok(Report {
        workload: name.to_string(),
        traced: false,
        seed: args.seed,
        passes: passes.iter().map(|p| (p.wall_s, p.calibrated_s)).collect(),
        attempted,
        failed,
        metrics: values.into(),
        notes: passes.iter().flat_map(|p| p.errors.iter().cloned()).take(5).collect(),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    if let Some((first, second)) = &args.compare {
        let declared = args.root.join("BENCHMARK.json");
        let verdict = std::fs::read_to_string(&declared)
            .map_err(|e| format!("{}: {e}", declared.display()))
            .and_then(|text| compare::compare(&text, first, second));
        match verdict {
            Ok((table, agree)) => {
                print!("{table}");
                println!(
                    "{}",
                    if agree { "A/A: the two sets agree" } else { "A/A: the two sets DIFFER" }
                );
                std::process::exit(if agree { 0 } else { 1 });
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                std::process::exit(1);
            }
        }
    }
    let Some(name) = &args.workload else {
        let me = std::env::current_exe().expect("the harness has a path");
        let mut all_correct = true;
        for name in workloads::NAMES {
            let status = Command::new(&me).args(&argv).args(["--workload", name]).status();
            all_correct &= status.is_ok_and(|s| s.success());
        }
        std::process::exit(if all_correct { 0 } else { 1 });
    };
    let ctx = Ctx { seed: args.seed, specrecon: args.specrecon.clone() };
    let host = Host::read(&args.root);
    let report = if args.trace {
        layers::per_layer(name, &args, &ctx)
    } else {
        end_to_end(name, &args, &ctx)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            // A set-up that fails its own checks has no result to print.
            eprintln!("benchmark: {name}: {e}");
            std::process::exit(1);
        }
    };
    let kind = if args.trace { "layers" } else { "end_to_end" };
    let file = args.out.join(format!("{name}.{kind}.json"));
    if let Err(e) =
        std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&file, report.file(&host)))
    {
        eprintln!("benchmark: cannot write {}: {e}", file.display());
        std::process::exit(1);
    }
    print!("{}", report.table(&host));
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
