//! Regenerates the paper's tables and figures as markdown (and CSV files
//! under `results/` when `--csv` is passed).
//!
//! ```text
//! figures [--csv] [--jobs N] [TARGET ...]
//! ```
//!
//! A target is `all` (the default) or the name of one table in
//! `specrecon_bench::TABLES`; an unknown target prints the list. Each
//! table's section is the one EXPERIMENTS.md holds between its markers; a
//! claim of the prose that the render breaks is a warning on stderr.
//! `--jobs N` sets the evaluation engine's worker count (default: the
//! machine's available parallelism). Stdout is byte-identical for every
//! `N`; the job count and each table's wall-clock time go to stderr.

use specrecon_bench::{Table, TABLES};
use std::path::Path;
use std::process::exit;
use std::time::Instant;
use workloads::Engine;

fn main() {
    let mut write_csv = false;
    let mut jobs: Option<usize> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => write_csv = true,
            "--jobs" => jobs = Some(job_count(args.next())),
            _ => match arg.strip_prefix("--jobs=") {
                Some(n) => jobs = Some(job_count(Some(n.to_string()))),
                None => targets.push(arg),
            },
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    let engine = jobs.map_or_else(Engine::with_default_parallelism, Engine::new);
    eprintln!("(evaluation engine: {} jobs)", engine.jobs());
    for target in &targets {
        let tables: Vec<&Table> =
            TABLES.iter().filter(|t| target == "all" || t.name == target).collect();
        if tables.is_empty() {
            usage_error(&format!("unknown target `{target}`"));
        }
        for table in tables {
            emit(table, &engine, write_csv);
        }
    }
}

/// The value of `--jobs`.
fn job_count(value: Option<String>) -> usize {
    let n = value.unwrap_or_else(|| usage_error("--jobs requires a value"));
    n.parse().unwrap_or_else(|_| usage_error(&format!("--jobs: `{n}` is not a number")))
}

/// Prints `message` and the usage, with every target, and exits 2.
fn usage_error(message: &str) -> ! {
    let names: Vec<&str> = TABLES.iter().map(|t| t.name).collect();
    eprintln!("{message}");
    eprintln!("usage: figures [--csv] [--jobs N] [TARGET ...]");
    eprintln!("targets: {} all", names.join(" "));
    exit(2)
}

/// Runs one table, prints it, writes its CSV if asked and reports the
/// wall-clock time.
fn emit(table: &Table, engine: &Engine, write_csv: bool) {
    let t0 = Instant::now();
    let rendered = table.run(engine);
    for claim in table.broken_claims(&rendered) {
        eprintln!("WARNING: {}: the render breaks the claim `{claim}`", table.name);
    }
    print!("{}", table.markdown(&rendered.rows));
    if write_csv {
        let (file, text) = table.csv(&rendered.rows);
        let path = Path::new("results").join(file);
        match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("(wrote {})", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    eprintln!("({}: {:.2}s wall-clock)", table.name, t0.elapsed().as_secs_f64());
}
