//! `specrecon` — command-line driver for the textual kernel IR.
//!
//! ```text
//! specrecon verify  FILE                      parse + verify
//! specrecon compile FILE [CKEYS] [--pgo [KEYS]]
//!                                             print the transformed module
//! specrecon detect  FILE                      print §4.5 candidates
//! specrecon run     FILE|--workload NAME [KEYS] [--jobs N] [--trace] [--warp N|all] [--hot] [--pgo]
//!                                             compile, simulate, report
//! specrecon trace   FILE|--workload NAME [KEYS] [--format lanes|jsonl|chrome] [--out F]
//!                   [--warp N|all] [--pgo]    simulate one launch, export trace + journal
//! specrecon lint    FILE [CKEYS] [--raw]      barrier-safety lint of the compiled
//!                                             module (`--raw`: of the input as-is)
//! specrecon dot     FILE [CKEYS] [--pgo [KEYS]]
//!                                             emit a Graphviz CFG
//! specrecon explain FILE                      show predictions, regions, candidates
//! specrecon sweep   --workload NAME --seeds LO..HI [KEYS] [--jobs N]
//!                                             lockstep multi-seed sweep of a
//!                                             built-in workload
//! specrecon serve   [--addr A:P] [--workers N] [--queue-depth N] [--deadline-ms N]
//!                   [--cache N] [--quiet]     HTTP evaluation service
//! specrecon loadgen [--addr A:P] [--connections N] [--requests N] [--workload NAME]
//!                   [--warps N] [--deadline-ms N]
//!                                             benchmark a running service
//! ```
//!
//! KEYS are the run keys of `/v1/eval`, read by the same grammar: the
//! field `a_b` is the flag `--a-b V`. docs/SERVING.md ("Run keys") lists
//! each with its kind, bound and default. FILE is the `kernel` key and
//! `--kernel NAME` its `entry`; `--baseline`, `--speculative` (default)
//! and `--auto` stand for `--mode M`. CKEYS are the compile keys alone
//! (`--threshold`, the mode, `--repair`, `--deconflict`,
//! `--barrier-alloc`): a command that launches nothing takes no other.
//! An unknown flag is an error. `run` and `trace` take the `workload`
//! key, `--workload NAME`, in place of FILE: a built-in workload at its
//! own launch (the Table-2 memory images, warps and seed), where a FILE
//! runs on `--mem` zeroed cells.
//!
//! `run --seeds N` reports N launches and an aggregate, `--seeds LO..HI`
//! runs them as lockstep cohorts and adds the sweep engine's counters;
//! `--jobs` sets the worker threads (default: available parallelism).
//! `--trace` prints lane timelines (`--warp`: default the warps that
//! diverged), `--hot` the hottest blocks, divergence attribution and how
//! the engine served its rounds. `--pgo` profiles a baseline run of the
//! keys' launch, then applies profile-guided §4.5 detection. `serve` and
//! `loadgen` are described in docs/SERVING.md.

use specrecon::analysis::FunctionAnalyses;
use specrecon::ir::{
    module_to_dot, parse_and_link, verify_module, FuncKind, Module, PredictTarget,
};
use specrecon::passes::compute_region;
use specrecon::passes::{compile, compile_profile_guided, detect, DetectOptions};
use specrecon::server::{self, LoadgenConfig, ServeConfig, Server};
use specrecon::sim::{chrome_trace, jsonl, JournalConfig, SeedRun, SimOutput, Trace};
use specrecon::workloads::spec::{compile_options, is_mode, Key};
use specrecon::workloads::{render_run, render_seeds, Engine, RunSpec, Seeds, SpecError};
use std::process::ExitCode;
use std::str::FromStr;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("specrecon: {msg}");
            ExitCode::from(1)
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(
            "usage: specrecon <verify|compile|detect|run|trace|lint|dot|explain> FILE [options] \
                    | specrecon <sweep|serve|loadgen> [options] \
                    (see `src/bin/specrecon.rs` header for details)"
                .to_string(),
        );
    };
    // `sweep`, `serve`, and `loadgen` take no FILE; `run` and `trace`
    // take `--workload NAME` in its place.
    let named = args.get(1).is_some_and(|a| a.starts_with("--"));
    match cmd.as_str() {
        "run" if named => return run_cmd(None, &args[1..]),
        "trace" if named => return trace_cmd(None, &args[1..]),
        "sweep" => return sweep_cmd(&args[1..]),
        "serve" => return serve_cmd(&args[1..]),
        "loadgen" => return loadgen_cmd(&args[1..]),
        _ => {}
    }
    let file = args.get(1).ok_or("missing FILE argument")?;
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let rest = &args[2..];
    if let (Some(arg), "verify" | "detect" | "explain") = (rest.first(), cmd.as_str()) {
        return Err(format!("`{cmd}` takes no options (got `{arg}`)"));
    }
    match cmd.as_str() {
        "verify" => {
            let module = load(&src)?;
            println!(
                "{file}: ok ({} function(s), {} block(s))",
                module.functions.len(),
                module.functions.iter().map(|(_, f)| f.blocks.len()).sum::<usize>()
            );
            Ok(())
        }
        "compile" => compile_cmd(&src, rest).map(|module| print!("{module}")),
        "dot" => compile_cmd(&src, rest).map(|module| print!("{}", module_to_dot(&module))),
        "detect" => {
            let module = load(&src)?;
            let mut found = false;
            for (_, f) in module.functions.iter() {
                if f.kind != FuncKind::Kernel {
                    continue;
                }
                for c in detect(f, &DetectOptions::default()) {
                    found = true;
                    println!(
                        "@{}: {:?} at {} (region start {}), common-code cost {}, \
                         overhead {}, score {:.2}{}",
                        f.name,
                        c.kind,
                        c.target,
                        c.region_start,
                        c.expensive_cost,
                        c.overhead_cost,
                        c.score,
                        if c.score >= 1.0 { "  <- profitable" } else { "" }
                    );
                }
            }
            if !found {
                println!("no reconvergence opportunities detected");
            }
            Ok(())
        }
        "run" => run_cmd(Some((file, &src)), rest),
        "trace" => trace_cmd(Some(&src), rest),
        "lint" => lint_cmd(&src, rest),
        "explain" => explain_cmd(&load(&src)?),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// FILE's text as a verified module, for the commands that launch
/// nothing (the run-key grammar parses it for those that do).
fn load(src: &str) -> Result<Module, String> {
    let module = parse_and_link(src).map_err(|e| e.to_string())?;
    verify_module(&module).map_err(|errs| {
        let lines: String = errs.iter().map(|e| format!("  - {e}\n")).collect();
        format!("verification failed:\n{lines}")
    })?;
    Ok(module)
}

/// One subcommand's arguments: `(key, value)` pairs for the run-spec
/// grammar, and the flags the subcommand handles itself.
struct Args<'a> {
    pairs: Vec<(String, &'a str)>,
    own: Vec<(&'a str, Option<&'a str>)>,
}

/// Subcommand flags that take no value.
const SWITCHES: [&str; 5] = ["--trace", "--hot", "--pgo", "--raw", "--quiet"];

impl<'a> Args<'a> {
    /// Splits `args` into the subcommand's `own` flags and grammar pairs:
    /// a mode alone (`--baseline`) is `("mode", "baseline")`, `--kernel`
    /// is `entry`, and any other `--a-b V` is `("a_b", V)`.
    fn split(args: &'a [String], own: &[&str]) -> Result<Args<'a>, String> {
        let mut out = Args { pairs: Vec::new(), own: Vec::new() };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if own.contains(&arg) && SWITCHES.contains(&arg) {
                out.own.push((arg, None));
            } else if is_mode(name) {
                out.pairs.push((Key::Mode.name().to_string(), name));
            } else {
                let value = args.next().ok_or_else(|| format!("{arg} expects a value"))?;
                if own.contains(&arg) {
                    out.own.push((arg, Some(value)));
                } else if name == "kernel" {
                    out.pairs.push((Key::Entry.name().to_string(), value));
                } else {
                    out.pairs.push((name.replace('-', "_"), value));
                }
            }
        }
        Ok(out)
    }

    fn has(&self, flag: &str) -> bool {
        self.own.iter().any(|&(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.own.iter().find(|&&(f, _)| f == flag).and_then(|&(_, v)| v)
    }

    /// The value of numeric flag `flag`, if given.
    fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag} expects a number")))
            .transpose()
    }

    /// An engine on `--jobs` workers, or on the available parallelism.
    fn engine(&self) -> Result<Engine, String> {
        Ok(self.number("--jobs")?.map_or_else(Engine::with_default_parallelism, Engine::new))
    }

    /// The run spec the pairs describe, over kernel source `src` if given.
    fn spec(&self, src: Option<&str>) -> Result<RunSpec, String> {
        let kernel = src.map(|src| (Key::Kernel.name().to_string(), src));
        let pairs: Vec<_> = kernel.into_iter().chain(self.pairs.iter().cloned()).collect();
        RunSpec::parse(&pairs).map_err(|e| flag_error(&e))
    }

    /// Rejects run keys, for the subcommands that take none.
    fn only_own(&self) -> Result<(), String> {
        let Some((key, _)) = self.pairs.first() else { return Ok(()) };
        Err(flag_error(&SpecError { key: Some(key.clone()), reason: "unknown option".into() }))
    }
}

/// A grammar error in the command line's spelling: `--a-b` for the key
/// `a_b`, `--kernel` for `entry` and FILE for `kernel`.
fn flag_error(e: &SpecError) -> String {
    let flag = match e.key.as_deref() {
        None => return e.reason.clone(),
        Some("entry") => "--kernel".to_string(),
        Some("kernel") => "FILE".to_string(),
        Some(key) => format!("--{}", key.replace('_', "-")),
    };
    format!("{flag}: {}", e.reason)
}

/// Compiles the spec's kernel here rather than in the engine, so that the
/// printers see the compiled module and `--pgo` can first profile a run
/// of the spec's own launch.
fn compile_here(spec: &mut RunSpec, pgo: bool) -> Result<(), String> {
    let Some(opts) = spec.compile.take() else { return Ok(()) };
    let w = &mut spec.workload;
    let compiled = if pgo {
        compile_profile_guided(&w.module, &opts, &DetectOptions::default(), &spec.cfg, &w.launch)
    } else {
        compile(&w.module, &opts)
    };
    w.module = compiled.map_err(|e| e.to_string())?.module;
    Ok(())
}

/// `compile` and `dot`: FILE compiled under the compile keys, or with
/// `--pgo` after profiling a baseline run of the run keys' launch.
fn compile_cmd(src: &str, rest: &[String]) -> Result<Module, String> {
    let args = Args::split(rest, &["--pgo"])?;
    if !args.has("--pgo") {
        let mut module = load(src)?;
        let opts = compile_options(&mut module, &args.pairs).map_err(|e| flag_error(&e))?;
        return compile(&module, &opts).map(|c| c.module).map_err(|e| e.to_string());
    }
    let mut spec = args.spec(Some(src))?;
    if spec.seeds != Seeds::Count(1) {
        return Err("--pgo profiles one launch; drop --seeds".to_string());
    }
    compile_here(&mut spec, true)?;
    Ok(spec.workload.module)
}

/// The one launch of a single-seed spec.
fn run_once(engine: &Engine, spec: &RunSpec) -> Result<SimOutput, String> {
    let mut out = engine.run(spec, None, |run| run).map_err(|e| e.to_string())?;
    let run = out.runs.pop().expect("one seed, one run");
    run.result.map_err(|e| format!("simulation error: {e}"))
}

/// Prints what the compiler would do with each prediction: the resolved
/// region, its escape edges, the exit convergence point, and the §4.5
/// detector's view of the kernel.
fn explain_cmd(module: &Module) -> Result<(), String> {
    for (_, f) in module.functions.iter() {
        if f.kind != FuncKind::Kernel {
            continue;
        }
        println!("kernel @{} ({} blocks, {} regs)", f.name, f.blocks.len(), f.num_regs);
        let mut fa = FunctionAnalyses::default();

        if f.predictions.is_empty() {
            println!("  no user predictions");
        }
        for (i, p) in f.predictions.iter().enumerate() {
            match &p.target {
                PredictTarget::Label(l) => {
                    let Some(target) = f.block_by_label(l) else {
                        println!("  prediction {i}: label `{l}` NOT FOUND");
                        continue;
                    };
                    let region = compute_region(f, &mut fa, p.region_start, &[target]);
                    let blocks: Vec<String> =
                        region.blocks.iter().map(|b| format!("bb{b}")).collect();
                    println!(
                        "  prediction {i}: reconverge at {target} (`{l}`), region start {}{}",
                        p.region_start,
                        p.threshold.map_or(String::new(), |t| format!(", soft threshold {t}"))
                    );
                    println!("    region: {}", blocks.join(" "));
                    for (from, to) in &region.escape_edges {
                        println!("    escape edge: {from} -> {to} (cancel here)");
                    }
                    match region.exit_convergence {
                        Some(x) => println!("    exit convergence: {x}"),
                        None => println!("    exit convergence: none (threads exit)"),
                    }
                }
                PredictTarget::Function(fr) => {
                    println!(
                        "  prediction {i}: interprocedural, reconverge at entry of {fr}                          (region start {})",
                        p.region_start
                    );
                }
            }
        }

        let candidates = detect(f, &DetectOptions::default());
        if candidates.is_empty() {
            println!("  detector: no opportunities");
        }
        for c in candidates {
            println!(
                "  detector: {:?} at {} (start {}), cost {} vs overhead {}, score {:.2}{}",
                c.kind,
                c.target,
                c.region_start,
                c.expensive_cost,
                c.overhead_cost,
                c.score,
                if c.score >= 1.0 { " — profitable" } else { "" }
            );
        }
    }
    Ok(())
}

/// `run`: FILE (`(path, source)`) or, when `None`, the `--workload` key.
fn run_cmd(file: Option<(&str, &str)>, rest: &[String]) -> Result<(), String> {
    let args = Args::split(rest, &["--jobs", "--trace", "--hot", "--warp", "--pgo"])?;
    let mut spec = args.spec(file.map(|(_, src)| src))?;
    spec.cfg.trace = args.has("--trace");
    spec.cfg.profile = args.has("--hot");
    compile_here(&mut spec, args.has("--pgo"))?;
    let engine = args.engine()?;
    if spec.seeds != Seeds::Count(1) {
        return print_seeds(file.map_or(spec.workload.name, |(path, _)| path), &engine, spec);
    }

    let out = run_once(&engine, &spec)?;
    print!("{}", render_run(&out, &spec.workload.module));
    if args.has("--trace") {
        if let Some(trace) = &out.trace {
            for w in select_warps(trace, args.value("--warp"))? {
                println!("\nlane timeline (warp {w}):\n{}", trace.render_lanes(w, 40));
            }
        }
    }
    Ok(())
}

/// Runs a multi-seed spec and prints [`render_seeds`]' report; `name`
/// heads a range. The report reads metrics only, so no seed decodes its
/// final memory. Fails with the first failing seed's error, after
/// printing them all.
fn print_seeds(name: &str, engine: &Engine, mut spec: RunSpec) -> Result<(), String> {
    spec.cfg.final_mem = false;
    let metrics_of = |run: SeedRun| (run.seed, run.result.map(|out| out.metrics));
    let out = engine.run(&spec, None, metrics_of).map_err(|e| e.to_string())?;
    print!("{}", render_seeds(name, engine.jobs(), spec.seeds, &out));
    let first_err = out.runs.iter().find_map(|(_, r)| r.as_ref().err());
    first_err.map_or(Ok(()), |e| Err(format!("simulation error: {e}")))
}

/// The `lint` subcommand: run the barrier-safety lint over the compiled
/// module (or, with `--raw`, over the input module as-is) and print every
/// finding. Exits non-zero if any finding is error-severity.
fn lint_cmd(src: &str, rest: &[String]) -> Result<(), String> {
    use specrecon::passes::{lint_compiled, lint_module, LintSeverity};
    let args = Args::split(rest, &["--raw"])?;
    let mut module = load(src)?;
    let mut opts = compile_options(&mut module, &args.pairs).map_err(|e| flag_error(&e))?;
    let findings = if args.has("--raw") {
        lint_module(&module)
    } else {
        // Disable the pipeline's own lint stage so findings are reported
        // here in structured form instead of as a compile error.
        opts.lint = false;
        lint_compiled(&compile(&module, &opts).map_err(|e| e.to_string())?)
    };
    if findings.is_empty() {
        println!("lint: clean");
        return Ok(());
    }
    for f in &findings {
        println!("{f}");
    }
    let errors = findings.iter().filter(|f| f.severity == LintSeverity::Error).count();
    if errors > 0 {
        return Err(format!("{errors} error(s), {} finding(s) total", findings.len()));
    }
    println!("lint: {} warning(s), no errors", findings.len());
    Ok(())
}

/// The `trace` subcommand: compile, simulate one launch with tracing +
/// journaling forced on, and export the result in the requested format.
fn trace_cmd(src: Option<&str>, rest: &[String]) -> Result<(), String> {
    let args = Args::split(rest, &["--warp", "--format", "--out", "--pgo"])?;
    let mut spec = args.spec(src)?;
    if spec.seeds != Seeds::Count(1) {
        return Err("`trace` records one launch; drop --seeds".to_string());
    }
    compile_here(&mut spec, args.has("--pgo"))?;
    spec.cfg.trace = true;
    spec.cfg.journal = Some(JournalConfig::default());
    let out = run_once(&Engine::new(1), &spec)?;
    let trace = out.trace.as_ref().ok_or("simulator returned no trace")?;
    let warps = match args.value("--warp") {
        Some("all") | None => None,
        selector => Some(select_warps(trace, selector)?),
    };
    let rendered = match args.value("--format").unwrap_or("lanes") {
        "lanes" => {
            let mut text = String::new();
            for w in warps.clone().map_or_else(|| select_warps(trace, None), Ok)? {
                text.push_str(&format!(
                    "lane timeline (warp {w}):\n{}\n",
                    trace.render_lanes(w, 40)
                ));
            }
            if let Some(journal) = &out.journal {
                text.push_str(&format!("\n{}", journal.render_summary()));
            }
            text
        }
        "jsonl" => jsonl(&out, warps.as_deref()),
        "chrome" => chrome_trace(&out, warps.as_deref()),
        other => return Err(format!("unknown --format {other:?} (lanes | jsonl | chrome)")),
    };

    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} bytes to {path}", rendered.len());
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// The `sweep` subcommand: run a built-in workload over a seed range as
/// lockstep cohorts and report per-seed plus aggregate SIMT efficiency.
fn sweep_cmd(rest: &[String]) -> Result<(), String> {
    let args = Args::split(rest, &["--jobs"])?;
    for (key, flag) in [(Key::Workload, "--workload NAME"), (Key::Seeds, "--seeds LO..HI")] {
        if !args.pairs.iter().any(|(k, _)| k == key.name()) {
            return Err(format!("missing {flag}"));
        }
    }
    let spec = args.spec(None)?;
    let Seeds::Range(..) = spec.seeds else {
        return Err("--seeds expects a half-open range LO..HI".to_string());
    };
    print_seeds(spec.workload.name, &args.engine()?, spec)
}

/// The `serve` subcommand: boot the HTTP evaluation service and run its
/// accept loop until SIGTERM/SIGINT, then drain gracefully. `--workers`
/// bounds the evals that run at once (each on its connection's thread),
/// `--queue-depth` the requests that wait for one.
fn serve_cmd(rest: &[String]) -> Result<(), String> {
    let args = Args::split(
        rest,
        &["--addr", "--workers", "--queue-depth", "--deadline-ms", "--cache", "--quiet"],
    )?;
    args.only_own()?;
    let mut cfg = ServeConfig::default();
    cfg.addr = args.value("--addr").map_or(cfg.addr, str::to_string);
    cfg.workers = args.number("--workers")?.unwrap_or(cfg.workers);
    cfg.queue_depth = args.number("--queue-depth")?.unwrap_or(cfg.queue_depth);
    cfg.default_deadline_ms = args.number("--deadline-ms")?.unwrap_or(cfg.default_deadline_ms);
    cfg.cache_capacity = args.number("--cache")?.unwrap_or(cfg.cache_capacity);
    cfg.log = !args.has("--quiet");

    server::signal::install();
    let srv = Server::start(cfg.clone()).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    println!("listening on {}", srv.addr());
    println!(
        "workers={} queue-depth={} deadline-ms={} cache={}",
        cfg.workers, cfg.queue_depth, cfg.default_deadline_ms, cfg.cache_capacity
    );
    let report = srv.run().map_err(|e| format!("serve failed: {e}"))?;
    println!(
        "shutdown: drained {} in-flight request(s), {} request(s) served",
        report.drained, report.ok
    );
    Ok(())
}

/// The `loadgen` subcommand: drive a running service and report
/// throughput plus the latency distribution.
fn loadgen_cmd(rest: &[String]) -> Result<(), String> {
    let args = Args::split(
        rest,
        &["--addr", "--connections", "--requests", "--workload", "--warps", "--deadline-ms"],
    )?;
    args.only_own()?;
    let mut cfg = LoadgenConfig::default();
    cfg.addr = args.value("--addr").map_or(cfg.addr, str::to_string);
    cfg.workload = args.value("--workload").map_or(cfg.workload, str::to_string);
    cfg.connections = args.number("--connections")?.unwrap_or(cfg.connections);
    cfg.requests = args.number("--requests")?.unwrap_or(cfg.requests);
    cfg.warps = args.number("--warps")?.unwrap_or(cfg.warps);
    cfg.deadline_ms = args.number("--deadline-ms")?.unwrap_or(cfg.deadline_ms);

    let report = server::loadgen::run(&cfg)?;
    print!("{}", report.render());
    if report.ok == 0 {
        return Err("no request succeeded".to_string());
    }
    Ok(())
}
/// Resolves the `--warp` selector against a recorded trace: an explicit
/// warp index, `all`, or — by default — every warp that diverged
/// (falling back to warp 0 when none did, so `--trace` always shows
/// something). Explicit indices are validated against the trace.
fn select_warps(trace: &Trace, selector: Option<&str>) -> Result<Vec<usize>, String> {
    match selector {
        Some("all") => Ok((0..trace.num_warps()).collect()),
        Some(n) => {
            let w: usize = n.parse().map_err(|_| "--warp expects a warp index or `all`")?;
            if w >= trace.num_warps() {
                return Err(format!(
                    "--warp {w} out of range (the launch ran {} warp(s))",
                    trace.num_warps()
                ));
            }
            Ok(vec![w])
        }
        None => {
            let divergent = trace.divergent_warps();
            Ok(if divergent.is_empty() { vec![0] } else { divergent })
        }
    }
}
