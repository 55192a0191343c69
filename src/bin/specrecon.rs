//! `specrecon` — command-line driver for the textual kernel IR.
//!
//! ```text
//! specrecon verify  FILE                      parse + verify
//! specrecon compile FILE [MODE]               print the transformed module
//! specrecon detect  FILE                      print §4.5 candidates
//! specrecon run     FILE [MODE] [options]     compile, simulate, report
//! specrecon trace   FILE [MODE] [options]     simulate and export the trace
//! specrecon lint    FILE [MODE]               barrier-safety lint of the
//!                                             compiled module (`--raw` lints
//!                                             the input as-is, uncompiled)
//! specrecon dot     FILE [MODE]               emit a Graphviz CFG
//! specrecon explain FILE                      show predictions, regions, candidates
//! specrecon sweep   [sweep options]           lockstep multi-seed sweep of a
//!                                             built-in workload
//! specrecon serve   [serve options]           HTTP evaluation service
//! specrecon loadgen [loadgen options]         benchmark a running service
//!
//! MODE:      --baseline | --speculative (default) | --auto | --pgo
//!            (--pgo profiles a baseline run, then applies profile-guided
//!             §4.5 detection — run options also shape the profiling run)
//!            --repair R       divergence-repair axis, overrides the mode
//!                             flags: `pdom` | `sr` | `meld` | `sr+meld`
//!                             | `auto` (`meld` is DARM-style control-flow
//!                             melding of divergent if/else arms; `auto`
//!                             lets the per-site cost models pick and
//!                             compose melding + SR)
//! options:   --kernel NAME    kernel to launch (default: first kernel)
//!            --warps N        warps (default 4)
//!            --mem N          global memory cells, zero-initialized (default 1024)
//!            --mem-hier SPEC  memory-hierarchy cost model, e.g.
//!                             `l1:lines=64,cells=16,lat=2,mshrs=4;dram:lat=24,extra=2`
//!                             (levels l1/l2/l3 then dram; omitted = flat model)
//!            --seed S         RNG seed (default 0xC0FFEE)
//!            --recon-model M  hardware reconvergence model: `barrier-file`
//!                             (default, Volta-style), `ipdom-stack`
//!                             (pre-Volta stack), or
//!                             `warp-split[:window=N][,compact]`
//!            --seeds N        run N launches at seeds S..S+N and report each
//!                             plus an aggregate (variance check)
//!            --jobs N         worker threads for multi-seed runs (default:
//!                             available parallelism)
//!            --trace          print a lane-occupancy timeline
//!            --warp N|all     warps to show with --trace and `trace`
//!                             (`run --trace` defaults to the warps that
//!                             diverged; `trace` defaults to all)
//!            --hot            print the hottest blocks plus divergence
//!                             attribution (per-block profile), and how
//!                             the engine served its rounds (hinted,
//!                             batched, general warp-split rounds)
//!
//! trace-only options:
//!            --format F       lanes (default) | jsonl | chrome
//!                             `lanes` prints timelines plus the journal
//!                             summary; `jsonl` streams issues + journal
//!                             events; `chrome` writes a chrome://tracing
//!                             document
//!            --out FILE       write the export to FILE instead of stdout
//!
//! sweep options:
//!            --workload NAME  built-in workload to sweep (Table-2 name,
//!                             `microbench`, `seed-storm`, or `srad`)
//!            --seeds LO..HI   half-open seed range to run (required)
//!            --warps N        override the workload's warp count
//!            --jobs N         worker threads (default: available parallelism)
//!            --recon-model M  reconvergence model (as under `run`; non-default
//!                             models run each seed on a scalar machine)
//!            MODE             --baseline | --speculative (default) | --auto,
//!                             or --repair R as under `compile`/`run`
//!
//! serve options:
//!            --addr A:P       bind address (default 127.0.0.1:8077; port 0
//!                             picks a free port; the bound address is
//!                             printed as `listening on ADDR`)
//!            --workers N      eval worker threads (default: available
//!                             parallelism)
//!            --queue-depth N  bounded queue size; overflow answers 503
//!                             with Retry-After (default 64)
//!            --deadline-ms N  default per-request deadline (default 30000)
//!            --cache N        compiled-image cache capacity (default 128)
//!            --quiet          suppress per-request logs
//!
//! loadgen options:
//!            --addr A:P       server to drive (default 127.0.0.1:8077)
//!            --connections N  concurrent connections (default 4)
//!            --requests N     requests per connection (default 25)
//!            --workload NAME  workload to request (default microbench)
//!            --warps N        warps per launch (default 1)
//!            --deadline-ms N  per-request deadline (default 10000)
//! ```
//!
//! `run` executes on the batch evaluation engine: the kernel is decoded
//! once into a flat execution image and every launch runs against it.

use specrecon::analysis::DomTree;
use specrecon::ir::{
    module_to_dot, parse_and_link, verify_module, FuncKind, Module, PredictTarget, Value,
};
use specrecon::passes::compute_region;
use specrecon::passes::{compile, compile_profile_guided, detect, CompileOptions, DetectOptions};
use specrecon::server::{self, LoadgenConfig, ServeConfig, Server};
use specrecon::sim::{
    chrome_trace, jsonl, JournalConfig, Launch, MemHierarchy, ReconvergenceModel, SimConfig,
    SimOutput, Trace, DEFAULT_SEED,
};
use specrecon::workloads::Engine;
use std::process::ExitCode;

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
                    | specrecon <serve|loadgen> [options] \
                    (see `src/bin/specrecon.rs` header for details)"
                .to_string(),
        );
    };
    // `sweep`, `serve`, and `loadgen` take no FILE; dispatch them before
    // the module-loading path below.
    match cmd.as_str() {
        "sweep" => return sweep_cmd(&args[1..]),
        "serve" => return serve_cmd(&args[1..]),
        "loadgen" => return loadgen_cmd(&args[1..]),
        _ => {}
    }
    let file = args.get(1).ok_or("missing FILE argument")?;
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let module = parse_and_link(&src).map_err(|e| e.to_string())?;
    verify_module(&module).map_err(|errs| {
        let mut m = String::from("verification failed:\n");
        for e in errs {
            m.push_str(&format!("  - {e}\n"));
        }
        m
    })?;

    let rest = &args[2..];
    match cmd.as_str() {
        "verify" => {
            println!(
                "{file}: ok ({} function(s), {} block(s))",
                module.functions.len(),
                module.functions.iter().map(|(_, f)| f.blocks.len()).sum::<usize>()
            );
            Ok(())
        }
        "compile" => {
            let compiled = compile_by_mode(&module, rest)?;
            print!("{}", compiled.module);
            Ok(())
        }
        "detect" => {
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
        "run" => run_cmd(&module, rest),
        "trace" => trace_cmd(&module, rest),
        "lint" => lint_cmd(&module, rest),
        "explain" => explain_cmd(&module),
        "dot" => {
            let compiled = compile_by_mode(&module, rest)?;
            print!("{}", module_to_dot(&compiled.module));
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Compiles according to the mode flags, including `--pgo` (which needs a
/// launch for the profiling run, shaped by the same run options).
fn compile_by_mode(
    module: &Module,
    args: &[String],
) -> Result<specrecon::passes::Compiled, String> {
    if args.iter().any(|a| a == "--pgo") {
        let (cfg, launch) = launch_from_args(module, args)?;
        // `--repair` threads into PGO too: e.g. `--repair auto --pgo`
        // drives both profiled melding and profiled SR detection.
        compile_profile_guided(
            module,
            &mode_options(args)?,
            &DetectOptions::default(),
            &cfg,
            &launch,
        )
        .map_err(|e| e.to_string())
    } else {
        let opts = mode_options(args)?;
        compile(module, &opts).map_err(|e| e.to_string())
    }
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
        let pdt = DomTree::post_dominators(f);

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
                    let region = compute_region(f, &pdt, p.region_start, &[target]);
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

fn mode_options(args: &[String]) -> Result<CompileOptions, String> {
    if let Some(spec) = flag_value(args, "--repair") {
        return Ok(specrecon::passes::RepairStrategy::parse(spec)?.options());
    }
    let mut opts = CompileOptions::speculative();
    for a in args {
        match a.as_str() {
            "--baseline" => opts = CompileOptions::baseline(),
            "--speculative" => opts = CompileOptions::speculative(),
            "--auto" => opts = CompileOptions::automatic(DetectOptions::default()),
            _ => {}
        }
    }
    Ok(opts)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Builds the simulator configuration and launch from the run options.
fn launch_from_args(module: &Module, args: &[String]) -> Result<(SimConfig, Launch), String> {
    let kernel = match flag_value(args, "--kernel") {
        Some(k) => k.to_string(),
        None => module
            .functions
            .iter()
            .find(|(_, f)| f.kind == FuncKind::Kernel)
            .map(|(_, f)| f.name.clone())
            .ok_or("module has no kernel")?,
    };
    let warps: usize = flag_value(args, "--warps")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "--warps expects a number")?;
    let mem: usize = flag_value(args, "--mem")
        .unwrap_or("1024")
        .parse()
        .map_err(|_| "--mem expects a number")?;
    let seed: u64 = match flag_value(args, "--seed") {
        Some(s) => s.parse().map_err(|_| "--seed expects a number")?,
        None => DEFAULT_SEED,
    };
    let want_trace = args.iter().any(|a| a == "--trace");
    let want_hot = args.iter().any(|a| a == "--hot");
    let mut cfg = SimConfig { trace: want_trace, profile: want_hot, ..SimConfig::default() };
    if let Some(spec) = flag_value(args, "--mem-hier") {
        cfg.mem =
            Some(MemHierarchy::parse(spec, &cfg.latency).map_err(|e| format!("--mem-hier: {e}"))?);
    }
    if let Some(spec) = flag_value(args, "--recon-model") {
        cfg.recon = ReconvergenceModel::parse(spec).map_err(|e| format!("--recon-model: {e}"))?;
    }
    let mut launch = Launch::new(kernel, warps);
    launch.global_mem = vec![Value::I64(0); mem];
    launch.seed = seed;
    Ok((cfg, launch))
}

fn run_cmd(module: &Module, args: &[String]) -> Result<(), String> {
    let want_trace = args.iter().any(|a| a == "--trace");
    let want_hot = args.iter().any(|a| a == "--hot");
    let jobs: usize = match flag_value(args, "--jobs") {
        Some(v) => v.parse().map_err(|_| "--jobs expects a number")?,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let seeds: u64 = match flag_value(args, "--seeds") {
        Some(v) => v.parse().map_err(|_| "--seeds expects a number")?,
        None => 1,
    };
    let compiled = compile_by_mode(module, args)?;
    let (cfg, launch) = launch_from_args(module, args)?;
    let engine = Engine::new(jobs);

    if seeds > 1 {
        return run_seed_batch(&engine, &compiled.module, &cfg, &launch, seeds);
    }

    let out = engine.run_module(&compiled.module, &cfg, &launch).map_err(|e| e.to_string())?;
    println!("{}", out.metrics);

    if want_hot {
        let e = &out.engine;
        println!(
            "\nengine: {} rounds ({} hinted, {} general split rounds), {} of {} issues batched, \
             {} mixed rows, {} split-base issues",
            e.rounds,
            e.hinted_rounds,
            e.general_split_rounds,
            e.batched_issues,
            out.metrics.issues,
            e.mixed_rows,
            e.split_base_issues
        );
        if let Some(profile) = &out.profile {
            println!("\nhottest blocks:");
            for ((func, block), stats) in profile.hottest(8) {
                let fname = &compiled.module.functions[func].name;
                println!(
                    "  @{fname}/{block}: {} issues, {} cycles, avg {:.1} lanes",
                    stats.issues,
                    stats.cost,
                    stats.active_lanes as f64 / stats.issues.max(1) as f64
                );
            }
            println!("\ndivergence attribution (lost lane-cycles):");
            for ((func, block), stats) in profile.attribution(cfg.warp_width, 8) {
                let fname = &compiled.module.functions[func].name;
                println!(
                    "  @{fname}/{block}: {} lost lane-cycles, {:.1}% SIMT efficiency",
                    stats.lost_lane_cycles(cfg.warp_width),
                    100.0 * stats.simt_efficiency(cfg.warp_width)
                );
            }
        }
    }
    if want_trace {
        if let Some(trace) = &out.trace {
            for w in select_warps(trace, flag_value(args, "--warp"))? {
                println!("\nlane timeline (warp {w}):\n{}", trace.render_lanes(w, 40));
            }
        }
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

/// The `lint` subcommand: run the barrier-safety lint over the compiled
/// module (or, with `--raw`, over the input module as-is) and print every
/// finding. Exits non-zero if any finding is error-severity.
fn lint_cmd(module: &Module, args: &[String]) -> Result<(), String> {
    use specrecon::passes::{lint_compiled, lint_module, LintSeverity};
    let findings = if args.iter().any(|a| a == "--raw") {
        lint_module(module)
    } else {
        // Disable the pipeline's own lint stage so findings are reported
        // here in structured form instead of as a compile error.
        let mut opts = mode_options(args)?;
        opts.lint = false;
        let compiled = compile(module, &opts).map_err(|e| e.to_string())?;
        lint_compiled(&compiled)
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

/// The `trace` subcommand: compile, simulate with tracing + journaling
/// forced on, and export the result in the requested format.
fn trace_cmd(module: &Module, args: &[String]) -> Result<(), String> {
    let compiled = compile_by_mode(module, args)?;
    let (mut cfg, launch) = launch_from_args(module, args)?;
    cfg.trace = true;
    cfg.journal = Some(JournalConfig::default());
    let engine = Engine::new(1);
    let out = engine.run_module(&compiled.module, &cfg, &launch).map_err(|e| e.to_string())?;

    let warps: Option<Vec<usize>> = match flag_value(args, "--warp") {
        Some("all") | None => None,
        Some(n) => {
            let w: usize = n.parse().map_err(|_| "--warp expects a warp index or `all`")?;
            let num_warps = out.trace.as_ref().map_or(0, Trace::num_warps);
            if w >= num_warps {
                return Err(format!(
                    "--warp {w} out of range (the launch ran {num_warps} warp(s))"
                ));
            }
            Some(vec![w])
        }
    };
    let rendered = match flag_value(args, "--format").unwrap_or("lanes") {
        "lanes" => {
            let trace = out.trace.as_ref().ok_or("simulator returned no trace")?;
            let mut text = String::new();
            let shown = match &warps {
                Some(ws) => ws.clone(),
                None => select_warps(trace, None)?,
            };
            for w in shown {
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

    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} bytes to {path}", rendered.len());
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// Parses a half-open `LO..HI` seed range (decimal or `0x`-prefixed
/// hex).
fn parse_seed_range(s: &str) -> Result<(u64, u64), String> {
    let parse_one = |v: &str| -> Result<u64, String> {
        let v = v.trim();
        match v.strip_prefix("0x") {
            Some(h) => u64::from_str_radix(h, 16),
            None => v.parse(),
        }
        .map_err(|_| format!("bad seed `{v}` in --seeds (expect LO..HI)"))
    };
    let (lo, hi) = s.split_once("..").ok_or("--seeds expects a half-open range LO..HI")?;
    let (lo, hi) = (parse_one(lo)?, parse_one(hi)?);
    if lo >= hi {
        return Err(format!("--seeds range {lo}..{hi} is empty (LO must be below HI)"));
    }
    Ok((lo, hi))
}

/// The `sweep` subcommand: run a built-in workload over a seed range on
/// the lockstep sweep engine and report per-seed plus aggregate SIMT
/// efficiency.
fn sweep_cmd(args: &[String]) -> Result<(), String> {
    use specrecon::workloads::{self, eval};
    let name = flag_value(args, "--workload").ok_or("missing --workload NAME")?;
    let (lo, hi) = parse_seed_range(flag_value(args, "--seeds").ok_or("missing --seeds LO..HI")?)?;
    let jobs: usize = match flag_value(args, "--jobs") {
        Some(v) => v.parse().map_err(|_| "--jobs expects a number")?,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut w = workloads::by_name(name).ok_or_else(|| {
        format!("unknown workload `{name}` (known: {})", workloads::names().join(", "))
    })?;
    if let Some(v) = flag_value(args, "--warps") {
        let warps: usize = v.parse().map_err(|_| "--warps expects a number")?;
        w = w.rebind().warps(warps).done();
    }
    let opts = mode_options(args)?;
    let mut cfg = SimConfig::default();
    if let Some(spec) = flag_value(args, "--recon-model") {
        cfg.recon = ReconvergenceModel::parse(spec).map_err(|e| format!("--recon-model: {e}"))?;
    }
    let engine = Engine::new(jobs);
    let out = engine.run_sweep(&w, Some(&opts), &cfg, lo, hi, None).map_err(|e| e.to_string())?;

    println!("{} over seeds {lo}..{hi} on {} worker(s):", name, engine.jobs());
    let mut ok: Vec<eval::RunSummary> = Vec::new();
    let mut first_err = None;
    for run in &out.runs {
        match &run.result {
            Ok(o) => {
                let s = eval::RunSummary::from(&o.metrics);
                println!(
                    "  seed {:#x}: {} cycles, SIMT efficiency {:.1}%, {} barrier ops",
                    run.seed,
                    s.cycles,
                    100.0 * s.simt_eff,
                    s.barrier_ops
                );
                ok.push(s);
            }
            Err(e) => {
                println!("  seed {:#x}: FAILED: {e}", run.seed);
                first_err.get_or_insert_with(|| e.to_string());
            }
        }
    }
    if !ok.is_empty() {
        let n = ok.len() as f64;
        let mean_cycles = ok.iter().map(|s| s.cycles as f64).sum::<f64>() / n;
        let mean_eff = ok.iter().map(|s| s.simt_eff).sum::<f64>() / n;
        let min = ok.iter().map(|s| s.cycles).min().unwrap_or(0);
        let max = ok.iter().map(|s| s.cycles).max().unwrap_or(0);
        println!(
            "aggregate: mean {mean_cycles:.0} cycles (min {min}, max {max}), \
             mean SIMT efficiency {:.1}%",
            100.0 * mean_eff
        );
    }
    let s = out.stats;
    println!(
        "sweep engine: {} instances, {} lockstep issues, {} forks, {} merges, \
         mean occupancy {:.1} (peak {} sub-cohorts)",
        s.instances,
        s.lockstep_issues,
        s.forks,
        s.merges,
        s.mean_occupancy(),
        s.peak_subcohorts
    );
    println!(
        "  data plane: {} dense / {} mixed operand rows, {} uniform / {} scattered global accesses",
        s.dense_rows, s.mixed_rows, s.uniform_accesses, s.scattered_accesses
    );
    println!(
        "  lane spans: {} hoisted / {} per-lane issues, {} lane runs",
        s.hoisted_issues, s.per_lane_issues, s.lane_runs
    );
    if s.detaches > 0 || s.scalar_steps > 0 {
        println!(
            "  escape hatch: {} seeds re-run standalone, {} scalar steps",
            s.detaches, s.scalar_steps
        );
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The `serve` subcommand: boot the HTTP evaluation service and run its
/// accept loop until SIGTERM/SIGINT, then drain gracefully.
fn serve_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    if let Some(addr) = flag_value(args, "--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(v) = flag_value(args, "--workers") {
        cfg.workers = v.parse().map_err(|_| "--workers expects a number")?;
    }
    if let Some(v) = flag_value(args, "--queue-depth") {
        cfg.queue_depth = v.parse().map_err(|_| "--queue-depth expects a number")?;
    }
    if let Some(v) = flag_value(args, "--deadline-ms") {
        cfg.default_deadline_ms = v.parse().map_err(|_| "--deadline-ms expects a number")?;
    }
    if let Some(v) = flag_value(args, "--cache") {
        cfg.cache_capacity = v.parse().map_err(|_| "--cache expects a number")?;
    }
    if args.iter().any(|a| a == "--quiet") {
        cfg.log = false;
    }

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
fn loadgen_cmd(args: &[String]) -> Result<(), String> {
    let mut cfg = LoadgenConfig::default();
    if let Some(addr) = flag_value(args, "--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(v) = flag_value(args, "--connections") {
        cfg.connections = v.parse().map_err(|_| "--connections expects a number")?;
    }
    if let Some(v) = flag_value(args, "--requests") {
        cfg.requests = v.parse().map_err(|_| "--requests expects a number")?;
    }
    if let Some(w) = flag_value(args, "--workload") {
        cfg.workload = w.to_string();
    }
    if let Some(v) = flag_value(args, "--warps") {
        cfg.warps = v.parse().map_err(|_| "--warps expects a number")?;
    }
    if let Some(v) = flag_value(args, "--deadline-ms") {
        cfg.deadline_ms = v.parse().map_err(|_| "--deadline-ms expects a number")?;
    }

    let report = server::loadgen::run(&cfg)?;
    print!("{}", report.render());
    if report.ok == 0 {
        return Err("no request succeeded".to_string());
    }
    Ok(())
}

/// Runs `seeds` launches (seeds S..S+N) as a parallel batch on the engine
/// and reports per-seed metrics plus an aggregate.
fn run_seed_batch(
    engine: &Engine,
    module: &Module,
    cfg: &SimConfig,
    launch: &Launch,
    seeds: u64,
) -> Result<(), String> {
    let launches: Vec<Launch> = (0..seeds)
        .map(|i| {
            let mut l = launch.clone();
            l.seed = launch.seed.wrapping_add(i);
            l
        })
        .collect();
    let outs: Vec<Result<SimOutput, _>> =
        engine.par_map(&launches, |l| engine.run_module(module, cfg, l));

    println!("{} seeds on {} worker(s):", seeds, engine.jobs());
    let mut ok = Vec::new();
    let mut first_err = None;
    for (l, r) in launches.iter().zip(outs) {
        match r {
            Ok(out) => {
                println!(
                    "  seed {:#x}: {} cycles, SIMT efficiency {:.1}%, {} barrier ops",
                    l.seed,
                    out.metrics.cycles,
                    100.0 * out.metrics.simt_efficiency(),
                    out.metrics.barrier_ops
                );
                ok.push(out);
            }
            Err(e) => {
                println!("  seed {:#x}: FAILED: {e}", l.seed);
                first_err.get_or_insert_with(|| e.to_string());
            }
        }
    }
    if !ok.is_empty() {
        let n = ok.len() as f64;
        let mean_cycles = ok.iter().map(|o| o.metrics.cycles as f64).sum::<f64>() / n;
        let mean_eff = ok.iter().map(|o| o.metrics.simt_efficiency()).sum::<f64>() / n;
        let min = ok.iter().map(|o| o.metrics.cycles).min().unwrap_or(0);
        let max = ok.iter().map(|o| o.metrics.cycles).max().unwrap_or(0);
        println!(
            "aggregate: mean {:.0} cycles (min {min}, max {max}), mean SIMT efficiency {:.1}%",
            mean_cycles,
            100.0 * mean_eff
        );
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
