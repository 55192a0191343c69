//! The traced run: per-layer metrics, measured from outside by timing the
//! harness's own calls into each layer's public functions.
//!
//! A traced run of a workload does two things. It runs the workload's
//! script a few times without and then with spans, which gives the share
//! of the time each layer holds on that workload (`share.*`) and what
//! tracing costs (`bench.trace_overhead_ratio`). Then it runs one probe
//! per layer; the probes depend on the run seed but not on the workload,
//! so every workload's traced run reports every per-layer metric.
//! All spans end up in `out/trace.json`.

use crate::api::{self, Cfg, Image, ImageCache, LaunchSpec, Observe, Repair, RunStats};
use crate::calib;
use crate::report::{Metric, Report};
use crate::script;
use crate::service;
use crate::span::{self, Tracer};
use crate::stats;
use crate::workloads::{self, Ctx, Pass, Serve, Workload, COHORT, SWEEP_KERNELS};
use crate::{run_passes, set_up, Args, Ready};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// The ten kernels `sim.exec.ns_per_issue.*` has a row for.
const EXEC_KERNELS: [&str; 10] = [
    "rsbench",
    "xsbench",
    "mcb",
    "pathtracer",
    "mc-gpu",
    "mummer",
    "meiyamd5",
    "optix",
    "gpu-mcml",
    "srad",
];

/// The layers `share.*` has a row for.
const SHARE_LAYERS: [&str; 9] = [
    "ir",
    "core",
    "sim.decode",
    "sim.exec",
    "sim.sweep",
    "sim.mem",
    "sim.recon",
    "server",
    "harness",
];

/// Per-layer metrics, in `BENCHMARK.json` order: name and unit. Counts
/// that must repeat bit for bit between two runs of one seed are listed
/// in [`EXACT`].
pub const PER_LAYER: [(&str, &str); 115] = [
    ("share.ir", "ratio"),
    ("share.core", "ratio"),
    ("share.sim.decode", "ratio"),
    ("share.sim.exec", "ratio"),
    ("share.sim.sweep", "ratio"),
    ("share.sim.mem", "ratio"),
    ("share.sim.recon", "ratio"),
    ("share.server", "ratio"),
    ("share.harness", "ratio"),
    ("ir.parse.us_per_kernel", "us"),
    ("ir.parse.mb_per_s", "MB/s"),
    ("ir.verify.us_per_kernel", "us"),
    ("ir.display.us_per_kernel", "us"),
    ("ir.kernels", "count"),
    ("ir.insts_in", "count"),
    ("analysis.dom.us_per_fn", "us"),
    ("analysis.loops.us_per_fn", "us"),
    ("analysis.diamonds.us_per_fn", "us"),
    ("analysis.barriers.us_per_fn", "us"),
    ("core.compile.pdom.us_per_kernel", "us"),
    ("core.compile.sr.us_per_kernel", "us"),
    ("core.compile.meld.us_per_kernel", "us"),
    ("core.compile.sr-meld.us_per_kernel", "us"),
    ("core.compile.auto.us_per_kernel", "us"),
    ("core.detect.us_per_kernel", "us"),
    ("core.detect_melds.us_per_kernel", "us"),
    ("core.barrier_alloc.us_per_kernel", "us"),
    ("core.lint.us_per_kernel", "us"),
    ("core.insts_out.pdom", "count"),
    ("core.insts_out.sr", "count"),
    ("core.insts_out.auto", "count"),
    ("core.candidates_detected", "count"),
    ("core.melds_applied", "count"),
    ("core.lint_findings", "count"),
    ("sim.decode.us_per_kernel", "us"),
    ("sim.decode.image_insts", "count"),
    ("sim.exec.ns_per_issue.rsbench", "ns"),
    ("sim.exec.ns_per_issue.xsbench", "ns"),
    ("sim.exec.ns_per_issue.mcb", "ns"),
    ("sim.exec.ns_per_issue.pathtracer", "ns"),
    ("sim.exec.ns_per_issue.mc-gpu", "ns"),
    ("sim.exec.ns_per_issue.mummer", "ns"),
    ("sim.exec.ns_per_issue.meiyamd5", "ns"),
    ("sim.exec.ns_per_issue.optix", "ns"),
    ("sim.exec.ns_per_issue.gpu-mcml", "ns"),
    ("sim.exec.ns_per_issue.srad", "ns"),
    ("sim.exec.ns_per_issue.geomean", "ns"),
    ("sim.exec.cycles_per_s.geomean", "1/s"),
    ("sim.exec.launch_overhead_us", "us"),
    ("sim.exec.issues_total", "count"),
    ("sim.exec.cycles_total", "count"),
    ("sim.exec.lane_insts_total", "count"),
    ("sim.exec.simt_eff.pdom", "ratio"),
    ("sim.exec.simt_eff.sr", "ratio"),
    ("sim.reference.ns_per_issue.geomean", "ns"),
    ("sim.sweep.ns_per_slot_issue.rsbench", "ns"),
    ("sim.sweep.ns_per_slot_issue.xsbench", "ns"),
    ("sim.sweep.ns_per_slot_issue.mcb", "ns"),
    ("sim.sweep.ns_per_slot_issue.mc-gpu", "ns"),
    ("sim.sweep.ns_per_slot_issue.gpu-mcml", "ns"),
    ("sim.sweep.ns_per_slot_issue.seed-storm", "ns"),
    ("sim.sweep.speedup_vs_scalar.geomean", "ratio"),
    ("sim.sweep.forks", "count"),
    ("sim.sweep.merges", "count"),
    ("sim.sweep.peak_subcohorts", "count"),
    ("sim.sweep.mean_occupancy", "ratio"),
    ("sim.sweep.scalar_steps", "count"),
    ("sim.sweep.cycles_total", "count"),
    ("sim.mem.ns_per_issue.geomean", "ns"),
    ("sim.mem.overhead_ratio", "ratio"),
    ("sim.mem.l1_hit_rate", "ratio"),
    ("sim.mem.l2_hit_rate", "ratio"),
    ("sim.mem.mshr_stall_cycles", "count"),
    ("sim.mem.dram_accesses", "count"),
    ("sim.mem.cycles_total", "count"),
    ("sim.recon.ipdom-stack.ns_per_issue", "ns"),
    ("sim.recon.ipdom-stack.overhead_ratio", "ratio"),
    ("sim.recon.warp-split.ns_per_issue", "ns"),
    ("sim.recon.warp-split.overhead_ratio", "ratio"),
    ("sim.recon.stack_pushes", "count"),
    ("sim.recon.stack_max_depth", "count"),
    ("sim.recon.splits", "count"),
    ("sim.recon.fusions", "count"),
    ("sim.journal.overhead_ratio", "ratio"),
    ("sim.trace.overhead_ratio", "ratio"),
    ("sim.profile.overhead_ratio", "ratio"),
    ("workloads.registry.build_us", "us"),
    ("workloads.engine.hit_us", "us"),
    ("workloads.engine.miss_us", "us"),
    ("workloads.engine.hit_rate", "ratio"),
    ("workloads.engine.evictions", "count"),
    ("workloads.engine.par_map_speedup_j2", "ratio"),
    ("server.json.parse_us", "us"),
    ("server.api.parse_request.named_us", "us"),
    ("server.api.parse_request.inline_us", "us"),
    ("server.api.execute.hit_us", "us"),
    ("server.api.execute.miss_us", "us"),
    ("server.http.healthz_rtt_us", "us"),
    ("server.overhead_share.hit", "ratio"),
    ("server.overhead_share.miss", "ratio"),
    ("server.frontend_share.miss", "ratio"),
    ("server.req_p99_ms.hit", "ms"),
    ("server.req_p99_ms.miss", "ms"),
    ("server.resp_bytes_per_req", "B"),
    ("server.metrics.scrape_ms", "ms"),
    ("server.boot_ms", "ms"),
    ("server.drain_ms", "ms"),
    ("server.queue.depth_peak", "count"),
    ("server.status.non2xx", "count"),
    ("server.cache_hit_rate.hit", "ratio"),
    ("server.cache_hit_rate.miss", "ratio"),
    ("cli.run.wall_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.timer_ns", "ns"),
    ("bench.probe_s", "s"),
];

/// The per-layer metrics that are counts of simulated or compiled work:
/// two runs of one seed must agree on every digit of them, and `aa.sh`
/// checks that they do. Host time, and counts of host scheduling such as
/// `server.queue.depth_peak`, are not here.
pub const EXACT: [&str; 34] = [
    "ir.kernels",
    "ir.insts_in",
    "core.insts_out.pdom",
    "core.insts_out.sr",
    "core.insts_out.auto",
    "core.candidates_detected",
    "core.melds_applied",
    "core.lint_findings",
    "sim.decode.image_insts",
    "sim.exec.issues_total",
    "sim.exec.cycles_total",
    "sim.exec.lane_insts_total",
    "sim.exec.simt_eff.pdom",
    "sim.exec.simt_eff.sr",
    "sim.sweep.forks",
    "sim.sweep.merges",
    "sim.sweep.peak_subcohorts",
    "sim.sweep.mean_occupancy",
    "sim.sweep.scalar_steps",
    "sim.sweep.cycles_total",
    "sim.mem.l1_hit_rate",
    "sim.mem.l2_hit_rate",
    "sim.mem.mshr_stall_cycles",
    "sim.mem.dram_accesses",
    "sim.mem.cycles_total",
    "sim.recon.stack_pushes",
    "sim.recon.stack_max_depth",
    "sim.recon.splits",
    "sim.recon.fusions",
    "workloads.engine.hit_rate",
    "workloads.engine.evictions",
    "server.status.non2xx",
    "server.cache_hit_rate.hit",
    "server.cache_hit_rate.miss",
];

/// Passes of the workload's script run without and then with spans.
const TRACED_PASSES: usize = 5;

/// Measured values by metric name, and the checks the probes made.
#[derive(Default)]
struct Found {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Found {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts one output check of a probe.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(what());
            }
        }
    }

    fn count_passes(&mut self, passes: &[Pass]) {
        self.attempted += passes.iter().map(|p| p.ops).sum::<u64>();
        self.failed += passes.iter().map(|p| p.failed).sum::<u64>();
        self.notes.extend(passes.iter().flat_map(|p| p.errors.iter().cloned()).take(5));
    }
}

/// Mean duration in microseconds of the spans called `name`.
fn mean_us(tr: &Tracer, name: &str) -> f64 {
    let (n, ns) = tr.total(name);
    ns as f64 / n.max(1) as f64 / 1e3
}

/// Runs `body` with a tracer of its own, under one root span, and hands
/// the spans over to `trace` afterwards: a probe's totals then hold its
/// own spans only.
fn probe<R>(
    trace: &mut Tracer,
    name: &'static str,
    body: impl FnOnce(&mut Tracer) -> Result<R, String>,
) -> Result<R, String> {
    let mut tr = trace.fork();
    tr.enter("harness", name, 0);
    let result = body(&mut tr);
    tr.exit();
    trace.absorb(tr);
    result
}

/// The traced run of one workload: every per-layer metric.
pub fn per_layer(name: &str, args: &Args, ctx: &Ctx) -> Result<Report, String> {
    let Ready { mut workload, .. } = set_up(name, ctx)?;
    let mut found = Found::default();
    let mut trace = Tracer::new(true);

    let window = args.seconds / 4.0;
    let plain = run_passes(workload.as_mut(), &mut Tracer::new(false), window, TRACED_PASSES);
    let mut tr = trace.fork();
    let traced = run_passes(workload.as_mut(), &mut tr, window, TRACED_PASSES);
    drop(workload);
    let wall =
        |passes: &[Pass]| stats::median(&passes.iter().map(|p| p.calibrated_s).collect::<Vec<_>>());
    found.set("bench.trace_overhead_ratio", wall(&traced) / wall(&plain));
    let shares = span::layer_shares(tr.spans());
    for layer in SHARE_LAYERS {
        found.set(&format!("share.{layer}"), shares.get(layer).copied().unwrap_or(0.0));
    }
    found.count_passes(&plain);
    found.count_passes(&traced);
    trace.absorb(tr);

    let probes = Instant::now();
    let f = &mut found;
    probe(&mut trace, "probe.front_end", |tr| front_end_probe(ctx.seed, tr, f))?;
    let table2 = probe(&mut trace, "probe.exec", |tr| exec_probe(ctx.seed, tr, f))?;
    probe(&mut trace, "probe.reference", |tr| reference_probe(&table2, tr, f))?;
    probe(&mut trace, "probe.sweep", |tr| sweep_probe(ctx.seed, tr, f))?;
    probe(&mut trace, "probe.models", |tr| models_probe(&table2, tr, f))?;
    probe(&mut trace, "probe.workloads", |tr| workloads_probe(ctx.seed, &table2, tr, f))?;
    probe(&mut trace, "probe.api", |tr| api_probe(ctx.seed, tr, f))?;
    probe(&mut trace, "probe.service", |tr| service_probe(ctx, tr, f))?;
    probe(&mut trace, "probe.cli", |tr| cli_probe(args, tr, f))?;
    found.set("bench.timer_ns", timer_ns());
    found.set("bench.probe_s", probes.elapsed().as_secs_f64());

    let trace_file = args.out.join("trace.json");
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&trace_file, span::render_trace(trace.spans())))
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = found.values.get(*name).ok_or(format!("{name} was not measured"))?;
            Ok(Metric { exact: EXACT.contains(name), ..Metric::new(name, unit, *value) })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report {
        workload: name.to_string(),
        traced: true,
        seed: args.seed,
        passes: traced.iter().map(|p| (p.wall_s, p.calibrated_s)).collect(),
        attempted: found.attempted,
        failed: found.failed,
        metrics,
        notes: found.notes,
    })
}

/// Cost of reading the clock twice, which every span pays.
fn timer_ns() -> f64 {
    const READS: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..READS {
        std::hint::black_box(Instant::now());
    }
    start.elapsed().as_nanos() as f64 / f64::from(READS) * 2.0
}

// ------------------------------------------------- ir, analysis, core, decode

/// Every front-end layer call, one span each, over the kernels of
/// `compile-cold`.
fn front_end_probe(seed: u64, tr: &mut Tracer, found: &mut Found) -> Result<(), String> {
    const PASSES: usize = 2;
    let kernels = workloads::compile_kernels(seed);
    let (mut bytes, mut insts_in, mut functions) = (0, 0, 0);
    let (mut candidates, mut melds, mut findings, mut image_insts) = (0, 0, 0, 0);
    let mut insts_out = [0; 5];
    for pass in 0..PASSES {
        for (k, kernel) in kernels.iter().enumerate() {
            let tag = k as u32;
            let parsed = tr.time("ir", "ir.parse", tag, || api::parse(&kernel.text))?;
            tr.time("ir", "ir.verify", tag, || parsed.verify())?;
            let shown = tr.time("ir", "ir.display", tag, || parsed.display());
            tr.time("analysis", "analysis.dom", tag, || parsed.dom());
            tr.time("analysis", "analysis.loops", tag, || parsed.loops());
            tr.time("analysis", "analysis.diamonds", tag, || parsed.diamonds());
            tr.time("analysis", "analysis.barriers", tag, || parsed.barriers());
            let detected = tr.time("core", "core.detect", tag, || parsed.detect());
            tr.time("core", "core.detect_melds", tag, || parsed.detect_melds());
            if pass == 0 {
                found
                    .check(shown == kernel.text, || format!("{}: print/parse differ", kernel.name));
                bytes += kernel.text.len();
                insts_in += parsed.insts();
                functions += parsed.functions();
                candidates += detected;
            }
            for (r, repair) in Repair::ALL.into_iter().enumerate() {
                let name = workloads::compile_span(repair);
                let compiled = tr.time("core", name, tag, || parsed.compile(repair))?;
                let lint = tr.time("core", "core.lint", tag, || compiled.lint());
                let len = tr.time("sim.decode", "sim.decode", tag, || compiled.decode());
                if repair == Repair::Sr {
                    tr.time("core", "core.barrier_alloc", tag, || compiled.barrier_alloc())?;
                }
                if pass == 0 {
                    insts_out[r] += len;
                    image_insts += len;
                    findings += lint;
                    if repair == Repair::Meld {
                        melds += compiled.melds_applied();
                    }
                }
            }
        }
    }
    for name in ["ir.parse", "ir.verify", "ir.display"] {
        found.set(&format!("{name}.us_per_kernel"), mean_us(tr, name));
    }
    found.set(
        "ir.parse.mb_per_s",
        (bytes * PASSES) as f64 / 1e6 / (tr.total("ir.parse").1 as f64 / 1e9),
    );
    found.set("ir.kernels", kernels.len() as f64);
    found.set("ir.insts_in", insts_in as f64);
    for name in ["analysis.dom", "analysis.loops", "analysis.diamonds", "analysis.barriers"] {
        let per_fn = tr.total(name).1 as f64 / (functions * PASSES) as f64 / 1e3;
        found.set(&format!("{name}.us_per_fn"), per_fn);
    }
    for repair in Repair::ALL {
        let name = workloads::compile_span(repair);
        found.set(&format!("{name}.us_per_kernel"), mean_us(tr, name));
    }
    for name in
        ["core.detect", "core.detect_melds", "core.barrier_alloc", "core.lint", "sim.decode"]
    {
        found.set(&format!("{name}.us_per_kernel"), mean_us(tr, name));
    }
    found.set("core.insts_out.pdom", insts_out[0] as f64);
    found.set("core.insts_out.sr", insts_out[1] as f64);
    found.set("core.insts_out.auto", insts_out[4] as f64);
    found.set("core.candidates_detected", candidates as f64);
    found.set("core.melds_applied", melds as f64);
    found.set("core.lint_findings", findings as f64);
    found.set("sim.decode.image_insts", image_insts as f64);
    Ok(())
}

// ------------------------------------------------ exec, reference, mem, recon

/// The images of `lane-hot` with the launches of its script, and what the
/// flat machine made of them.
struct Table2 {
    images: Vec<Image>,
    specs: Vec<LaunchSpec>,
    flat: Vec<RunStats>,
    /// Calibrated host time of one launch of every image on the flat
    /// machine.
    flat_ns: f64,
}

/// Launches every image `reps` times on `cfg`, one span each. Returns the
/// statistics of the first round and the calibrated nanoseconds of one
/// round, so that rounds run minutes apart can be set against each other.
fn launch_rounds(
    images: &[Image],
    specs: &[LaunchSpec],
    cfg: &Cfg,
    (layer, name): (&'static str, &'static str),
    reps: usize,
    tr: &mut Tracer,
) -> Result<(Vec<RunStats>, f64), String> {
    let mut first = Vec::new();
    let mut calibrated_ns = 0.0;
    for rep in 0..reps {
        let spent = tr.total(name).1;
        let (round, scale) = calib::scaled(1, || {
            images
                .iter()
                .zip(specs)
                .enumerate()
                .map(|(i, (image, spec))| tr.time(layer, name, i as u32, || image.run(cfg, *spec)))
                .collect::<Result<Vec<_>, _>>()
        });
        calibrated_ns += (tr.total(name).1 - spent) as f64 * scale;
        if rep == 0 {
            first = round?;
        }
    }
    Ok((first, calibrated_ns / reps as f64))
}

/// Host nanoseconds per simulated issue of each kernel (its `pdom` and
/// `sr` image together), from the spans called `name`.
fn ns_per_issue_by_kernel(tr: &Tracer, name: &str, stats: &[RunStats]) -> Vec<f64> {
    (0..stats.len() / 2)
        .map(|k| {
            let (n0, ns0) = tr.total_tagged(name, 2 * k as u32);
            let (_, ns1) = tr.total_tagged(name, 2 * k as u32 + 1);
            (ns0 + ns1) as f64 / (n0 * (stats[2 * k].issues() + stats[2 * k + 1].issues())) as f64
        })
        .collect()
}

fn exec_probe(seed: u64, tr: &mut Tracer, found: &mut Found) -> Result<Table2, String> {
    const REPS: usize = 5;
    let images = workloads::table2_images()?;
    let specs: Vec<LaunchSpec> = (0..images.len())
        .map(|i| LaunchSpec { seed: Some(script::launch_seed(seed, i as u64)), warps: None })
        .collect();
    let (flat, flat_ns) =
        launch_rounds(&images, &specs, &Cfg::flat(), ("sim.exec", "exec"), REPS, tr)?;
    let per_kernel = ns_per_issue_by_kernel(tr, "exec", &flat);
    for (kernel, ns) in EXEC_KERNELS.iter().zip(&per_kernel) {
        found.set(&format!("sim.exec.ns_per_issue.{kernel}"), *ns);
    }
    found.set("sim.exec.ns_per_issue.geomean", stats::geomean(&per_kernel));
    let cycles_per_s: Vec<f64> = (0..images.len())
        .map(|i| {
            let (n, ns) = tr.total_tagged("exec", i as u32);
            (n * flat[i].cycles()) as f64 / (ns as f64 / 1e9)
        })
        .collect();
    found.set("sim.exec.cycles_per_s.geomean", stats::geomean(&cycles_per_s));
    let total = |f: &dyn Fn(&RunStats) -> u64| flat.iter().map(f).sum::<u64>() as f64;
    found.set("sim.exec.issues_total", total(&RunStats::issues));
    found.set("sim.exec.cycles_total", total(&RunStats::cycles));
    found.set("sim.exec.lane_insts_total", total(&RunStats::lane_insts));
    for (offset, repair) in ["pdom", "sr"].into_iter().enumerate() {
        let eff: Vec<f64> =
            flat.iter().skip(offset).step_by(2).map(RunStats::simt_efficiency).collect();
        found.set(
            &format!("sim.exec.simt_eff.{repair}"),
            eff.iter().sum::<f64>() / eff.len() as f64,
        );
    }

    // A kernel of one instruction: what a launch costs before the first
    // issue (building the machine, copying the memory).
    const LAUNCHES: usize = 2000;
    let text = "kernel @nop(params=0, regs=1, barriers=0, entry=bb0) {\nbb0:\n  exit\n}\n";
    let nop = api::inline_image("nop", text, "nop", Repair::Pdom)?;
    let cfg = Cfg::flat();
    tr.enter("sim.exec", "launch_overhead", 0);
    for _ in 0..LAUNCHES {
        std::hint::black_box(nop.run(&cfg, LaunchSpec::default())?);
    }
    tr.exit();
    found.set("sim.exec.launch_overhead_us", mean_us(tr, "launch_overhead") / LAUNCHES as f64);
    Ok(Table2 { images, specs, flat, flat_ns })
}

fn reference_probe(t2: &Table2, tr: &mut Tracer, found: &mut Found) -> Result<(), String> {
    let cfg = Cfg::flat();
    for (i, (image, spec)) in t2.images.iter().zip(&t2.specs).enumerate() {
        let oracle =
            tr.time("sim.reference", "reference", i as u32, || image.run_reference(&cfg, *spec))?;
        found.check(oracle.same_result(&t2.flat[i]), || {
            format!("{} differs from the oracle", image.kernel)
        });
    }
    let per_kernel = ns_per_issue_by_kernel(tr, "reference", &t2.flat);
    found.set("sim.reference.ns_per_issue.geomean", stats::geomean(&per_kernel));
    Ok(())
}

/// The cost models and observations that are off by default, on the same
/// images and launches as [`exec_probe`].
fn models_probe(t2: &Table2, tr: &mut Tracer, found: &mut Found) -> Result<(), String> {
    const REPS: usize = 2;
    let rounds = |cfg: Cfg, span: (&'static str, &'static str), tr: &mut Tracer| {
        launch_rounds(&t2.images, &t2.specs, &cfg, span, REPS, tr)
    };
    let ns_per_issue =
        |stats: &[RunStats], ns: f64| ns / stats.iter().map(RunStats::issues).sum::<u64>() as f64;

    let (mem, mem_ns) = rounds(Cfg::new(true, "barrier-file")?, ("sim.mem", "mem"), tr)?;
    found.set(
        "sim.mem.ns_per_issue.geomean",
        stats::geomean(&ns_per_issue_by_kernel(tr, "mem", &mem)),
    );
    found.set("sim.mem.overhead_ratio", mem_ns / t2.flat_ns);
    for (level, name) in ["sim.mem.l1_hit_rate", "sim.mem.l2_hit_rate"].into_iter().enumerate() {
        let (hits, misses) = mem
            .iter()
            .map(|s| s.cache_level(level))
            .fold((0, 0), |(h, m), (hits, misses)| (h + hits, m + misses));
        found.set(name, hits as f64 / (hits + misses).max(1) as f64);
    }
    let total =
        |f: &dyn Fn(&RunStats) -> u64, stats: &[RunStats]| stats.iter().map(f).sum::<u64>() as f64;
    found.set("sim.mem.mshr_stall_cycles", total(&RunStats::mshr_stall_cycles, &mem));
    found.set("sim.mem.dram_accesses", total(&RunStats::dram_accesses, &mem));
    found.set("sim.mem.cycles_total", total(&RunStats::cycles, &mem));
    for (i, stats) in mem.iter().enumerate() {
        found.check(stats.same_values(&t2.flat[i]), || {
            format!("{}: the hierarchy changed a value", t2.images[i].kernel)
        });
    }

    let (stack, stack_ns) =
        rounds(Cfg::new(false, "ipdom-stack")?, ("sim.recon", "ipdom-stack"), tr)?;
    let (split, split_ns) =
        rounds(Cfg::new(false, api::WARP_SPLIT)?, ("sim.recon", "warp-split"), tr)?;
    for (name, stats, ns) in [("ipdom-stack", &stack, stack_ns), ("warp-split", &split, split_ns)] {
        found.set(&format!("sim.recon.{name}.ns_per_issue"), ns_per_issue(stats, ns));
        found.set(&format!("sim.recon.{name}.overhead_ratio"), ns / t2.flat_ns);
        for (i, s) in stats.iter().enumerate() {
            found.check(s.same_values(&t2.flat[i]), || {
                format!("{}: {name} changed a value", t2.images[i].kernel)
            });
        }
    }
    found.set("sim.recon.stack_pushes", total(&RunStats::stack_pushes, &stack));
    found.set(
        "sim.recon.stack_max_depth",
        stack.iter().map(RunStats::stack_max_depth).max().unwrap_or(0) as f64,
    );
    found.set("sim.recon.splits", total(&RunStats::splits, &split));
    found.set("sim.recon.fusions", total(&RunStats::fusions, &split));

    for (name, what, span) in [
        ("sim.journal.overhead_ratio", Observe::Journal, "journal"),
        ("sim.trace.overhead_ratio", Observe::Trace, "trace"),
        ("sim.profile.overhead_ratio", Observe::Profile, "profile"),
    ] {
        let (stats, ns) = rounds(Cfg::flat().observing(what), ("sim.exec", span), tr)?;
        found.set(name, ns / t2.flat_ns);
        for (i, s) in stats.iter().enumerate() {
            found.check(s.cycles() == t2.flat[i].cycles(), || {
                format!("{}: observing {span} changed the cycles", t2.images[i].kernel)
            });
        }
    }
    Ok(())
}

// ------------------------------------------------------------------- sweep

fn sweep_probe(seed: u64, tr: &mut Tracer, found: &mut Found) -> Result<(), String> {
    const REPS: usize = 2;
    let cfg = Cfg::flat();
    let cohorts = workloads::sweep_cohorts(seed)?;
    let (mut forks, mut merges, mut peak, mut scalar_steps) = (0, 0, 0, 0);
    let (mut occupancy, mut speedups) = (Vec::new(), Vec::new());
    for (n, (cohort, kernel)) in cohorts.iter().zip(SWEEP_KERNELS).enumerate() {
        let tag = n as u32;
        let (swept, sweep_scale) = calib::scaled(1, || {
            (0..REPS)
                .map(|_| {
                    tr.time("sim.sweep", "sweep", tag, || {
                        cohort.image.sweep(
                            &cfg,
                            LaunchSpec::default(),
                            cohort.lo,
                            cohort.lo + COHORT,
                        )
                    })
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let counters = swept?[0].1;
        forks += counters.forks;
        merges += counters.merges;
        peak = peak.max(counters.peak_subcohorts);
        scalar_steps += counters.scalar_steps;
        occupancy.push(counters.mean_occupancy);
        let (alone, scalar_scale) = calib::scaled(1, || {
            (cohort.lo..cohort.lo + COHORT).try_for_each(|seed| {
                let spec = LaunchSpec { seed: Some(seed), warps: None };
                tr.time("sim.exec", "scalar", tag, || cohort.image.run(&cfg, spec)).map(|_| ())
            })
        });
        alone?;
        let sweep_ns = tr.total_tagged("sweep", tag).1 as f64 / REPS as f64;
        found
            .set(&format!("sim.sweep.ns_per_slot_issue.{kernel}"), sweep_ns / cohort.issues as f64);
        let scalar_ns = tr.total_tagged("scalar", tag).1 as f64;
        speedups.push(scalar_ns * scalar_scale / (sweep_ns * sweep_scale));
    }
    found.set("sim.sweep.speedup_vs_scalar.geomean", stats::geomean(&speedups));
    found.set("sim.sweep.forks", forks as f64);
    found.set("sim.sweep.merges", merges as f64);
    found.set("sim.sweep.peak_subcohorts", peak as f64);
    found.set("sim.sweep.mean_occupancy", occupancy.iter().sum::<f64>() / occupancy.len() as f64);
    found.set("sim.sweep.scalar_steps", scalar_steps as f64);
    found.set(
        "sim.sweep.cycles_total",
        cohorts.iter().map(|c| c.cycles_total()).sum::<u64>() as f64,
    );
    Ok(())
}

// --------------------------------------------------------------- workloads

/// The registry, the compiled-image cache under eviction, and the batch
/// engine's worker pool.
fn workloads_probe(
    seed: u64,
    t2: &Table2,
    tr: &mut Tracer,
    found: &mut Found,
) -> Result<(), String> {
    for _ in 0..5 {
        tr.time("workloads", "registry.build", 0, api::registry_build);
    }
    found.set("workloads.registry.build_us", mean_us(tr, "registry.build"));

    // More distinct kernels than the cache holds, then the newest again.
    const CAPACITY: usize = 128;
    const DISTINCT: usize = 200;
    const AGAIN: usize = 100;
    let cache = ImageCache::new(CAPACITY);
    let modules = api::corpus_kernels(DISTINCT, script::corpus_seed(seed))
        .iter()
        .map(|k| api::parse(&k.text))
        .collect::<Result<Vec<_>, _>>()?;
    for (k, module) in modules.iter().enumerate() {
        tr.time("workloads", "engine.miss", k as u32, || cache.lookup(module, Repair::Sr))?;
    }
    for (k, module) in modules.iter().enumerate().skip(DISTINCT - AGAIN) {
        tr.time("workloads", "engine.hit", k as u32, || cache.lookup(module, Repair::Sr))?;
    }
    let (hits, misses, evictions) = cache.counters();
    found.set("workloads.engine.miss_us", mean_us(tr, "engine.miss"));
    found.set("workloads.engine.hit_us", mean_us(tr, "engine.hit"));
    found.set("workloads.engine.hit_rate", hits as f64 / (hits + misses) as f64);
    found.set("workloads.engine.evictions", evictions as f64);

    let cfg = Cfg::flat();
    let expected: u64 = t2
        .images
        .iter()
        .map(|i| i.run(&cfg, LaunchSpec::default()).map(|s| s.cycles()))
        .sum::<Result<u64, _>>()?;
    let mut calibrated_ns = [0.0; 2];
    for (jobs, name) in [(1, "par_map.j1"), (2, "par_map.j2")] {
        let (cycles, scale) = calib::scaled(1, || {
            tr.time("workloads", name, 0, || api::par_map_launches(jobs, &t2.images, &cfg))
        });
        found.check(cycles? == expected, || format!("par_map on {jobs} workers: cycles differ"));
        calibrated_ns[jobs - 1] = tr.total(name).1 as f64 * scale;
    }
    found.set("workloads.engine.par_map_speedup_j2", calibrated_ns[0] / calibrated_ns[1]);
    Ok(())
}

// ------------------------------------------------------------------ server

/// The service's public functions, called in this process on request
/// bodies like the ones the `serve-*` scripts send.
fn api_probe(seed: u64, tr: &mut Tracer, found: &mut Found) -> Result<(), String> {
    const INLINE: usize = 40;
    const ROUNDS: usize = 3;
    let named: Vec<Vec<u8>> = api::named_kernels()
        .iter()
        .enumerate()
        .map(|(i, k)| script::named_body(&k.name, 1, script::launch_seed(seed, 200 + i as u64)))
        .collect();
    let inline: Vec<Vec<u8>> = api::corpus_kernels(INLINE, script::corpus_seed(seed))
        .iter()
        .enumerate()
        .map(|(i, k)| script::inline_body(&script::uniquify(&k.text, &k.entry, i as u64), 1, None))
        .collect();
    let cache = ImageCache::new(128);
    for round in 0..ROUNDS {
        for (i, body) in named.iter().enumerate() {
            let tag = i as u32;
            let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
            tr.time("server", "json.parse", tag, || api::server_json_parse(text))?;
            let request =
                tr.time("server", "parse_request.named", tag, || api::server_parse_request(body))?;
            // The first round compiles; the later ones hit the cache.
            let span = if round == 0 { "execute.warm" } else { "execute.hit" };
            tr.time("server", span, tag, || api::server_execute(&cache, &request))?;
        }
    }
    for (i, body) in inline.iter().enumerate() {
        let tag = i as u32;
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        tr.time("server", "json.parse", tag, || api::server_json_parse(text))?;
        let request =
            tr.time("server", "parse_request.inline", tag, || api::server_parse_request(body))?;
        tr.time("server", "execute.miss", tag, || api::server_execute(&cache, &request))?;
    }
    found.set("server.json.parse_us", mean_us(tr, "json.parse"));
    found.set("server.api.parse_request.named_us", mean_us(tr, "parse_request.named"));
    found.set("server.api.parse_request.inline_us", mean_us(tr, "parse_request.inline"));
    found.set("server.api.execute.hit_us", mean_us(tr, "execute.hit"));
    found.set("server.api.execute.miss_us", mean_us(tr, "execute.miss"));
    Ok(())
}

/// Samples a service exports, before and after a pass.
struct Scrape {
    hits: f64,
    misses: f64,
    non_2xx: f64,
    depth_peak: f64,
}

fn scrape(serve: &Serve) -> Result<Scrape, String> {
    let text = serve.service().scrape()?;
    let sample = |name| service::sample(&text, name).ok_or(format!("/metrics has no {name}"));
    Ok(Scrape {
        hits: sample("specrecon_cache_hits_total")?,
        misses: sample("specrecon_cache_misses_total")?,
        non_2xx: service::non_2xx(&text),
        depth_peak: sample("specrecon_queue_depth_peak")?,
    })
}

/// One traced pass of a `serve-*` script against a fresh service, then
/// the same launches (and, for inline kernels, the same front end) in
/// this process: what is left of a request's time is the service's own.
fn serve_pass(
    mut serve: Serve,
    kind: &str,
    tr: &mut Tracer,
    found: &mut Found,
) -> Result<(Serve, Pass, Scrape), String> {
    serve.prepare();
    let warm = serve.pass(&mut Tracer::new(false));
    found.count_passes(std::slice::from_ref(&warm));
    let before = scrape(&serve)?;
    serve.prepare();
    let pass = serve.pass(tr);
    let after = scrape(&serve)?;
    found.count_passes(std::slice::from_ref(&pass));
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    found.set(&format!("server.cache_hit_rate.{kind}"), hits / (hits + misses).max(1.0));
    found.set(&format!("server.req_p99_ms.{kind}"), stats::percentile(&pass.lat_ms, 99.0));
    // Requests are in calibrated time; so is the replay, as one segment.
    let request_ms: f64 = pass.lat_ms.iter().sum();
    let (replayed, scale) = calib::scaled(1, || serve.replay(tr));
    replayed?;
    let replayed_ms =
        |spans: &[&str]| spans.iter().map(|n| tr.total(n).1).sum::<u64>() as f64 / 1e6 * scale;
    found
        .set(&format!("server.overhead_share.{kind}"), 1.0 - replayed_ms(&["direct"]) / request_ms);
    if kind == "miss" {
        let front_end = ["ir.parse", "ir.verify", "core.compile.sr", "core.lint", "sim.decode"];
        found.set("server.frontend_share.miss", replayed_ms(&front_end) / request_ms);
    }
    Ok((serve, pass, after))
}

fn service_probe(ctx: &Ctx, tr: &mut Tracer, found: &mut Found) -> Result<(), String> {
    // Each script in a tracer of its own: they name their spans alike.
    let mut miss_tr = tr.fork();
    let (miss, _, miss_scrape) = serve_pass(Serve::miss(ctx)?, "miss", &mut miss_tr, found)?;
    drop(miss);
    tr.absorb(miss_tr);
    let mut hit_tr = tr.fork();
    let (hit, pass, hit_scrape) = serve_pass(Serve::hit(ctx)?, "hit", &mut hit_tr, found)?;
    tr.absorb(hit_tr);
    found.set("server.resp_bytes_per_req", hit.resp_bytes as f64 / pass.ops as f64);
    found.set("server.boot_ms", hit.service().boot.as_secs_f64() * 1e3);
    found.set("server.queue.depth_peak", hit_scrape.depth_peak.max(miss_scrape.depth_peak));
    found.set("server.status.non2xx", hit_scrape.non_2xx + miss_scrape.non_2xx);

    let mut conn = hit.service().connect()?;
    for _ in 0..200 {
        let r = tr
            .time("server", "healthz", 0, || conn.send("GET", "/healthz", b""))
            .map_err(|e| e.to_string())?;
        found.check(r.status == 200, || format!("/healthz answered {}", r.status));
    }
    found.set("server.http.healthz_rtt_us", mean_us(tr, "healthz"));
    for _ in 0..5 {
        tr.time("server", "metrics.scrape", 0, || hit.service().scrape())?;
    }
    found.set("server.metrics.scrape_ms", mean_us(tr, "metrics.scrape") / 1e3);
    drop(conn);
    let drained = tr.time("server", "drain", 0, || hit.into_service().drain())?;
    found.set("server.drain_ms", drained.as_secs_f64() * 1e3);
    Ok(())
}

// --------------------------------------------------------------------- cli

/// Start-up cost of the command-line tool: one small kernel, spawn to
/// exit.
fn cli_probe(args: &Args, tr: &mut Tracer, found: &mut Found) -> Result<(), String> {
    let kernel = args.root.join("examples/kernels/listing1.sr");
    let mut wall_ms = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let out = tr
            .time("cli", "cli.run", 0, || {
                Command::new(&args.specrecon).arg("run").arg(&kernel).output()
            })
            .map_err(|e| format!("cannot run {}: {e}", args.specrecon.display()))?;
        wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let printed = String::from_utf8_lossy(&out.stdout);
        found.check(out.status.success() && printed.contains("cycles:"), || {
            format!("specrecon run {}: {}", kernel.display(), String::from_utf8_lossy(&out.stderr))
        });
    }
    found.set("cli.run.wall_ms", stats::median(&wall_ms));
    Ok(())
}
