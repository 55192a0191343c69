//! The six workloads. Each is a fixed script of operations, built from
//! the run seed during set-up and executed pass after pass; the script
//! fixes the work, so every simulated statistic repeats exactly and only
//! host time varies between passes.
//!
//! Why these six, and which layer each isolates or bypasses, is recorded
//! in `README.md` and, one line each, in `BENCHMARK.json`.

use crate::api::{self, Cfg, Image, Kernel, LaunchSpec, Repair};
use crate::calib::{self, Meter};
use crate::http::Conn;
use crate::script::{self, stream, Rng};
use crate::service::Service;
use crate::span::Tracer;
use crate::stats;
use std::path::PathBuf;
use std::time::Instant;

pub const NAMES: [&str; 6] =
    ["lane-hot", "seed-sweep", "model-axes", "compile-cold", "serve-hit", "serve-miss"];

/// Seeds per lockstep cohort in `seed-sweep` and in the range requests of
/// `serve-miss`.
pub const COHORT: u64 = 32;

/// Corpus size of `compile-cold`: the paper's §5.4 application count.
const CORPUS: usize = 520;
/// Load-generating connections of the `serve-*` workloads: one per vCPU
/// of the host the scripts were sized on.
pub const CONNECTIONS: usize = 2;
/// The named workloads `serve-hit` asks for: the three whose simulation is
/// cheapest at one warp (0.25 to 0.5 ms; the other nine cost 0.7 to 11 ms),
/// so that the service's own work is as large a share of a request as named
/// requests allow. `pathtracer` comes from the Table-2 registry, which the
/// service rebuilds for every such request; the other two do not.
pub const HIT_NAMES: [&str; 3] = ["pathtracer", "microbench", "srad"];
/// Rounds over [`HIT_NAMES`] per connection and pass: a pass of about a
/// tenth of a second.
const HIT_ROUNDS: usize = 80;
/// Corpus kernels the inline requests of `serve-miss` start from, and
/// requests per connection and pass.
const MISS_BASES: usize = 100;

/// What the run was started with.
pub struct Ctx {
    pub seed: u64,
    /// The `specrecon` binary built from this checkout.
    pub specrecon: PathBuf,
}

/// One execution of a workload's script.
#[derive(Default)]
pub struct Pass {
    /// Seconds the pass took, as measured, calibration loop included.
    pub wall_s: f64,
    /// Calibrated seconds of the pass (see `calib`).
    pub calibrated_s: f64,
    /// Operations attempted; `ops - failed` completed and were correct.
    pub ops: u64,
    pub failed: u64,
    /// Instructions the completed operations processed: simulated
    /// warp-instruction issues, or compiled instructions on `compile-cold`.
    pub insts: u64,
    /// Latency of each timed call, in calibrated milliseconds.
    pub lat_ms: Vec<f64>,
    /// The first failures, for the report.
    pub errors: Vec<String>,
}

impl Pass {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Nearest-rank percentile of the call latencies, in calibrated
    /// milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        stats::percentile(&self.lat_ms, p)
    }
}

/// A pass of an in-process workload: `script` runs under one `pass` span
/// and times its calls with the meter, which calibrates them.
fn metered_pass(tr: &mut Tracer, script: impl FnOnce(&mut Pass, &mut Meter, &mut Tracer)) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut meter = Meter::start();
    tr.enter("harness", "pass", 0);
    script(&mut pass, &mut meter, tr);
    tr.exit();
    (pass.calibrated_s, pass.lat_ms) = meter.finish();
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

pub trait Workload {
    /// Work a pass needs that its clock must not see.
    fn prepare(&mut self) {}

    /// Runs the script once. Spans go to `tr`, which may be off.
    fn pass(&mut self, tr: &mut Tracer) -> Pass;

    /// The process under test: the harness itself, or the service.
    fn pid(&self) -> u32 {
        std::process::id()
    }
}

/// Builds the workload, checks its outputs against the oracle, and runs
/// one warm-up pass. Everything here is what `setup_s` times.
pub fn setup(name: &str, ctx: &Ctx) -> Result<(Box<dyn Workload>, f64), String> {
    let headline = sr_speedup_geomean()?;
    let mut workload: Box<dyn Workload> = match name {
        "lane-hot" => Box::new(Launches::lane_hot(ctx.seed)?),
        "model-axes" => Box::new(Launches::model_axes(ctx.seed)?),
        "seed-sweep" => Box::new(SeedSweep::new(ctx.seed)?),
        "compile-cold" => Box::new(CompileCold::new(ctx.seed)?),
        "serve-hit" => Box::new(Serve::hit(ctx)?),
        "serve-miss" => Box::new(Serve::miss(ctx)?),
        other => return Err(format!("unknown workload {other:?} (known: {})", NAMES.join(", "))),
    };
    workload.prepare();
    let warm = workload.pass(&mut Tracer::new(false));
    if warm.failed > 0 {
        return Err(format!("warm-up pass of {name}: {}", warm.errors.join("; ")));
    }
    Ok((workload, headline))
}

/// The Table-2 nine plus `srad`, each compiled `pdom` and `sr`: the
/// images of `lane-hot` and `model-axes`.
pub fn table2_images() -> Result<Vec<Image>, String> {
    let mut images = Vec::new();
    for kernel in table2_and_srad() {
        for repair in [Repair::Pdom, Repair::Sr] {
            images.push(kernel.image(repair)?);
        }
    }
    Ok(images)
}

fn table2_and_srad() -> Vec<Kernel> {
    let mut kernels = api::named_kernels();
    kernels.retain(|k| k.name != "microbench" && k.name != "seed-storm");
    kernels
}

/// The paper's headline: geomean over the Table-2 nine of PDOM cycles
/// over SR cycles, at the default launches. It does not depend on the run
/// seed, so a change that only makes the simulator faster leaves every
/// digit of it alone.
pub fn sr_speedup_geomean() -> Result<f64, String> {
    let cfg = Cfg::flat();
    let mut ratios = Vec::new();
    for kernel in table2_and_srad().iter().filter(|k| k.name != "srad") {
        let pdom = kernel.image(Repair::Pdom)?.run(&cfg, LaunchSpec::default())?;
        let sr = kernel.image(Repair::Sr)?.run(&cfg, LaunchSpec::default())?;
        if !sr.same_values(&pdom) {
            return Err(format!("{}: SR changed the kernel's output", kernel.name));
        }
        ratios.push(pdom.cycles() as f64 / sr.cycles() as f64);
    }
    Ok(stats::geomean(&ratios))
}

// ---------------------------------------------------------------- launches

/// One single-seed launch of the script, with what it must produce.
struct LaunchOp {
    image: usize,
    machine: usize,
    spec: LaunchSpec,
    cycles: u64,
    issues: u64,
}

/// A machine configuration of the script.
struct Machine {
    cfg: Cfg,
    /// The layer its launches are charged to.
    layer: &'static str,
    /// Whether the tree-walking oracle models it. It models the memory
    /// hierarchy but not the hardware reconvergence models, which must at
    /// least leave every kernel's output alone.
    oracle: bool,
}

/// `lane-hot` and `model-axes`: single-seed launches of the Table-2
/// images on the decoded engine, under the default machine or under the
/// cost models that are off by default.
pub struct Launches {
    images: Vec<Image>,
    machines: Vec<Machine>,
    script: Vec<LaunchOp>,
}

impl Launches {
    fn lane_hot(seed: u64) -> Result<Launches, String> {
        Launches::new(seed, vec![Machine { cfg: Cfg::flat(), layer: "sim.exec", oracle: true }])
    }

    fn model_axes(seed: u64) -> Result<Launches, String> {
        let machine = |mem, recon, layer, oracle| -> Result<Machine, String> {
            Ok(Machine { cfg: Cfg::new(mem, recon)?, layer, oracle })
        };
        Launches::new(
            seed,
            vec![
                machine(true, "barrier-file", "sim.mem", true)?,
                machine(true, api::WARP_SPLIT, "sim.mem", false)?,
                machine(false, "ipdom-stack", "sim.recon", false)?,
                machine(false, api::WARP_SPLIT, "sim.recon", false)?,
            ],
        )
    }

    fn new(seed: u64, machines: Vec<Machine>) -> Result<Launches, String> {
        let images = table2_images()?;
        let flat = Cfg::flat();
        let mut script = Vec::new();
        for (i, image) in images.iter().enumerate() {
            let spec = LaunchSpec { seed: Some(script::launch_seed(seed, i as u64)), warps: None };
            let mut flat_oracle = None;
            for (m, machine) in machines.iter().enumerate() {
                let got = image.run(&machine.cfg, spec)?;
                let agrees = if machine.oracle {
                    got.same_result(&image.run_reference(&machine.cfg, spec)?)
                } else {
                    if flat_oracle.is_none() {
                        flat_oracle = Some(image.run_reference(&flat, spec)?);
                    }
                    flat_oracle.as_ref().is_some_and(|oracle| got.same_values(oracle))
                };
                if !agrees {
                    return Err(format!(
                        "{}/{} on machine {m} differs from the oracle",
                        image.kernel,
                        image.repair.spec()
                    ));
                }
                script.push(LaunchOp {
                    image: i,
                    machine: m,
                    spec,
                    cycles: got.cycles(),
                    issues: got.issues(),
                });
            }
        }
        Ok(Launches { images, machines, script })
    }
}

impl Workload for Launches {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        metered_pass(tr, |pass, meter, tr| {
            for (n, op) in self.script.iter().enumerate() {
                let machine = &self.machines[op.machine];
                let image = &self.images[op.image];
                tr.set_op(n as u32 + 1);
                let got = meter.time(|| {
                    tr.time(machine.layer, "launch", op.image as u32, || {
                        image.run(&machine.cfg, op.spec)
                    })
                });
                pass.ops += 1;
                match got {
                    Ok(s) if s.cycles() == op.cycles && s.issues() == op.issues => {
                        pass.insts += op.issues
                    }
                    Ok(s) => pass.fail(format!(
                        "{} took {} cycles, expected {}",
                        image.kernel,
                        s.cycles(),
                        op.cycles
                    )),
                    Err(e) => pass.fail(e),
                }
            }
        })
    }
}

// -------------------------------------------------------------- seed sweep

/// The Monte Carlo kernels a seed sweep is the natural experiment for,
/// plus the stressor that forks on every seed.
pub const SWEEP_KERNELS: [&str; 6] =
    ["rsbench", "xsbench", "mcb", "mc-gpu", "gpu-mcml", "seed-storm"];

/// One cohort of the script: its image and what every seed must produce.
pub struct Cohort {
    pub image: Image,
    /// First seed of the cohort.
    pub lo: u64,
    cycles: Vec<u64>,
    pub issues: u64,
}

impl Cohort {
    /// Simulated cycles of the cohort, summed over its seeds.
    pub fn cycles_total(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

/// The SR images of [`SWEEP_KERNELS`], each checked against one
/// single-seed launch per seed of its cohort.
pub fn sweep_cohorts(seed: u64) -> Result<Vec<Cohort>, String> {
    let cfg = Cfg::flat();
    let kernels = api::named_kernels();
    let mut cohorts = Vec::new();
    for (i, name) in SWEEP_KERNELS.iter().enumerate() {
        let kernel = kernels.iter().find(|k| k.name == *name).ok_or("missing sweep kernel")?;
        let image = kernel.image(Repair::Sr)?;
        let lo = script::launch_seed(seed, 100 + i as u64);
        let (runs, _) = image.sweep(&cfg, LaunchSpec::default(), lo, lo + COHORT)?;
        let mut cycles = Vec::new();
        let mut issues = 0;
        for (s, swept) in runs.iter().enumerate() {
            let alone = image.run(&cfg, LaunchSpec { seed: Some(lo + s as u64), warps: None })?;
            if !alone.same_result(swept) {
                return Err(format!(
                    "{name}: seed {} differs between sweep and launch",
                    lo + s as u64
                ));
            }
            cycles.push(alone.cycles());
            issues += alone.issues();
        }
        cohorts.push(Cohort { image, lo, cycles, issues });
    }
    Ok(cohorts)
}

/// `seed-sweep`: 32-seed lockstep cohorts; an operation is one seed.
pub struct SeedSweep {
    cohorts: Vec<Cohort>,
    cfg: Cfg,
}

impl SeedSweep {
    fn new(seed: u64) -> Result<SeedSweep, String> {
        Ok(SeedSweep { cohorts: sweep_cohorts(seed)?, cfg: Cfg::flat() })
    }
}

impl Workload for SeedSweep {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        metered_pass(tr, |pass, meter, tr| {
            for (n, cohort) in self.cohorts.iter().enumerate() {
                tr.set_op(n as u32 + 1);
                let got = meter.time(|| {
                    tr.time("sim.sweep", "sweep", n as u32, || {
                        let (lo, hi) = (cohort.lo, cohort.lo + COHORT);
                        cohort.image.sweep(&self.cfg, LaunchSpec::default(), lo, hi)
                    })
                });
                pass.ops += COHORT;
                match got {
                    Ok((runs, _)) => {
                        let wrong = runs
                            .iter()
                            .zip(&cohort.cycles)
                            .filter(|(run, want)| run.cycles() != **want)
                            .count() as u64;
                        if wrong == 0 {
                            pass.insts += cohort.issues;
                        } else {
                            pass.failed += wrong - 1;
                            pass.fail(format!("{}: {wrong} seeds off", cohort.image.kernel));
                        }
                    }
                    Err(e) => {
                        pass.failed += COHORT - 1;
                        pass.fail(e);
                    }
                }
            }
        })
    }
}

// ------------------------------------------------------------ compile cold

/// The kernels of `compile-cold`: the corpus drawn from the run seed, then
/// the twelve named kernels.
pub fn compile_kernels(seed: u64) -> Vec<Kernel> {
    let mut kernels = api::corpus_kernels(CORPUS, script::corpus_seed(seed));
    kernels.extend(api::named_kernels());
    kernels
}

/// Span name of the pipeline under each strategy.
pub fn compile_span(repair: Repair) -> &'static str {
    match repair {
        Repair::Pdom => "core.compile.pdom",
        Repair::Sr => "core.compile.sr",
        Repair::Meld => "core.compile.meld",
        Repair::SrMeld => "core.compile.sr-meld",
        Repair::Auto => "core.compile.auto",
    }
}

/// Kernel text to decoded image, one layer call per span; returns the
/// image's length.
pub fn front_end(tr: &mut Tracer, tag: u32, text: &str, repair: Repair) -> Result<usize, String> {
    let parsed = tr.time("ir", "ir.parse", tag, || api::parse(text))?;
    tr.time("ir", "ir.verify", tag, || parsed.verify())?;
    let compiled = tr.time("core", compile_span(repair), tag, || parsed.compile(repair))?;
    tr.time("core", "core.lint", tag, || compiled.lint());
    Ok(tr.time("sim.decode", "sim.decode", tag, || compiled.decode()))
}

/// `compile-cold`: the front end only, text to image, no simulation.
pub struct CompileCold {
    texts: Vec<String>,
    /// Expected image length per kernel and strategy.
    insts: Vec<[usize; 5]>,
}

impl CompileCold {
    fn new(seed: u64) -> Result<CompileCold, String> {
        let mut texts = Vec::new();
        let mut insts = Vec::new();
        for kernel in compile_kernels(seed) {
            let parsed = api::parse(&kernel.text)?;
            let mut lens = [0; 5];
            for (r, repair) in Repair::ALL.into_iter().enumerate() {
                // The compiler must be deterministic, or no count below
                // means anything.
                let (a, b) = (parsed.compile(repair)?, parsed.compile(repair)?);
                if a.text() != b.text() {
                    return Err(format!(
                        "{} under {}: two compiles differ",
                        kernel.name,
                        repair.spec()
                    ));
                }
                lens[r] = a.decode();
            }
            texts.push(kernel.text);
            insts.push(lens);
        }
        Ok(CompileCold { texts, insts })
    }
}

impl Workload for CompileCold {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        metered_pass(tr, |pass, meter, tr| {
            for (k, text) in self.texts.iter().enumerate() {
                for (r, repair) in Repair::ALL.into_iter().enumerate() {
                    tr.set_op((k * 5 + r) as u32 + 1);
                    let got = meter.time(|| front_end(tr, k as u32, text, repair));
                    pass.ops += 1;
                    match got {
                        Ok(len) if len == self.insts[k][r] => pass.insts += len as u64,
                        Ok(len) => pass.fail(format!("kernel {k}: {len} instructions out")),
                        Err(e) => pass.fail(e),
                    }
                }
            }
        })
    }
}

// ------------------------------------------------------------------ serve

/// One request of a connection's script.
struct Request {
    /// Index into [`Serve::targets`].
    target: usize,
    body: Vec<u8>,
}

/// What a request names: the image that answers it, and the cycles the
/// answer must carry for each seed from `seed` on: one, or [`COHORT`] of
/// them when the target is asked for as a seed range.
struct Target {
    image: Image,
    warps: Option<usize>,
    /// Kernel text and entry name, on `serve-miss`.
    inline: Option<(String, String)>,
    name: String,
    seed: u64,
    cycles: Vec<u64>,
    /// Issues of those launches, summed.
    issues: u64,
}

impl Target {
    /// The half-open seed range a request for this target names, if any.
    fn range(&self) -> Option<(u64, u64)> {
        (self.cycles.len() > 1).then_some((self.seed, self.seed + self.cycles.len() as u64))
    }
}

/// `serve-hit` and `serve-miss`: a spawned service driven closed-loop
/// over [`CONNECTIONS`] keep-alive connections.
pub struct Serve {
    service: Service,
    conns: Vec<Conn>,
    targets: Vec<Target>,
    scripts: Vec<Vec<Request>>,
    /// Inline kernels sent so far: the next uniquifier.
    sent: u64,
    /// Bytes of response bodies in the last pass.
    pub resp_bytes: u64,
}

impl Serve {
    /// Named requests over [`HIT_NAMES`], one warp each: after the warm-up
    /// pass every request hits the cache.
    pub fn hit(ctx: &Ctx) -> Result<Serve, String> {
        let mut kernels = api::named_kernels();
        kernels.retain(|k| HIT_NAMES.contains(&k.name.as_str()));
        let known = api::service_workload_names();
        if kernels.len() != HIT_NAMES.len() || HIT_NAMES.iter().any(|n| !known.contains(n)) {
            return Err(format!("the service knows {known:?}: the script is out of date"));
        }
        let cfg = Cfg::flat();
        let mut targets = Vec::new();
        for (i, kernel) in kernels.iter().enumerate() {
            let image = kernel.image(Repair::Sr)?;
            let seed = script::launch_seed(ctx.seed, 200 + i as u64);
            let run = image.run(&cfg, LaunchSpec { seed: Some(seed), warps: Some(1) })?;
            targets.push(Target {
                image,
                warps: Some(1),
                inline: None,
                name: kernel.name.clone(),
                seed,
                cycles: vec![run.cycles()],
                issues: run.issues(),
            });
        }
        let mut order = Rng::new(ctx.seed, stream::ORDER);
        let scripts = (0..CONNECTIONS)
            .map(|_| {
                let mut script: Vec<Request> = (0..HIT_ROUNDS * targets.len())
                    .map(|n| {
                        let t = &targets[n % targets.len()];
                        Request {
                            target: n % targets.len(),
                            body: script::named_body(&t.name, 1, t.seed),
                        }
                    })
                    .collect();
                order.shuffle(&mut script);
                script
            })
            .collect();
        Serve::start(ctx, targets, scripts)
    }

    /// Inline kernels the service has never seen: corpus kernels renamed
    /// per request. Every pass asks for each of the [`MISS_BASES`] kernels
    /// once per connection; every fifth, by size, as a 32-seed range sweep.
    ///
    /// The kernels are the ones at evenly spaced ranks of the seeded corpus
    /// ordered by simulated size. A plain draw of a hundred kernels holds
    /// anything from none to several of the rare expensive classes, and the
    /// work of a pass would then depend on the seed more than on the
    /// program.
    pub fn miss(ctx: &Ctx) -> Result<Serve, String> {
        let cfg = Cfg::flat();
        let mut sized = Vec::new();
        for kernel in api::corpus_kernels(CORPUS, script::corpus_seed(ctx.seed)) {
            let image = api::inline_image(&kernel.name, &kernel.text, &kernel.entry, Repair::Sr)?;
            let issues = image.run(&cfg, LaunchSpec::default())?.issues();
            sized.push((issues, kernel, image));
        }
        sized.sort_by(|a, b| (a.0, &a.1.name).cmp(&(b.0, &b.1.name)));
        let stride = sized.len() / MISS_BASES;
        let mut targets = Vec::new();
        for (i, (_, kernel, image)) in
            sized.into_iter().skip(stride / 2).step_by(stride).take(MISS_BASES).enumerate()
        {
            let seed = script::launch_seed(ctx.seed, 300 + i as u64);
            // Every fifth kernel, by size, is asked for as a seed range.
            let seeds = if i % 5 == 2 { COHORT } else { 1 };
            let (mut cycles, mut issues) = (Vec::new(), 0);
            for s in seed..seed + seeds {
                let run = image.run(&cfg, LaunchSpec { seed: Some(s), warps: None })?;
                cycles.push(run.cycles());
                issues += run.issues();
            }
            targets.push(Target {
                image,
                warps: None,
                inline: Some((kernel.text, kernel.entry)),
                name: kernel.name,
                seed,
                cycles,
                issues,
            });
        }
        let mut order = Rng::new(ctx.seed, stream::ORDER);
        let scripts = (0..CONNECTIONS)
            .map(|_| {
                let mut script: Vec<Request> =
                    (0..targets.len()).map(|target| Request { target, body: Vec::new() }).collect();
                order.shuffle(&mut script);
                script
            })
            .collect();
        Serve::start(ctx, targets, scripts)
    }

    fn start(ctx: &Ctx, targets: Vec<Target>, scripts: Vec<Vec<Request>>) -> Result<Serve, String> {
        let service = Service::spawn(&ctx.specrecon)?;
        let conns = (0..CONNECTIONS).map(|_| service.connect()).collect::<Result<_, _>>()?;
        Ok(Serve { service, conns, targets, scripts, sent: 0, resp_bytes: 0 })
    }

    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Gives up the connections and hands the service over, to drain it.
    pub fn into_service(self) -> Service {
        self.service
    }

    /// Repeats in this process what the script asks the service for: the
    /// front end of every inline kernel and every launch, each under its
    /// own span. What a request costs beyond this is the service's own.
    pub fn replay(&self, tr: &mut Tracer) -> Result<(), String> {
        let cfg = Cfg::flat();
        for request in self.scripts.iter().flatten() {
            let target = &self.targets[request.target];
            let tag = request.target as u32;
            if let Some((text, _)) = &target.inline {
                front_end(tr, tag, text, Repair::Sr)?;
            }
            let spec = LaunchSpec { seed: Some(target.seed), warps: target.warps };
            if let Some((lo, hi)) = target.range() {
                tr.time("sim.sweep", "direct", tag, || target.image.sweep(&cfg, spec, lo, hi))?;
            } else {
                tr.time("sim.exec", "direct", tag, || target.image.run(&cfg, spec))?;
            }
        }
        Ok(())
    }
}

/// The `"cycles"` values of a `/v1/eval` response, in order.
pub fn response_cycles(body: &[u8]) -> Vec<u64> {
    const KEY: &[u8] = b"\"cycles\":";
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(pos) = body[at..].windows(KEY.len()).position(|w| w == KEY) {
        let digits = at + pos + KEY.len();
        let start = digits + body[digits..].iter().take_while(|b| **b == b' ').count();
        let len = body[start..].iter().take_while(|b| b.is_ascii_digit()).count();
        if let Some(n) =
            std::str::from_utf8(&body[start..start + len]).ok().and_then(|s| s.parse().ok())
        {
            out.push(n);
        }
        at = start + len;
    }
    out
}

impl Workload for Serve {
    /// Renames the inline kernels of the coming pass, so that none was
    /// ever sent to this service before.
    fn prepare(&mut self) {
        for request in self.scripts.iter_mut().flatten() {
            let target = &self.targets[request.target];
            if let Some((text, entry)) = &target.inline {
                let text = script::uniquify(text, entry, self.sent);
                request.body = script::inline_body(&text, target.seed, target.range());
                self.sent += 1;
            }
        }
    }

    /// The clients run beside each other, so the whole pass is one
    /// calibrated segment; the scripts keep it about as short as one.
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let start = Instant::now();
        tr.enter("harness", "pass", 0);
        let targets = &self.targets;
        let clients = || -> (Vec<(Pass, u64, Tracer)>, f64) {
            let segment = Instant::now();
            let parts = std::thread::scope(|scope| {
                let clients: Vec<_> = self
                    .conns
                    .iter_mut()
                    .zip(&self.scripts)
                    .enumerate()
                    .map(|(c, (conn, script))| {
                        let mut tr = tr.fork();
                        scope.spawn(move || {
                            let mut pass = Pass::default();
                            let mut bytes = 0;
                            for (n, request) in script.iter().enumerate() {
                                let target = &targets[request.target];
                                tr.set_op((c * script.len() + n) as u32 + 1);
                                let t = Instant::now();
                                let got =
                                    tr.time("server", "request", request.target as u32, || {
                                        conn.send("POST", "/v1/eval", &request.body)
                                    });
                                pass.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                pass.ops += 1;
                                match got {
                                    Ok(r) if r.status == 200 => {
                                        bytes += r.body.len() as u64;
                                        if response_cycles(&r.body) == target.cycles {
                                            pass.insts += target.issues;
                                        } else {
                                            pass.fail(format!("{}: wrong cycles", target.name));
                                        }
                                    }
                                    Ok(r) => pass.fail(format!(
                                        "{}: status {} {}",
                                        target.name,
                                        r.status,
                                        String::from_utf8_lossy(&r.body)
                                    )),
                                    Err(e) => pass.fail(format!("{}: {e}", target.name)),
                                }
                            }
                            (pass, bytes, tr)
                        })
                    })
                    .collect();
                clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect()
            });
            (parts, segment.elapsed().as_secs_f64())
        };
        let ((parts, measured_s), scale) = calib::scaled(CONNECTIONS, clients);
        tr.exit();
        let mut pass = Pass { calibrated_s: measured_s * scale, ..Pass::default() };
        self.resp_bytes = 0;
        for (part, bytes, client_tr) in parts {
            pass.ops += part.ops;
            pass.failed += part.failed;
            pass.insts += part.insts;
            pass.lat_ms.extend(part.lat_ms.iter().map(|ms| ms * scale));
            pass.errors.extend(part.errors);
            self.resp_bytes += bytes;
            tr.absorb(client_tr);
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass
    }

    fn pid(&self) -> u32 {
        self.service.pid()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_cycles_of_single_and_sweep_responses() {
        let one = br#"{"workload":"x","runs":[{"seed":7,"cycles":1705,"simt_efficiency":0.5}],"aggregate":{"mean_cycles":1705,"min_cycles":1705,"max_cycles":1705}}"#;
        assert_eq!(response_cycles(one), vec![1705]);
        let two = br#"{"runs":[{"seed":1,"cycles": 10},{"seed":2,"cycles":12}],"aggregate":{"min_cycles":10}}"#;
        assert_eq!(response_cycles(two), vec![10, 12]);
        assert!(response_cycles(b"{\"error\":\"x\"}").is_empty());
    }

    #[test]
    fn sweep_kernels_are_known_by_name() {
        let names: Vec<String> = api::named_kernels().into_iter().map(|k| k.name).collect();
        for k in SWEEP_KERNELS {
            assert!(names.iter().any(|n| n == k), "{k}");
        }
        assert_eq!(table2_and_srad().len(), 10);
    }
}
