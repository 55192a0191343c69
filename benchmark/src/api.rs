//! The adapter: the only file of the harness that names program symbols.
//!
//! Everything else in the harness works on the types defined here, so a
//! refactor of the program (an executor collapse, a `RunSpec`) has one
//! file to keep compiling. The surface used is listed in `README.md`
//! under "Load-bearing surface"; it is the crate-root re-exports below
//! plus the `specrecon serve` binary and its wire contract.

use simt_analysis::{find_conflicts, find_diamonds, DomTree, LoopForest};
use simt_ir::{parse_and_link, verify_module, Module, Value};
use simt_sim::{
    run_image, run_reference, run_sweep_image, CancelToken, DecodedImage, JournalConfig, Launch,
    MemHierarchy, Metrics, ReconvergenceModel, SimConfig, SimOutput, SweepLaunch,
};
use specrecon_core::{
    allocate_barriers_module, compile, detect, detect_melds, lint_compiled, Compiled,
    DetectOptions, MeldOptions, RepairStrategy,
};
use specrecon_server::api::{execute, known_workloads, parse_request, EvalRequest};
use specrecon_server::json::Json as ServerJson;
use std::hint::black_box;
use workloads::{corpus, microbench, registry, seedstorm, srad, Engine, Workload};

/// The memory-hierarchy spec of `model-axes` (off by default in the
/// program): small enough that the Table-2 kernels miss in both levels.
pub const MEM_HIER: &str =
    "l1:lines=64,cells=16,lat=2,mshrs=4;l2:lines=512,cells=16,lat=8,mshrs=16;dram:lat=24,extra=2";

/// The warp-splitting model of `model-axes`.
pub const WARP_SPLIT: &str = "warp-split:window=4,compact";

/// Global-memory cells an inline `/v1/eval` kernel gets by default.
pub const INLINE_MEM: usize = 1024;

/// A divergence-repair strategy, by its `--repair` spelling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repair {
    Pdom,
    Sr,
    Meld,
    SrMeld,
    Auto,
}

impl Repair {
    pub const ALL: [Repair; 5] =
        [Repair::Pdom, Repair::Sr, Repair::Meld, Repair::SrMeld, Repair::Auto];

    /// The spelling the CLI and `/v1/eval` accept.
    pub fn spec(self) -> &'static str {
        self.strategy().spec()
    }

    fn strategy(self) -> RepairStrategy {
        match self {
            Repair::Pdom => RepairStrategy::Pdom,
            Repair::Sr => RepairStrategy::Sr,
            Repair::Meld => RepairStrategy::Meld,
            Repair::SrMeld => RepairStrategy::SrMeld,
            Repair::Auto => RepairStrategy::Auto,
        }
    }
}

/// A kernel with its default launch: a Table-2 model, `srad`,
/// `microbench`, `seed-storm` or a corpus entry.
pub struct Kernel {
    pub name: String,
    /// Name of the kernel function the default launch starts.
    pub entry: String,
    /// The module as text, annotations included.
    pub text: String,
    workload: Workload,
}

fn kernel(name: &str, workload: Workload) -> Kernel {
    Kernel {
        name: name.to_string(),
        entry: workload.launch.kernel.clone(),
        text: workload.module.to_string(),
        workload,
    }
}

/// The twelve kernels `/v1/eval` knows by name, in the order
/// `known_workloads()` lists them: the Table-2 nine, then `microbench`,
/// `seed-storm` and `srad`.
pub fn named_kernels() -> Vec<Kernel> {
    let mut out: Vec<Kernel> = registry().into_iter().map(|w| kernel(w.name, w)).collect();
    out.push(kernel("microbench", microbench::build_common_call(&microbench::Params::default())));
    out.push(kernel("seed-storm", seedstorm::build(&seedstorm::Params::default())));
    out.push(kernel("srad", srad::build(&srad::Params::default())));
    out
}

/// The names the service accepts; `named_kernels` must cover them.
pub fn service_workload_names() -> Vec<&'static str> {
    known_workloads()
}

/// The §5.4 synthetic corpus: `size` kernels, drawn from `seed`.
pub fn corpus_kernels(size: usize, seed: u64) -> Vec<Kernel> {
    corpus::generate(size, seed)
        .into_iter()
        .map(|e| kernel(&format!("corpus_{}", e.id), e.workload))
        .collect()
}

/// Time to build the Table-2 registry once (what a named request pays).
pub fn registry_build() -> usize {
    black_box(registry()).len()
}

/// How a launch departs from the image's default one.
#[derive(Clone, Copy, Debug, Default)]
pub struct LaunchSpec {
    pub seed: Option<u64>,
    pub warps: Option<usize>,
}

/// Machine configuration of a run.
#[derive(Clone)]
pub struct Cfg(SimConfig);

/// An observation the simulator can record, off by default.
#[derive(Clone, Copy, Debug)]
pub enum Observe {
    Journal,
    Trace,
    Profile,
}

impl Cfg {
    /// Flat memory and the barrier file: the program's defaults.
    pub fn flat() -> Cfg {
        Cfg(SimConfig::default())
    }

    /// `mem_hier` switches [`MEM_HIER`] on; `recon` is a
    /// `--recon-model` spec.
    pub fn new(mem_hier: bool, recon: &str) -> Result<Cfg, String> {
        let mut cfg = SimConfig::default();
        if mem_hier {
            cfg.mem = Some(MemHierarchy::parse(MEM_HIER, &cfg.latency)?);
        }
        cfg.recon = ReconvergenceModel::parse(recon)?;
        Ok(Cfg(cfg))
    }

    pub fn observing(mut self, what: Observe) -> Cfg {
        match what {
            Observe::Journal => self.0.journal = Some(JournalConfig::default()),
            Observe::Trace => self.0.trace = true,
            Observe::Profile => self.0.profile = true,
        }
        self
    }
}

/// What one launch produced.
#[derive(Clone, Debug)]
pub struct RunStats {
    metrics: Metrics,
    global_mem: Vec<Value>,
}

impl RunStats {
    fn of(out: SimOutput) -> RunStats {
        RunStats { metrics: out.metrics, global_mem: out.global_mem }
    }

    pub fn cycles(&self) -> u64 {
        self.metrics.cycles
    }

    pub fn issues(&self) -> u64 {
        self.metrics.issues
    }

    pub fn lane_insts(&self) -> u64 {
        self.metrics.lane_insts
    }

    pub fn simt_efficiency(&self) -> f64 {
        self.metrics.simt_efficiency()
    }

    /// Hits and misses of cache level `level` (0 = L1).
    pub fn cache_level(&self, level: usize) -> (u64, u64) {
        let l = &self.metrics.mem.levels[level];
        (l.hits, l.misses)
    }

    pub fn mshr_stall_cycles(&self) -> u64 {
        self.metrics.mem.levels.iter().map(|l| l.mshr_stall_cycles).sum()
    }

    pub fn dram_accesses(&self) -> u64 {
        self.metrics.mem.dram_accesses
    }

    pub fn stack_pushes(&self) -> u64 {
        self.metrics.recon.stack_pushes
    }

    pub fn stack_max_depth(&self) -> u64 {
        self.metrics.recon.stack_max_depth
    }

    pub fn splits(&self) -> u64 {
        self.metrics.recon.splits
    }

    pub fn fusions(&self) -> u64 {
        self.metrics.recon.fusions
    }

    /// Same cycles, same counters, same final memory.
    pub fn same_result(&self, other: &RunStats) -> bool {
        self.metrics == other.metrics && self.global_mem == other.global_mem
    }

    /// Same final memory, up to float rounding: what every cost model and
    /// every repair must leave alone. Another schedule may add a cell's
    /// atomic float contributions in another order, so floats are compared
    /// as the program's own `compare` does, to one part in 10^9.
    pub fn same_values(&self, other: &RunStats) -> bool {
        self.global_mem.len() == other.global_mem.len()
            && self.global_mem.iter().zip(&other.global_mem).all(|pair| match pair {
                (Value::F64(p), Value::F64(q)) => {
                    (p - q).abs() <= 1e-9 * (1.0 + p.abs().max(q.abs()))
                }
                (x, y) => x == y,
            })
    }
}

/// Counters of the lockstep sweep engine over one cohort.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SweepCounters {
    pub forks: u64,
    pub merges: u64,
    pub peak_subcohorts: u64,
    pub mean_occupancy: f64,
    pub scalar_steps: u64,
}

/// A kernel compiled under one repair strategy and decoded.
pub struct Image {
    pub kernel: String,
    pub repair: Repair,
    module: Module,
    decoded: DecodedImage,
    launch: Launch,
}

impl Kernel {
    pub fn image(&self, repair: Repair) -> Result<Image, String> {
        let compiled = compile(&self.workload.module, &repair.strategy().options())
            .map_err(|e| format!("{} under {}: {e}", self.name, repair.spec()))?;
        let decoded = DecodedImage::decode(&compiled.module);
        Ok(Image {
            kernel: self.name.clone(),
            repair,
            module: compiled.module,
            decoded,
            launch: self.workload.launch.clone(),
        })
    }
}

/// Compiles kernel text as the service compiles an inline kernel. The
/// default launch is the one `/v1/eval` gives it: `entry`, four warps, no
/// arguments, [`INLINE_MEM`] zeroed cells of global memory.
pub fn inline_image(name: &str, text: &str, entry: &str, repair: Repair) -> Result<Image, String> {
    let parsed = parse(text)?;
    parsed.verify()?;
    let compiled = parsed.compile(repair)?.0;
    let decoded = DecodedImage::decode(&compiled.module);
    let mut launch = Launch::new(entry, 4);
    launch.global_mem = vec![Value::I64(0); INLINE_MEM];
    Ok(Image { kernel: name.to_string(), repair, module: compiled.module, decoded, launch })
}

impl Image {
    fn launch(&self, spec: LaunchSpec) -> Launch {
        let mut launch = self.launch.clone();
        if let Some(seed) = spec.seed {
            launch.seed = seed;
        }
        if let Some(warps) = spec.warps {
            launch.num_warps = warps;
        }
        launch
    }

    /// One launch on the decoded engine.
    pub fn run(&self, cfg: &Cfg, spec: LaunchSpec) -> Result<RunStats, String> {
        run_image(&self.decoded, &cfg.0, &self.launch(spec))
            .map(RunStats::of)
            .map_err(|e| format!("{}/{}: {e}", self.kernel, self.repair.spec()))
    }

    /// The same launch on the tree-walking oracle.
    pub fn run_reference(&self, cfg: &Cfg, spec: LaunchSpec) -> Result<RunStats, String> {
        run_reference(&self.module, &cfg.0, &self.launch(spec))
            .map(RunStats::of)
            .map_err(|e| format!("{}/{} (reference): {e}", self.kernel, self.repair.spec()))
    }

    /// Seeds `lo..hi` as one lockstep cohort; per-seed results in seed
    /// order.
    pub fn sweep(
        &self,
        cfg: &Cfg,
        spec: LaunchSpec,
        lo: u64,
        hi: u64,
    ) -> Result<(Vec<RunStats>, SweepCounters), String> {
        let sweep = SweepLaunch::new(self.launch(spec), lo, hi);
        let out = run_sweep_image(&self.decoded, &cfg.0, &sweep, None)
            .map_err(|e| format!("{} sweep: {e}", self.kernel))?;
        let s = out.stats;
        let counters = SweepCounters {
            forks: s.forks,
            merges: s.merges,
            peak_subcohorts: u64::from(s.peak_subcohorts),
            mean_occupancy: s.mean_occupancy(),
            scalar_steps: s.scalar_steps,
        };
        let runs = out
            .runs
            .into_iter()
            .map(|r| r.result.map(RunStats::of).map_err(|e| format!("seed {}: {e}", r.seed)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((runs, counters))
    }
}

/// Runs every image once on `jobs` worker threads of the batch engine and
/// returns the cycles summed, so that the work cannot be skipped.
pub fn par_map_launches(jobs: usize, images: &[Image], cfg: &Cfg) -> Result<u64, String> {
    let engine = Engine::new(jobs);
    let runs = engine.par_map(images, |img| img.run(cfg, LaunchSpec::default()));
    runs.into_iter().map(|r| r.map(|s| s.cycles())).sum()
}

/// A parsed and linked module.
pub struct Parsed(Module);

/// Kernel text to a linked module (`ir`).
pub fn parse(text: &str) -> Result<Parsed, String> {
    parse_and_link(text).map(Parsed).map_err(|e| e.to_string())
}

impl Parsed {
    pub fn verify(&self) -> Result<(), String> {
        verify_module(&self.0)
            .map_err(|errs| errs.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; "))
    }

    /// The printer: what the engine's cache key is made of.
    pub fn display(&self) -> String {
        self.0.to_string()
    }

    pub fn functions(&self) -> usize {
        self.0.functions.iter().count()
    }

    /// Instructions in the module, terminators included.
    pub fn insts(&self) -> usize {
        self.0.functions.iter().map(|(_, f)| f.inst_count()).sum()
    }

    /// Dominator and post-dominator trees of every function.
    pub fn dom(&self) {
        for (_, f) in self.0.functions.iter() {
            black_box((DomTree::dominators(f), DomTree::post_dominators(f)));
        }
    }

    /// The loop forest of every function (its dominator tree included).
    pub fn loops(&self) {
        for (_, f) in self.0.functions.iter() {
            black_box(LoopForest::new(f, &DomTree::dominators(f)));
        }
    }

    pub fn diamonds(&self) -> usize {
        self.0.functions.iter().map(|(_, f)| find_diamonds(f).len()).sum()
    }

    /// Barrier liveness and joined-set analysis, through the conflict
    /// finder that runs both.
    pub fn barriers(&self) -> usize {
        self.0.functions.iter().map(|(_, f)| find_conflicts(f).len()).sum()
    }

    /// §4.5 detection: candidates found, over all functions.
    pub fn detect(&self) -> usize {
        let opts = DetectOptions::default();
        self.0.functions.iter().map(|(_, f)| detect(f, &opts).len()).sum()
    }

    pub fn detect_melds(&self) -> usize {
        let opts = MeldOptions::default();
        self.0.functions.iter().map(|(_, f)| detect_melds(f, &opts).len()).sum()
    }

    /// The pass pipeline under `repair` (`core`).
    pub fn compile(&self, repair: Repair) -> Result<CompiledKernel, String> {
        compile(&self.0, &repair.strategy().options())
            .map(CompiledKernel)
            .map_err(|e| format!("{}: {e}", repair.spec()))
    }
}

/// Pipeline output: the transformed module and the pass reports.
pub struct CompiledKernel(Compiled);

impl CompiledKernel {
    pub fn text(&self) -> String {
        self.0.module.to_string()
    }

    /// The barrier-safety lint; returns the findings.
    pub fn lint(&self) -> usize {
        lint_compiled(&self.0).len()
    }

    pub fn melds_applied(&self) -> usize {
        self.0.reports.iter().map(|(_, r)| r.meld.melded.len()).sum()
    }

    /// Barrier register allocation on a copy of the compiled module;
    /// returns the registers in use afterwards.
    pub fn barrier_alloc(&self) -> Result<usize, String> {
        let mut module = self.0.module.clone();
        allocate_barriers_module(&mut module, None).map(|r| r.after).map_err(|e| e.to_string())
    }

    /// Lowers to the flat image (`sim::decode`); returns its length.
    pub fn decode(&self) -> usize {
        black_box(DecodedImage::decode(&self.0.module)).len()
    }
}

/// The batch engine's compiled-image cache, bounded as the service
/// bounds it.
pub struct ImageCache(Engine);

impl ImageCache {
    pub fn new(capacity: usize) -> ImageCache {
        ImageCache(Engine::with_capacity(1, capacity))
    }

    /// A cache lookup that compiles and decodes on a miss.
    pub fn lookup(&self, module: &Parsed, repair: Repair) -> Result<usize, String> {
        self.0
            .decoded(&module.0, Some(&repair.strategy().options()))
            .map(|image| image.len())
            .map_err(|e| e.to_string())
    }

    /// Hits, misses and evictions so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        let s = self.0.cache_stats();
        (s.hits, s.misses, s.evictions)
    }
}

/// The service's own JSON parser on a request body.
pub fn server_json_parse(body: &str) -> Result<(), String> {
    ServerJson::parse(body).map(|v| {
        black_box(v);
    })
}

/// A validated `/v1/eval` request.
pub struct Request(EvalRequest);

/// `api::parse_request` on a request body.
pub fn server_parse_request(body: &[u8]) -> Result<Request, String> {
    parse_request(body).map(Request).map_err(|e| format!("{}: {}", e.status, e.message))
}

/// `api::execute` against `cache`; returns the rendered response body.
pub fn server_execute(cache: &ImageCache, request: &Request) -> Result<String, String> {
    execute(&cache.0, &request.0, &CancelToken::new(), None)
        .map(|json| json.render())
        .map_err(|e| format!("{}: {}", e.status, e.message))
}
