//! The `/v1/eval` request/response schema and its execution against the
//! shared batch engine.
//!
//! A request names either a built-in workload (`"workload"`) or carries
//! kernel source text (`"kernel"`), plus configuration knobs:
//!
//! ```json
//! {
//!   "workload": "rsbench",            // or "kernel": "kernel @k(...) { ... }"
//!   "mode": "speculative",            // baseline | speculative | auto
//!   "repair": "sr+meld",              // pdom | sr | meld | sr+meld | auto
//!                                     // (overrides `mode` when given)
//!   "policy": "greedy",               // greedy | minpc | maxpc | mostthreads | roundrobin
//!   "deconflict": "dynamic",          // dynamic | static
//!   "barrier_alloc": false,           // run barrier register allocation
//!   "threshold": 8,                   // soft-barrier threshold override
//!   "warps": 4, "seed": 1, "seeds": 2,  // or "seeds": [lo, hi) for a lockstep sweep
//!   "mem": 1024,                      // inline kernels only: global memory cells
//!   "mem_hier": "l1:lines=64,cells=16,lat=2;dram:lat=24,extra=2",
//!                                     // memory-hierarchy cost model (omit = flat)
//!   "recon_model": "ipdom-stack",     // barrier-file (default) | ipdom-stack
//!                                     // | warp-split[:window=N][,compact]
//!   "entry": "k",                     // inline kernels only: kernel to launch
//!   "deadline_ms": 1000
//! }
//! ```
//!
//! The response carries per-seed metrics, an aggregate, and the engine's
//! cache counters. All execution flows through the compiled-image cache
//! and honors a cooperative [`CancelToken`].
//!
//! `"seeds"` takes either a count `N` (runs seeds `seed..seed+N`, one
//! scalar simulation each — the historical form) or a half-open range
//! `[lo, hi]`, which compiles once and runs the whole range through the
//! lockstep sweep engine via [`Engine::sweep_image_range`] (ranges wider
//! than one cohort are chunked across the worker pool); the response
//! then adds a `"sweep"` object with the engine's fork/merge/occupancy
//! counters (plus the detach counter). Both forms
//! answer with the same per-seed `"runs"` entries, and both are bounded
//! by [`MAX_SEEDS`] seeds per request.
//!
//! `"mem_hier"` selects the L1/L2/DRAM hierarchy cost model (same spec
//! syntax as the CLI's `--mem-hier`, parsed by
//! [`simt_sim::MemHierarchy::parse`]); the response then adds a `"mem"`
//! object with per-level hit/miss/MSHR counters summed over the
//! request's runs.
//!
//! `"recon_model"` selects the hardware reconvergence model (same spec
//! syntax as the CLI's `--recon-model`, parsed by
//! [`simt_sim::ReconvergenceModel::parse`]); the canonical spec is
//! echoed back as `"recon_model"`, and hardware-model runs add a
//! `"recon"` object with the stack/split counters summed over the
//! request's runs (also exported as `specrecon_recon_*` counters on
//! `GET /metrics`). Unknown model names answer 400.
//!
//! `"repair"` selects a divergence-repair strategy by name (same axis
//! as the CLI's `--repair`, parsed by
//! [`specrecon_core::RepairStrategy::parse`]), replacing the compile
//! options `"mode"` would have chosen; the canonical spec is echoed
//! back as `"repair"`. Unknown strategies answer 400.

use crate::json::Json;
use simt_ir::{parse_and_link, verify_module, FuncKind, Value};
use simt_sim::{
    run_image_with, CancelToken, Launch, MemHierarchy, MemStats, ReconStats, ReconvergenceModel,
    SchedulerPolicy, SimConfig, SimError,
};
use specrecon_core::{CompileOptions, DeconflictMode, DetectOptions, RepairStrategy};
use workloads::eval::{Engine, EvalError};

/// Sanity bound on seeds per request (count or range form). The sweep
/// engine chunks arbitrary ranges across the worker pool, so this is a
/// resource guard, not an engine limit.
pub const MAX_SEEDS: u64 = 400;

/// Arena cells one request may ask the engine for: `(warps × lanes ×
/// regs + mem) × slots`, with `regs` of the module's widest function and
/// `slots` the seeds of one lockstep cohort (at most
/// [`COHORT_SLOTS`](simt_sim::sweep::COHORT_SLOTS); 1 for scalar
/// launches). The simulators size their register and global-memory
/// columns from it up front, 8 bytes a cell plus a float bit — 128 MiB
/// here, far above any launch the registry makes and far below what
/// `regs` at the verifier's limit times 4 096 warps would reserve. A
/// resource guard like [`MAX_SEEDS`].
pub const MAX_ARENA_CELLS: u64 = 1 << 24;

/// A structured failure answering an eval request.
#[derive(Debug)]
pub struct ApiError {
    /// HTTP status the failure maps to.
    pub status: u16,
    /// Human-readable message (returned as `{"error": ...}`).
    pub message: String,
}

impl ApiError {
    fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError { status: 400, message: message.into() }
    }
}

/// A validated eval request, ready to run.
#[derive(Clone, Debug)]
pub struct EvalRequest {
    /// Module to run and the name reported back.
    pub name: String,
    /// Kernel module (workload's or parsed from inline source).
    pub module: simt_ir::Module,
    /// Launch template (seed is rewritten per run).
    pub launch: Launch,
    /// Compile configuration.
    pub opts: CompileOptions,
    /// Machine configuration.
    pub cfg: SimConfig,
    /// Mode string echoed in the response.
    pub mode: String,
    /// Policy string echoed in the response.
    pub policy: String,
    /// Repair strategy, when the request pinned one (echoed back).
    pub repair: Option<RepairStrategy>,
    /// Number of launches (seeds `seed..seed+n`).
    pub seeds: u64,
    /// When set, run the half-open seed range `[lo, hi)` as one lockstep
    /// sweep instead of `seeds` scalar launches.
    pub sweep: Option<(u64, u64)>,
    /// Client-requested deadline override, in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// Parses and validates the JSON body of a `/v1/eval` request.
pub fn parse_request(body: &[u8]) -> Result<EvalRequest, ApiError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ApiError::bad_request("body is not valid utf-8"))?;
    let doc = Json::parse(text).map_err(|e| ApiError::bad_request(format!("bad json: {e}")))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(ApiError::bad_request("request body must be a json object"));
    }

    let field_str = |key: &str| -> Result<Option<&str>, ApiError> {
        match doc.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_str()
                .map(Some)
                .ok_or_else(|| ApiError::bad_request(format!("`{key}` must be a string"))),
        }
    };
    let field_u64 = |key: &str| -> Result<Option<u64>, ApiError> {
        match doc.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                ApiError::bad_request(format!("`{key}` must be a non-negative integer"))
            }),
        }
    };

    let mode = field_str("mode")?.unwrap_or("speculative").to_string();
    let policy = field_str("policy")?.unwrap_or("greedy").to_string();
    let mut opts = match mode.as_str() {
        "baseline" => CompileOptions::baseline(),
        "speculative" => CompileOptions::speculative(),
        "auto" => CompileOptions::automatic(DetectOptions::default()),
        other => {
            return Err(ApiError::bad_request(format!(
                "unknown mode {other:?} (baseline | speculative | auto)"
            )))
        }
    };
    let mut repair = None;
    if let Some(spec) = field_str("repair")? {
        let r = RepairStrategy::parse(spec)
            .map_err(|e| ApiError::bad_request(format!("bad `repair`: {e}")))?;
        opts = r.options();
        repair = Some(r);
    }
    match field_str("deconflict")? {
        None => {}
        Some("dynamic") => opts.deconflict = DeconflictMode::Dynamic,
        Some("static") => opts.deconflict = DeconflictMode::Static,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "unknown deconflict {other:?} (dynamic | static)"
            )))
        }
    }
    match doc.get("barrier_alloc") {
        None | Some(Json::Null) => {}
        Some(Json::Bool(b)) => opts.barrier_allocation = *b,
        Some(_) => return Err(ApiError::bad_request("`barrier_alloc` must be a boolean")),
    }
    // Requests are untrusted input: always lint the compiled module so a
    // soundness hole surfaces as a 400, not a wrong answer.
    opts.lint = true;

    let scheduler = match policy.as_str() {
        "greedy" => SchedulerPolicy::Greedy,
        "minpc" | "min-pc" => SchedulerPolicy::MinPc,
        "maxpc" | "max-pc" => SchedulerPolicy::MaxPc,
        "mostthreads" | "most-threads" => SchedulerPolicy::MostThreads,
        "roundrobin" | "round-robin" => SchedulerPolicy::RoundRobin,
        other => {
            return Err(ApiError::bad_request(format!(
                "unknown policy {other:?} (greedy | minpc | maxpc | mostthreads | roundrobin)"
            )))
        }
    };
    let mut cfg = SimConfig { scheduler, ..SimConfig::default() };
    if let Some(spec) = field_str("mem_hier")? {
        cfg.mem = Some(
            MemHierarchy::parse(spec, &cfg.latency)
                .map_err(|e| ApiError::bad_request(format!("bad `mem_hier`: {e}")))?,
        );
    }
    if let Some(spec) = field_str("recon_model")? {
        cfg.recon = ReconvergenceModel::parse(spec)
            .map_err(|e| ApiError::bad_request(format!("bad `recon_model`: {e}")))?;
    }

    // `seeds` is a count (historical) or a half-open `[lo, hi]` range
    // that runs as one lockstep sweep (chunked across the pool when
    // wider than a cohort).
    let (seeds, sweep) = match doc.get("seeds") {
        None | Some(Json::Null) => (1, None),
        Some(Json::Arr(range)) => {
            let bad = || {
                ApiError::bad_request(format!(
                    "`seeds` range must be [lo, hi] with lo < hi (half-open, at most {MAX_SEEDS} seeds)",
                ))
            };
            let [lo, hi] = range.as_slice() else { return Err(bad()) };
            let (lo, hi) = (lo.as_u64().ok_or_else(bad)?, hi.as_u64().ok_or_else(bad)?);
            if lo >= hi || hi - lo > MAX_SEEDS {
                return Err(bad());
            }
            (hi - lo, Some((lo, hi)))
        }
        Some(v) => {
            let n = v.as_u64().ok_or_else(|| {
                ApiError::bad_request("`seeds` must be a count or a [lo, hi] range")
            })?;
            (n.clamp(1, MAX_SEEDS), None)
        }
    };
    let warps = field_u64("warps")?.map(|w| w as usize);
    if warps == Some(0) {
        return Err(ApiError::bad_request("`warps` must be at least 1"));
    }
    let seed = field_u64("seed")?;
    let threshold = field_u64("threshold")?
        .map(|t| {
            u32::try_from(t).map_err(|_| {
                ApiError::bad_request(format!("`threshold` must be at most {}", u32::MAX))
            })
        })
        .transpose()?;
    let deadline_ms = field_u64("deadline_ms")?;

    let named = field_str("workload")?;
    let inline = field_str("kernel")?;
    let (name, mut module, mut launch) = match (named, inline) {
        (Some(_), Some(_)) => {
            return Err(ApiError::bad_request("give `workload` or `kernel`, not both"))
        }
        (None, None) => {
            return Err(ApiError::bad_request("missing `workload` (name) or `kernel` (source)"))
        }
        (Some(name), None) => {
            let w = workloads::by_name(name).ok_or_else(|| {
                ApiError::bad_request(format!(
                    "unknown workload {name:?} (known: {})",
                    known_workloads().join(", ")
                ))
            })?;
            // Echo the requested name (the microbench alias reports as
            // asked, not as its internal "common-call" id).
            (name.to_string(), w.module, w.launch)
        }
        (None, Some(src)) => {
            let module = parse_and_link(src)
                .map_err(|e| ApiError::bad_request(format!("kernel parse error: {e}")))?;
            verify_module(&module).map_err(|errs| {
                let lines: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
                ApiError::bad_request(format!("kernel verification failed: {}", lines.join("; ")))
            })?;
            let kernel = match field_str("entry")? {
                Some(k) => k.to_string(),
                None => module
                    .functions
                    .iter()
                    .find(|(_, f)| f.kind == FuncKind::Kernel)
                    .map(|(_, f)| f.name.clone())
                    .ok_or_else(|| ApiError::bad_request("kernel source has no kernel"))?,
            };
            if module.function_by_name(&kernel).is_none() {
                return Err(ApiError::bad_request(format!("no kernel named @{kernel}")));
            }
            let mut launch = Launch::new(kernel, 4);
            let mem = field_u64("mem")?.unwrap_or(1024).min(1 << 22) as usize;
            launch.global_mem = vec![Value::I64(0); mem];
            ("inline".to_string(), module, launch)
        }
    };

    if let Some(w) = warps {
        launch.num_warps = w.min(4096);
    }
    // A lockstep cohort keeps every register and global cell once per
    // slot; a scalar launch keeps one copy.
    let slots = sweep.map_or(1, |(lo, hi)| (hi - lo).min(simt_sim::sweep::COHORT_SLOTS as u64));
    let regs = module.functions.iter().map(|(_, f)| f.num_regs as u64).max().unwrap_or(0);
    let mem = launch.global_mem.len() as u64;
    let cells = (launch.num_warps as u64 * cfg.warp_width as u64)
        .saturating_mul(regs)
        .saturating_add(mem)
        .saturating_mul(slots);
    if cells > MAX_ARENA_CELLS {
        return Err(ApiError::bad_request(format!(
            "launch needs {cells} arena cells (({} warps x {} lanes x {regs} regs + {mem} mem) \
             x {slots} slots), over the limit of {MAX_ARENA_CELLS}",
            launch.num_warps, cfg.warp_width
        )));
    }
    if let Some(s) = seed {
        launch.seed = s;
    }
    if let Some(t) = threshold {
        for (_, f) in module.functions.iter_mut() {
            for p in &mut f.predictions {
                p.threshold = Some(t);
            }
        }
    }

    Ok(EvalRequest {
        name,
        module,
        launch,
        opts,
        cfg,
        mode,
        policy,
        repair,
        seeds,
        sweep,
        deadline_ms,
    })
}

/// The workload names `/v1/eval` accepts.
pub fn known_workloads() -> Vec<&'static str> {
    workloads::names()
}

/// Runs a validated request on `engine`, polling `cancel` between
/// scheduling rounds.
///
/// # Errors
///
/// `400` for compile failures, `422` for simulation faults, `504` when
/// the run was cancelled (deadline expiry or shutdown).
///
/// Sweep requests fold the engine's fork/merge counters into `metrics`
/// (when given) so `GET /metrics` exposes fleet-wide sweep health.
pub fn execute(
    engine: &Engine,
    req: &EvalRequest,
    cancel: &CancelToken,
    metrics: Option<&crate::metrics::ServerMetrics>,
) -> Result<Json, ApiError> {
    let image = engine.decoded(&req.module, Some(&req.opts)).map_err(|e| match e {
        EvalError::Compile(e) => ApiError::bad_request(format!("compile error: {e}")),
        other => ApiError { status: 500, message: other.to_string() },
    })?;

    let sim_error = |e: &SimError| match e {
        SimError::Cancelled { .. } => ApiError { status: 504, message: "deadline exceeded".into() },
        other => ApiError { status: 422, message: format!("simulation error: {other}") },
    };
    let run_entry = |seed: u64, m: &simt_sim::Metrics| {
        Json::Obj(vec![
            ("seed".into(), Json::u64(seed)),
            ("cycles".into(), Json::u64(m.cycles)),
            ("simt_efficiency".into(), Json::num(m.simt_efficiency())),
            ("roi_simt_efficiency".into(), Json::num(m.roi_simt_efficiency())),
            ("barrier_ops".into(), Json::u64(m.barrier_ops)),
        ])
    };

    let mut runs = Vec::with_capacity(req.seeds as usize);
    let mut cycles = Vec::with_capacity(req.seeds as usize);
    let mut effs = Vec::with_capacity(req.seeds as usize);
    let mut mem = MemStats::default();
    let mut recon = ReconStats::default();
    let mut sweep_stats = None;
    if let Some((lo, hi)) = req.sweep {
        // The range runs as lockstep cohorts: compile once, step all
        // seeds together (chunked across the worker pool when wider
        // than one cohort), report each seed exactly as a standalone
        // run.
        let out = engine
            .sweep_image_range(&image, &req.cfg, &req.launch, lo, hi, Some(cancel))
            .map_err(|e| match e {
                SimError::SweepUnsupported { .. } => ApiError::bad_request(e.to_string()),
                other => sim_error(&other),
            })?;
        for entry in out.runs {
            let seed_out = entry.result.map_err(|e| sim_error(&e))?;
            let m = &seed_out.metrics;
            cycles.push(m.cycles);
            effs.push(m.simt_efficiency());
            mem = mem.saturating_add(&m.mem);
            recon = recon.wrapping_add(&m.recon);
            runs.push(run_entry(entry.seed, m));
        }
        if let Some(m) = metrics {
            let s = &out.stats;
            m.record_sweep(s.forks, s.merges, s.scalar_steps, s.occupancy_sum, s.lockstep_issues);
        }
        sweep_stats = Some(out.stats);
    } else {
        for i in 0..req.seeds {
            if cancel.is_cancelled() {
                return Err(ApiError { status: 504, message: "deadline exceeded".into() });
            }
            let mut launch = req.launch.clone();
            launch.seed = req.launch.seed.wrapping_add(i);
            let out = run_image_with(&image, &req.cfg, &launch, Some(cancel))
                .map_err(|e| sim_error(&e))?;
            let m = &out.metrics;
            cycles.push(m.cycles);
            effs.push(m.simt_efficiency());
            mem = mem.saturating_add(&m.mem);
            recon = recon.wrapping_add(&m.recon);
            runs.push(run_entry(launch.seed, m));
        }
    }
    if let (Some(sm), false) = (metrics, mem.is_zero()) {
        let levels = [0, 1, 2].map(|i| {
            let l = &mem.levels[i];
            [l.hits, l.misses, l.mshr_merges, l.mshr_stall_cycles]
        });
        sm.record_mem(&levels, mem.dram_accesses, mem.dram_segments);
    }
    if let (Some(sm), false) = (metrics, recon.is_zero()) {
        sm.record_recon(
            recon.stack_pushes,
            recon.stack_pops,
            recon.splits,
            recon.fusions,
            recon.deferrals,
        );
    }

    let n = cycles.len() as f64;
    let aggregate = Json::Obj(vec![
        ("mean_cycles".into(), Json::num(cycles.iter().sum::<u64>() as f64 / n)),
        ("min_cycles".into(), Json::u64(cycles.iter().copied().min().unwrap_or(0))),
        ("max_cycles".into(), Json::u64(cycles.iter().copied().max().unwrap_or(0))),
        ("mean_simt_efficiency".into(), Json::num(effs.iter().sum::<f64>() / n)),
    ]);
    let cache = engine.cache_stats();
    let mut body = vec![
        ("workload".into(), Json::str(req.name.clone())),
        ("mode".into(), Json::str(req.mode.clone())),
        ("policy".into(), Json::str(req.policy.clone())),
        ("recon_model".into(), Json::str(req.cfg.recon.spec())),
        ("warps".into(), Json::u64(req.launch.num_warps as u64)),
    ];
    if let Some(r) = req.repair {
        body.insert(3, ("repair".into(), Json::str(r.spec())));
    }
    body.extend(vec![
        ("runs".into(), Json::Arr(runs)),
        ("aggregate".into(), aggregate),
        (
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::u64(cache.hits)),
                ("misses".into(), Json::u64(cache.misses)),
                ("hit_rate".into(), Json::num(cache.hit_rate())),
            ]),
        ),
    ]);
    if !mem.is_zero() {
        let mut fields = Vec::with_capacity(4);
        for (i, l) in mem.levels.iter().enumerate() {
            if l.hits == 0 && l.misses == 0 && l.mshr_merges == 0 && l.mshr_stall_cycles == 0 {
                continue;
            }
            fields.push((
                format!("l{}", i + 1),
                Json::Obj(vec![
                    ("hits".into(), Json::u64(l.hits)),
                    ("misses".into(), Json::u64(l.misses)),
                    ("mshr_merges".into(), Json::u64(l.mshr_merges)),
                    ("mshr_stall_cycles".into(), Json::u64(l.mshr_stall_cycles)),
                ]),
            ));
        }
        fields.push((
            "dram".into(),
            Json::Obj(vec![
                ("accesses".into(), Json::u64(mem.dram_accesses)),
                ("segments".into(), Json::u64(mem.dram_segments)),
            ]),
        ));
        body.push(("mem".into(), Json::Obj(fields)));
    }
    if !recon.is_zero() {
        body.push((
            "recon".into(),
            Json::Obj(vec![
                ("stack_pushes".into(), Json::u64(recon.stack_pushes)),
                ("stack_pops".into(), Json::u64(recon.stack_pops)),
                ("stack_max_depth".into(), Json::u64(recon.stack_max_depth)),
                ("splits".into(), Json::u64(recon.splits)),
                ("fusions".into(), Json::u64(recon.fusions)),
                ("deferrals".into(), Json::u64(recon.deferrals)),
            ]),
        ));
    }
    if let Some(s) = sweep_stats {
        body.push((
            "sweep".into(),
            Json::Obj(vec![
                ("instances".into(), Json::u64(s.instances as u64)),
                ("lockstep_issues".into(), Json::u64(s.lockstep_issues)),
                ("forks".into(), Json::u64(s.forks)),
                ("merges".into(), Json::u64(s.merges)),
                ("peak_subcohorts".into(), Json::u64(u64::from(s.peak_subcohorts))),
                ("mean_occupancy".into(), Json::num(s.mean_occupancy())),
                ("detaches".into(), Json::u64(s.detaches)),
                ("scalar_steps".into(), Json::u64(s.scalar_steps)),
                ("dense_rows".into(), Json::u64(s.dense_rows)),
                ("mixed_rows".into(), Json::u64(s.mixed_rows)),
                ("uniform_accesses".into(), Json::u64(s.uniform_accesses)),
                ("scattered_accesses".into(), Json::u64(s.scattered_accesses)),
                ("hoisted_issues".into(), Json::u64(s.hoisted_issues)),
                ("lane_runs".into(), Json::u64(s.lane_runs)),
                ("per_lane_issues".into(), Json::u64(s.per_lane_issues)),
            ]),
        ));
    }
    Ok(Json::Obj(body))
}

/// Renders an [`ApiError`] as the `{"error": ...}` body.
pub fn error_body(e: &ApiError) -> String {
    Json::Obj(vec![("error".into(), Json::str(e.message.clone()))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_named_workload_request() {
        let req = parse_request(
            br#"{"workload":"rsbench","mode":"baseline","policy":"minpc","warps":2,"seed":7,"seeds":3}"#,
        )
        .unwrap();
        assert_eq!(req.name, "rsbench");
        assert_eq!(req.launch.num_warps, 2);
        assert_eq!(req.launch.seed, 7);
        assert_eq!(req.seeds, 3);
        assert_eq!(req.cfg.scheduler, SchedulerPolicy::MinPc);
        assert!(!req.opts.speculative);
    }

    #[test]
    fn parses_inline_kernel_request() {
        let src = "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\nbb0:\n  %r0 = special.tid\n  %r1 = mul %r0, 2\n  store global[%r0], %r1\n  exit\n}\n";
        let body = Json::Obj(vec![
            ("kernel".into(), Json::str(src)),
            ("warps".into(), Json::u64(1)),
            ("mem".into(), Json::u64(64)),
        ])
        .render();
        let req = parse_request(body.as_bytes()).unwrap();
        assert_eq!(req.name, "inline");
        assert_eq!(req.launch.kernel, "k");
        assert_eq!(req.launch.global_mem.len(), 64);
    }

    #[test]
    fn rejects_bad_requests_with_reasons() {
        for (body, needle) in [
            (&b"not json"[..], "bad json"),
            (br#"{}"#, "missing `workload`"),
            (br#"{"workload":"nope"}"#, "unknown workload"),
            (br#"{"workload":"rsbench","mode":"turbo"}"#, "unknown mode"),
            (br#"{"workload":"rsbench","repair":"duplicate"}"#, "`repair`"),
            (br#"{"workload":"rsbench","policy":"fifo"}"#, "unknown policy"),
            (br#"{"workload":"rsbench","warps":0}"#, "`warps`"),
            (br#"{"workload":"rsbench","kernel":"x"}"#, "not both"),
            (br#"{"kernel":"kernel @"}"#, "parse error"),
            (br#"{"workload":"rsbench","threshold":4294967304}"#, "`threshold`"),
            (br#"{"workload":"rsbench","barrier_alloc":"yes"}"#, "`barrier_alloc`"),
            (br#"{"workload":"rsbench","barrier_alloc":1}"#, "`barrier_alloc`"),
        ] {
            let err = parse_request(body).unwrap_err();
            assert_eq!(err.status, 400, "{}", err.message);
            assert!(err.message.contains(needle), "{:?} -> {}", body, err.message);
        }
    }

    #[test]
    fn executes_a_named_workload_end_to_end() {
        let engine = Engine::new(1);
        let req =
            parse_request(br#"{"workload":"microbench","mode":"speculative","warps":1,"seeds":2}"#)
                .unwrap();
        let token = CancelToken::new();
        let out = execute(&engine, &req, &token, None).unwrap();
        assert_eq!(out.get("workload").unwrap().as_str(), Some("microbench"));
        let runs = out.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 2);
        for r in runs {
            assert!(r.get("cycles").unwrap().as_u64().unwrap() > 0);
        }
        // The response is valid JSON end to end.
        Json::parse(&out.render()).unwrap();
    }

    #[test]
    fn parses_seed_range_request() {
        let req = parse_request(br#"{"workload":"rsbench","seeds":[10,14]}"#).unwrap();
        assert_eq!(req.sweep, Some((10, 14)));
        assert_eq!(req.seeds, 4);
        // The count form stays a count.
        let req = parse_request(br#"{"workload":"rsbench","seeds":3}"#).unwrap();
        assert_eq!(req.sweep, None);
        assert_eq!(req.seeds, 3);
    }

    #[test]
    fn rejects_bad_seed_ranges() {
        for body in [
            &br#"{"workload":"rsbench","seeds":[5]}"#[..],
            br#"{"workload":"rsbench","seeds":[5,5]}"#,
            br#"{"workload":"rsbench","seeds":[9,3]}"#,
            br#"{"workload":"rsbench","seeds":[0,401]}"#,
            br#"{"workload":"rsbench","seeds":[1,2,3]}"#,
            br#"{"workload":"rsbench","seeds":"many"}"#,
        ] {
            let err = parse_request(body).unwrap_err();
            assert_eq!(err.status, 400, "{:?}: {}", body, err.message);
            assert!(err.message.contains("`seeds`"), "{}", err.message);
        }
    }

    #[test]
    fn arena_guard_counts_memory_and_every_cohort_slot() {
        let src = "kernel @k(params=0, regs=65536, barriers=0, entry=bb0) {\nbb0:\n  exit\n}\n";
        let body = |warps: u64, mem: u64, seeds: Json| {
            Json::Obj(vec![
                ("kernel".into(), Json::str(src)),
                ("warps".into(), Json::u64(warps)),
                ("mem".into(), Json::u64(mem)),
                ("seeds".into(), seeds),
            ])
            .render()
        };
        let range = |lo, hi| Json::Arr(vec![Json::u64(lo), Json::u64(hi)]);
        // 4 warps x 32 lanes x 65536 regs = 2^23 register cells: one
        // scalar launch fits, two cohort slots do not.
        assert!(parse_request(body(4, 1024, Json::u64(2)).as_bytes()).is_ok());
        let err = parse_request(body(4, 1024, range(0, 2)).as_bytes()).unwrap_err();
        assert_eq!(err.status, 400, "{}", err.message);
        assert!(err.message.contains("x 2 slots"), "{}", err.message);
        // Exactly 2^24 register cells plus any memory is over, and a
        // 64-seed range (8 GiB of registers) names its cohort width.
        for (warps, mem, seeds, needle) in
            [(8, 1, Json::u64(1), "x 1 slots"), (8, 1024, range(0, 64), "x 64 slots")]
        {
            let err = parse_request(body(warps, mem, seeds).as_bytes()).unwrap_err();
            assert_eq!(err.status, 400, "{}", err.message);
            assert!(err.message.contains(needle), "{}", err.message);
            assert!(err.message.contains("arena cells"), "{}", err.message);
        }
        // No built-in workload's default launch comes near the bound, even
        // as a full cohort.
        for name in known_workloads() {
            let body = format!(r#"{{"workload":"{name}","seeds":[0,64]}}"#);
            let req = parse_request(body.as_bytes()).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert_eq!(req.sweep, Some((0, 64)));
        }
    }

    #[test]
    fn seed_ranges_wider_than_a_cohort_parse() {
        // The old hard cap was 64 seeds (one cohort); the engine chunks
        // wider ranges, so anything up to the sanity bound is accepted.
        let req = parse_request(br#"{"workload":"rsbench","seeds":[0,200]}"#).unwrap();
        assert_eq!(req.sweep, Some((0, 200)));
        assert_eq!(req.seeds, 200);
        let req = parse_request(br#"{"workload":"rsbench","seeds":[0,400]}"#).unwrap();
        assert_eq!(req.sweep, Some((0, 400)));
    }

    #[test]
    fn parses_mem_hier_knob() {
        let req = parse_request(
            br#"{"workload":"rsbench","mem_hier":"l1:lines=8,cells=16,lat=2,mshrs=4;dram:lat=24,extra=2"}"#,
        )
        .unwrap();
        let hier = req.cfg.mem.expect("mem_hier sets the hierarchy model");
        assert_eq!(hier.levels.len(), 1);
        assert_eq!(hier.levels[0].lines, 8);
        assert_eq!(hier.mem_latency, 24);
        // Omitted: flat model, as before.
        let req = parse_request(br#"{"workload":"rsbench"}"#).unwrap();
        assert!(req.cfg.mem.is_none());
        // Malformed specs answer 400 with the parser's reason.
        let err = parse_request(br#"{"workload":"rsbench","mem_hier":"l9:lines=1"}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("mem_hier"), "{}", err.message);
    }

    #[test]
    fn mem_hier_responses_carry_per_level_counters() {
        let engine = Engine::new(1);
        let req = parse_request(
            br#"{"workload":"microbench","mode":"baseline","warps":1,"seeds":2,
                "mem_hier":"l1:lines=16,cells=16,lat=2;dram:lat=24,extra=2"}"#,
        )
        .unwrap();
        let token = CancelToken::new();
        let sm = crate::metrics::ServerMetrics::default();
        let out = execute(&engine, &req, &token, Some(&sm)).unwrap();
        let mem = out.get("mem").expect("hierarchy runs report a mem object");
        let l1 = mem.get("l1").expect("configured L1 level present");
        let touched =
            l1.get("hits").unwrap().as_u64().unwrap() + l1.get("misses").unwrap().as_u64().unwrap();
        assert!(touched > 0, "L1 saw traffic: {}", mem.render());
        assert!(mem.get("dram").is_some());
        // The same counters land in the Prometheus registry.
        let text = sm.render(0, 0, 8, engine.cache_stats());
        assert!(!text.contains("specrecon_mem_misses_total{level=\"L1\"} 0"), "{text}");
        Json::parse(&out.render()).unwrap();
    }

    #[test]
    fn seed_range_executes_as_a_sweep_with_per_seed_runs() {
        let engine = Engine::new(1);
        let req = parse_request(
            br#"{"workload":"microbench","mode":"baseline","warps":1,"seeds":[20,25]}"#,
        )
        .unwrap();
        let token = CancelToken::new();
        let out = execute(&engine, &req, &token, None).unwrap();
        let runs = out.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 5, "one entry per seed in the range");
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.get("seed").unwrap().as_u64(), Some(20 + i as u64));
            assert!(r.get("cycles").unwrap().as_u64().unwrap() > 0);
        }
        let sweep = out.get("sweep").expect("sweep responses carry engine counters");
        assert_eq!(sweep.get("instances").unwrap().as_u64(), Some(5));
        assert!(sweep.get("lockstep_issues").unwrap().as_u64().unwrap() > 0);
        // Per-seed metrics are bit-identical to the scalar path run of
        // the same seed.
        let scalar_req = parse_request(
            br#"{"workload":"microbench","mode":"baseline","warps":1,"seed":20,"seeds":5}"#,
        )
        .unwrap();
        let scalar = execute(&engine, &scalar_req, &token, None).unwrap();
        assert_eq!(
            Json::Arr(runs.to_vec()).render(),
            Json::Arr(scalar.get("runs").unwrap().as_arr().unwrap().to_vec()).render()
        );
        Json::parse(&out.render()).unwrap();
    }

    #[test]
    fn parses_recon_model_knob() {
        let req =
            parse_request(br#"{"workload":"rsbench","recon_model":"warp-split:window=4,compact"}"#)
                .unwrap();
        assert_eq!(req.cfg.recon, ReconvergenceModel::WarpSplit { window: 4, compact: true });
        // Omitted: the default Volta barrier-file model.
        let req = parse_request(br#"{"workload":"rsbench"}"#).unwrap();
        assert_eq!(req.cfg.recon, ReconvergenceModel::BarrierFile);
        // Unknown names answer 400 with the parser's reason.
        let err = parse_request(br#"{"workload":"rsbench","recon_model":"volta"}"#).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("recon_model"), "{}", err.message);
    }

    #[test]
    fn recon_model_responses_carry_counters() {
        let engine = Engine::new(1);
        let req = parse_request(
            br#"{"workload":"microbench","mode":"baseline","warps":1,"seeds":2,
                "recon_model":"ipdom-stack"}"#,
        )
        .unwrap();
        let token = CancelToken::new();
        let sm = crate::metrics::ServerMetrics::default();
        let out = execute(&engine, &req, &token, Some(&sm)).unwrap();
        assert_eq!(out.get("recon_model").unwrap().as_str(), Some("ipdom-stack"));
        let recon = out.get("recon").expect("hardware-model runs report a recon object");
        assert!(recon.get("stack_pushes").unwrap().as_u64().unwrap() > 0, "{}", recon.render());
        // The same counters land in the Prometheus registry.
        let text = sm.render(0, 0, 8, engine.cache_stats());
        assert!(!text.contains("specrecon_recon_stack_pushes_total 0"), "{text}");
        Json::parse(&out.render()).unwrap();

        // Barrier-file runs keep the response free of the recon object.
        let req =
            parse_request(br#"{"workload":"microbench","mode":"baseline","warps":1}"#).unwrap();
        let out = execute(&engine, &req, &token, None).unwrap();
        assert_eq!(out.get("recon_model").unwrap().as_str(), Some("barrier-file"));
        assert!(out.get("recon").is_none());
    }

    #[test]
    fn parses_repair_knob_and_echoes_it() {
        // Each strategy parses and replaces the mode's compile options.
        let req = parse_request(br#"{"workload":"srad","repair":"sr+meld"}"#).unwrap();
        assert_eq!(req.repair, Some(RepairStrategy::SrMeld));
        assert!(req.opts.speculative && req.opts.meld.is_some());
        let req =
            parse_request(br#"{"workload":"srad","mode":"speculative","repair":"pdom"}"#).unwrap();
        assert_eq!(req.repair, Some(RepairStrategy::Pdom));
        assert!(!req.opts.speculative, "`repair` overrides `mode`");
        // Omitted: the mode's options stand and no echo is added.
        let req = parse_request(br#"{"workload":"srad"}"#).unwrap();
        assert_eq!(req.repair, None);

        let engine = Engine::new(1);
        let req = parse_request(br#"{"workload":"srad","repair":"meld","warps":1}"#).unwrap();
        let token = CancelToken::new();
        let out = execute(&engine, &req, &token, None).unwrap();
        assert_eq!(out.get("repair").unwrap().as_str(), Some("meld"));
        let no_knob = parse_request(br#"{"workload":"srad","warps":1}"#).unwrap();
        let out = execute(&engine, &no_knob, &token, None).unwrap();
        assert!(out.get("repair").is_none());
        Json::parse(&out.render()).unwrap();
    }

    #[test]
    fn cancelled_execution_maps_to_504() {
        let engine = Engine::new(1);
        let req = parse_request(br#"{"workload":"microbench","warps":1}"#).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let err = execute(&engine, &req, &token, None).unwrap_err();
        assert_eq!(err.status, 504);
    }

    #[test]
    fn known_workloads_include_table2_and_microbench() {
        let names = known_workloads();
        assert!(names.contains(&"rsbench"));
        assert!(names.contains(&"microbench"));
        assert!(names.contains(&"seed-storm"));
        assert!(names.contains(&"srad"));
        assert_eq!(names.len(), 12);
    }
}
