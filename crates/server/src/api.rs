//! The `/v1/eval` request/response schema and its execution against the
//! shared batch engine.
//!
//! A request's fields are the keys of the run-spec grammar
//! ([`workloads::spec`]; `docs/SERVING.md` lists them): [`parse_request`]
//! checks each field's JSON type against its key's kind and hands the
//! values to [`RunSpec::parse`], so the command line and the service
//! accept the same keys and values. Other fields are ignored, except the
//! service's own `"deadline_ms"`. [`execute`] is one [`Engine::run`]
//! plus the response: per-seed metrics, an aggregate, the cache
//! counters, the echoed knobs, and one object per simulator stats struct
//! (`"mem"`, `"recon"`, `"sweep"`, `"engine"`), rendered from its
//! [`Counters`] visitor: `"sweep"` for ranges, the others unless zero.

use crate::json::Json;
use crate::metrics::{ServerMetrics, SimCounters};
use simt_sim::counters::{self, Counters};
use simt_sim::{CancelToken, SeedRun, SimError, SweepStats};
use specrecon_core::RepairStrategy;
use std::borrow::Cow;
use workloads::eval::{Engine, EvalError};
use workloads::spec::{Key, Kind};
use workloads::{RunSpec, Seeds};

pub use workloads::spec::MAX_SEEDS;

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
    /// The run, with `lint` forced on and final memory off.
    pub spec: RunSpec,
    /// `"mode"` as sent (or its default), echoed in the response.
    pub mode: String,
    /// `"policy"` as sent (or its default), echoed in the response.
    pub policy: String,
    /// Repair strategy, when the request pinned one (echoed back).
    pub repair: Option<RepairStrategy>,
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
    let field = |key: &str| doc.get(key).filter(|v| !matches!(v, Json::Null));

    // `entry` and `mem` shape kernel source; beside a workload name the
    // service has always ignored them, whatever their type.
    let named = field(Key::Workload.name()).is_some();
    let mut pairs = Vec::new();
    for key in Key::all() {
        if named && matches!(key, Key::Entry | Key::Mem) {
            continue;
        }
        if let Some(value) = field(key.name()) {
            pairs.push((key.name(), spelled(key, value)?));
        }
    }
    let mut spec = RunSpec::parse(&pairs).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let bad_deadline = || ApiError::bad_request("`deadline_ms` must be a non-negative integer");
    let deadline_ms = field("deadline_ms").map(|v| v.as_u64().ok_or_else(bad_deadline));
    let deadline_ms = deadline_ms.transpose()?;

    // A lockstep cohort keeps every register and global cell once per
    // slot; a scalar launch keeps one copy.
    let slots = match spec.seeds {
        Seeds::Range(lo, hi) => (hi - lo).min(simt_sim::sweep::COHORT_SLOTS as u64),
        Seeds::Count(_) => 1,
    };
    let (module, launch) = (&spec.workload.module, &spec.workload.launch);
    let regs = module.functions.iter().map(|(_, f)| f.num_regs as u64).max().unwrap_or(0);
    let mem = launch.global_mem.len() as u64;
    let cells = (launch.num_warps as u64 * spec.cfg.warp_width as u64)
        .saturating_mul(regs)
        .saturating_add(mem)
        .saturating_mul(slots);
    if cells > MAX_ARENA_CELLS {
        return Err(ApiError::bad_request(format!(
            "launch needs {cells} arena cells (({} warps x {} lanes x {regs} regs + {mem} mem) \
             x {slots} slots), over the limit of {MAX_ARENA_CELLS}",
            launch.num_warps, spec.cfg.warp_width
        )));
    }
    // Requests are untrusted input: always lint the compiled module so a
    // soundness hole surfaces as a 400, not a wrong answer.
    if let Some(opts) = &mut spec.compile {
        opts.lint = true;
    }
    // Responses carry counters only: no engine decodes a final memory.
    spec.cfg.final_mem = false;

    let sent = |key: Key| field(key.name()).and_then(Json::as_str).or(key.default_value());
    Ok(EvalRequest {
        mode: sent(Key::Mode).unwrap_or_default().to_string(),
        policy: sent(Key::Policy).unwrap_or_default().to_string(),
        repair: sent(Key::Repair).and_then(|r| RepairStrategy::parse(r).ok()),
        spec,
        deadline_ms,
    })
}

/// A field's value as the grammar's text, once its JSON type matches the
/// key's kind: strings borrowed, numbers and booleans written out, a
/// `[lo, hi]` seed range as `lo..hi`.
fn spelled(key: Key, value: &Json) -> Result<Cow<'_, str>, ApiError> {
    let text = match (key.kind(), value) {
        (Kind::Str, Json::Str(s)) => Some(Cow::Borrowed(s.as_str())),
        (Kind::Uint { .. } | Kind::Seeds, Json::Num(_)) => {
            value.as_u64().map(|n| n.to_string().into())
        }
        (Kind::Bool, Json::Bool(b)) => Some(Cow::Borrowed(if *b { "true" } else { "false" })),
        (Kind::Seeds, Json::Arr(range)) => match range.as_slice() {
            [lo, hi] => lo.as_u64().zip(hi.as_u64()).map(|(lo, hi)| format!("{lo}..{hi}").into()),
            _ => None,
        },
        _ => None,
    };
    text.ok_or_else(|| {
        let want = match key.kind() {
            Kind::Str => "a string",
            Kind::Uint { .. } => "a non-negative integer",
            Kind::Bool => "a boolean",
            Kind::Seeds => "a count or a [lo, hi] range",
        };
        ApiError::bad_request(format!("`{}` must be {want}", key.name()))
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
/// The request's simulator counters are folded into `metrics` (when
/// given), so `GET /metrics` exposes them fleet-wide.
pub fn execute(
    engine: &Engine,
    req: &EvalRequest,
    cancel: &CancelToken,
    metrics: Option<&ServerMetrics>,
) -> Result<Json, ApiError> {
    let sim_error = |e: SimError| match e {
        SimError::Cancelled { .. } => ApiError { status: 504, message: "deadline exceeded".into() },
        SimError::SweepUnsupported { .. } => ApiError::bad_request(e.to_string()),
        other => ApiError { status: 422, message: format!("simulation error: {other}") },
    };
    // No seed decodes a final memory (`parse_request` turned it off), so
    // a launch holds only its columns, as the arena guard assumes.
    let counters_of = |run: SeedRun| (run.seed, run.result.map(|out| (out.metrics, out.engine)));
    let out = engine.run(&req.spec, Some(cancel), counters_of).map_err(|e| match e {
        EvalError::Compile(e) => ApiError::bad_request(format!("compile error: {e}")),
        EvalError::Sim(e) => sim_error(e),
        other => ApiError { status: 500, message: other.to_string() },
    })?;

    let mut runs = Vec::with_capacity(out.runs.len());
    let mut cycles = Vec::with_capacity(out.runs.len());
    let mut effs = Vec::with_capacity(out.runs.len());
    let mut sim = SimCounters { sweep: out.sweep.unwrap_or_default(), ..SimCounters::default() };
    for (seed, result) in out.runs {
        let (m, engine) = result.map_err(sim_error)?;
        cycles.push(m.cycles);
        effs.push(m.simt_efficiency());
        sim =
            sim.fold(&SimCounters { mem: m.mem, recon: m.recon, engine, ..SimCounters::default() });
        runs.push(Json::Obj(vec![
            ("seed".into(), Json::u64(seed)),
            ("cycles".into(), Json::u64(m.cycles)),
            ("simt_efficiency".into(), Json::num(m.simt_efficiency())),
            ("roi_simt_efficiency".into(), Json::num(m.roi_simt_efficiency())),
            ("barrier_ops".into(), Json::u64(m.barrier_ops)),
        ]));
    }
    if let Some(m) = metrics {
        m.record_sim(&sim);
    }

    let n = cycles.len() as f64;
    let aggregate = Json::Obj(vec![
        ("mean_cycles".into(), Json::num(cycles.iter().sum::<u64>() as f64 / n)),
        ("min_cycles".into(), Json::u64(cycles.iter().copied().min().unwrap_or(0))),
        ("max_cycles".into(), Json::u64(cycles.iter().copied().max().unwrap_or(0))),
        ("mean_simt_efficiency".into(), Json::num(effs.iter().sum::<f64>() / n)),
    ]);
    let cache = engine.cache_stats();
    let spec = &req.spec;
    let mut body = vec![
        (Key::Workload.name().into(), Json::str(spec.workload.name)),
        (Key::Mode.name().into(), Json::str(req.mode.clone())),
        (Key::Policy.name().into(), Json::str(req.policy.clone())),
        (Key::ReconModel.name().into(), Json::str(spec.cfg.recon.spec())),
        (Key::Warps.name().into(), Json::u64(spec.workload.launch.num_warps as u64)),
    ];
    if let Some(r) = req.repair {
        body.insert(3, (Key::Repair.name().into(), Json::str(r.spec())));
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
    push_nonzero(&mut body, &sim.mem);
    push_nonzero(&mut body, &sim.recon);
    if out.sweep.is_some() {
        let mut sweep = counter_fields(&sim.sweep);
        let after_peak =
            sweep.iter().position(|(k, _)| k == "peak_subcohorts").map_or(0, |i| i + 1);
        sweep.insert(after_peak, ("mean_occupancy".into(), Json::num(sim.sweep.mean_occupancy())));
        body.push((SweepStats::GROUP.into(), Json::Obj(sweep)));
    }
    push_nonzero(&mut body, &sim.engine);
    Ok(Json::Obj(body))
}

/// Appends `stats` as its `/v1/eval` object unless every counter is zero.
fn push_nonzero<T: Counters>(body: &mut Vec<(String, Json)>, stats: &T) {
    if !counters::is_zero(stats) {
        body.push((T::GROUP.into(), Json::Obj(counter_fields(stats))));
    }
}

/// The fields of `stats`' `/v1/eval` object, in visitor order: a counter
/// under its name, a dotted name nested (`dram.accesses`), a per-level
/// counter under `l1`, `l2`, … — a level only when it counted anything.
fn counter_fields<T: Counters>(stats: &T) -> Vec<(String, Json)> {
    let mut live = Vec::new();
    stats.visit(|c| live.extend(c.level.filter(|_| c.value > 0)));
    let mut fields: Vec<(String, Json)> = Vec::new();
    stats.visit(|c| {
        let (group, name) = match (c.level, c.name.split_once('.')) {
            (Some(l), _) if !live.contains(&l) => return,
            (Some(l), _) => (Some(format!("l{}", l + 1)), c.name),
            (None, Some((group, name))) => (Some(group.to_string()), name),
            (None, None) => (None, c.name),
        };
        let value = (name.to_string(), Json::u64(c.value));
        let Some(group) = group else { return fields.push(value) };
        match fields.iter_mut().find(|(k, _)| *k == group) {
            Some((_, Json::Obj(inner))) => inner.push(value),
            _ => fields.push((group, Json::Obj(vec![value]))),
        }
    });
    fields
}

/// Renders an [`ApiError`] as the `{"error": ...}` body.
pub fn error_body(e: &ApiError) -> String {
    Json::Obj(vec![("error".into(), Json::str(e.message.clone()))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_sim::{ReconvergenceModel, SchedulerPolicy};

    #[test]
    fn parses_named_workload_request() {
        let req = parse_request(
            br#"{"workload":"rsbench","mode":"baseline","policy":"minpc","warps":2,"seed":7,"seeds":3}"#,
        )
        .unwrap();
        assert_eq!(req.spec.workload.name, "rsbench");
        assert_eq!(req.spec.workload.launch.num_warps, 2);
        assert_eq!(req.spec.workload.launch.seed, 7);
        assert_eq!(req.spec.seeds, Seeds::Count(3));
        assert_eq!(req.spec.cfg.scheduler, SchedulerPolicy::MinPc);
        assert!(!req.spec.compile.as_ref().unwrap().speculative);
        assert!(req.spec.compile.as_ref().unwrap().lint);
        assert!(!req.spec.cfg.final_mem, "responses never read final memory");

        // `mem` and `entry` beside a name are ignored, whatever they hold.
        let plain = parse_request(br#"{"workload":"rsbench"}"#).unwrap().spec.workload.launch;
        for extra in [r#""mem":64"#, r#""mem":8388608"#, r#""mem":"lots""#, r#""entry":"k""#] {
            let body = format!(r#"{{"workload":"rsbench",{extra}}}"#);
            let req = parse_request(body.as_bytes()).unwrap_or_else(|e| panic!("{body}: {e:?}"));
            let launch = req.spec.workload.launch;
            assert_eq!(
                (launch.kernel, launch.global_mem),
                (plain.kernel.clone(), plain.global_mem.clone())
            );
        }
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
        assert_eq!(req.spec.workload.name, "inline");
        assert_eq!(req.spec.workload.launch.kernel, "k");
        assert_eq!(req.spec.workload.launch.global_mem.len(), 64);
    }

    /// Every key of the grammar is a JSON field of its kind's type.
    #[test]
    fn every_key_has_a_json_spelling() {
        let src = "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\nbb0:\n  exit\n}\n";
        let hier = "l1:lines=8,cells=16,lat=2,mshrs=4;dram:lat=24,extra=2";
        let body = Json::Obj(vec![
            ("kernel".into(), Json::str(src)),
            ("entry".into(), Json::str("k")),
            ("mem".into(), Json::u64(64)),
            ("warps".into(), Json::u64(2)),
            ("seed".into(), Json::u64(9)),
            ("seeds".into(), Json::Arr(vec![Json::u64(3), Json::u64(5)])),
            ("threshold".into(), Json::u64(4)),
            ("mode".into(), Json::str("auto")),
            ("repair".into(), Json::str("sr")),
            ("deconflict".into(), Json::str("static")),
            ("barrier_alloc".into(), Json::Bool(true)),
            ("policy".into(), Json::str("round-robin")),
            ("mem_hier".into(), Json::str(hier)),
            ("recon_model".into(), Json::str("warp-split")),
        ]);
        let Json::Obj(fields) = &body else { unreachable!() };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let mut keys: Vec<&str> = Key::all().map(Key::name).collect();
        keys.retain(|k| *k != "workload");
        assert_eq!(names, keys, "the body names every key but `workload`");

        let req = parse_request(body.render().as_bytes()).unwrap();
        let (l, opts) = (&req.spec.workload.launch, req.spec.compile.as_ref().unwrap());
        assert_eq!((l.kernel.as_str(), l.global_mem.len(), l.num_warps, l.seed), ("k", 64, 2, 9));
        assert_eq!(req.spec.seeds, Seeds::Range(3, 5));
        assert_eq!((req.mode.as_str(), req.policy.as_str()), ("auto", "round-robin"));
        assert_eq!(req.repair, Some(RepairStrategy::Sr));
        assert_eq!(opts.deconflict, specrecon_core::DeconflictMode::Static);
        assert!(opts.barrier_allocation && opts.lint, "{opts:?}");
        assert!(!req.spec.cfg.final_mem, "responses never read final memory");
        assert_eq!(req.spec.cfg.scheduler, SchedulerPolicy::RoundRobin);
        assert!(req.spec.cfg.mem.is_some());
        assert_eq!(req.spec.cfg.recon, ReconvergenceModel::WarpSplit { window: 0, compact: false });

        // Each kind rejects the other JSON types with the type it wants.
        for (field, value, needle) in [
            ("warps", "\"2\"", "`warps` must be a non-negative integer"),
            ("warps", "-1", "`warps` must be a non-negative integer"),
            ("policy", "3", "`policy` must be a string"),
            ("barrier_alloc", "\"true\"", "`barrier_alloc` must be a boolean"),
            ("seeds", "\"0..4\"", "`seeds` must be a count or a [lo, hi] range"),
            ("seeds", "[1, \"2\"]", "`seeds` must be a count or a [lo, hi] range"),
        ] {
            let body = format!(r#"{{"workload":"rsbench","{field}":{value}}}"#);
            let err = parse_request(body.as_bytes()).unwrap_err();
            assert_eq!(err.status, 400, "{body}");
            assert_eq!(err.message, needle, "{body}");
        }
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
            // Out of a key's bound: answered, not clamped.
            (br#"{"workload":"rsbench","seeds":0}"#, "`seeds`: must run 1..=400 seeds, got 0"),
            (br#"{"workload":"rsbench","seeds":1000}"#, "`seeds`: must run 1..=400 seeds"),
            (br#"{"workload":"rsbench","warps":4097}"#, "`warps`: must be in 1..=4096, got 4097"),
            (
                br#"{"kernel":"kernel @k(params=0, regs=1, barriers=0, entry=bb0) {\nbb0:\n  exit\n}\n","mem":4194305}"#,
                "`mem`: must be in 0..=4194304",
            ),
            (br#"{"workload":"rsbench","deconflict":"eager"}"#, "unknown deconflict"),
            (br#"{"workload":"rsbench","deadline_ms":"soon"}"#, "`deadline_ms`"),
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
        assert_eq!(req.spec.seeds, Seeds::Range(10, 14));
        // The count form stays a count.
        let req = parse_request(br#"{"workload":"rsbench","seeds":3}"#).unwrap();
        assert_eq!(req.spec.seeds, Seeds::Count(3));
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
            assert_eq!(req.spec.seeds, Seeds::Range(0, 64));
        }
    }

    #[test]
    fn seed_ranges_wider_than_a_cohort_parse() {
        // The old hard cap was 64 seeds (one cohort); the engine chunks
        // wider ranges, so anything up to the sanity bound is accepted.
        let req = parse_request(br#"{"workload":"rsbench","seeds":[0,200]}"#).unwrap();
        assert_eq!(req.spec.seeds, Seeds::Range(0, 200));
        let req = parse_request(br#"{"workload":"rsbench","seeds":[0,400]}"#).unwrap();
        assert_eq!(req.spec.seeds, Seeds::Range(0, 400));
    }

    #[test]
    fn parses_mem_hier_knob() {
        let req = parse_request(
            br#"{"workload":"rsbench","mem_hier":"l1:lines=8,cells=16,lat=2,mshrs=4;dram:lat=24,extra=2"}"#,
        )
        .unwrap();
        let hier = req.spec.cfg.mem.expect("mem_hier sets the hierarchy model");
        assert_eq!(hier.levels.len(), 1);
        assert_eq!(hier.levels[0].lines, 8);
        assert_eq!(hier.mem_latency, 24);
        // Omitted: flat model, as before.
        let req = parse_request(br#"{"workload":"rsbench"}"#).unwrap();
        assert!(req.spec.cfg.mem.is_none());
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
        assert_eq!(req.spec.cfg.recon, ReconvergenceModel::WarpSplit { window: 4, compact: true });
        // Omitted: the default Volta barrier-file model.
        let req = parse_request(br#"{"workload":"rsbench"}"#).unwrap();
        assert_eq!(req.spec.cfg.recon, ReconvergenceModel::BarrierFile);
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

    /// Across seeds the stack depth is a high-water mark, the pushes a
    /// count: an N-seed request folds them as `max` and `+` of its
    /// single-seed runs.
    #[test]
    fn multi_seed_recon_counters_fold_by_kind() {
        let engine = Engine::new(1);
        let token = CancelToken::new();
        let recon = |extra: &str| {
            let body =
                format!(r#"{{"kernel":{},"recon_model":"ipdom-stack",{extra}}}"#, listing1());
            let out = execute(&engine, &parse_request(body.as_bytes()).unwrap(), &token, None);
            let recon = out.unwrap().get("recon").expect("a recon object").clone();
            let field = |k: &str| recon.get(k).and_then(Json::as_u64).unwrap();
            (field("stack_max_depth"), field("stack_pushes"))
        };
        let (depth, pushes) = recon(r#""seed":40,"seeds":3"#);
        let singles: Vec<_> = (40..43).map(|s| recon(&format!(r#""seed":{s}"#))).collect();
        assert_eq!(depth, singles.iter().map(|r| r.0).max().unwrap());
        assert_eq!(pushes, singles.iter().map(|r| r.1).sum::<u64>());
        assert!(depth > 0);
    }

    fn listing1() -> String {
        Json::str(include_str!("../../../examples/kernels/listing1.sr")).render()
    }

    #[test]
    fn parses_repair_knob_and_echoes_it() {
        // Each strategy parses and replaces the mode's compile options.
        let req = parse_request(br#"{"workload":"srad","repair":"sr+meld"}"#).unwrap();
        assert_eq!(req.repair, Some(RepairStrategy::SrMeld));
        let opts = req.spec.compile.unwrap();
        assert!(opts.speculative && opts.meld.is_some());
        let req =
            parse_request(br#"{"workload":"srad","mode":"speculative","repair":"pdom"}"#).unwrap();
        assert_eq!(req.repair, Some(RepairStrategy::Pdom));
        assert!(!req.spec.compile.unwrap().speculative, "`repair` overrides `mode`");
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
