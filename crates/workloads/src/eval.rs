//! Evaluation harness: compile a workload, run it, and run grids of such
//! runs ([`Grid`](crate::Grid)) with an output-equality check, since
//! Speculative Reconvergence must never change results.
//!
//! The harness is built around [`Engine`], which caches compiled kernels
//! as decoded execution images (keyed by module text and
//! [`CompileOptions`]) and runs independent jobs on scoped worker
//! threads. [`shared`] is a process-wide single-job engine for callers
//! that want the cache without constructing their own.

use crate::spec::SpecError;
use crate::{RunSpec, Seeds, Workload};
use simt_ir::Module;
use simt_sim::{
    counters, run_image_with, run_sweep_image, CancelToken, DecodedImage, Launch, SeedRun,
    SimConfig, SimError, SimOutput, SweepLaunch, SweepStats,
};
use specrecon_core::{compile, CompileOptions, PassError};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Error from the evaluation harness.
#[derive(Debug)]
pub enum EvalError {
    /// Compilation failed.
    Compile(PassError),
    /// Simulation failed.
    Sim(SimError),
    /// A grid axis value the key table refuses.
    Spec(SpecError),
    /// A grid cell, by name, failed.
    Cell(String, Box<EvalError>),
    /// Two grid cells that differ only in compile keys left different
    /// memory contents — a correctness bug.
    ResultMismatch {
        /// The two cells, by name.
        cells: [String; 2],
        /// First differing global memory cell.
        first_diff: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Compile(e) => write!(f, "compile error: {e}"),
            EvalError::Sim(e) => write!(f, "simulation error: {e}"),
            EvalError::Spec(e) => write!(f, "grid axis: {e}"),
            EvalError::Cell(cell, e) => write!(f, "{cell}: {e}"),
            EvalError::ResultMismatch { cells: [a, b], first_diff } => {
                write!(f, "{a} and {b} changed results (first diff at global[{first_diff}])")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<PassError> for EvalError {
    fn from(e: PassError) -> Self {
        EvalError::Compile(e)
    }
}

impl From<SimError> for EvalError {
    fn from(e: SimError) -> Self {
        EvalError::Sim(e)
    }
}

impl EvalError {
    /// Whether this error is a cooperative cancellation (deadline expiry
    /// or shutdown), as opposed to a compile/simulation failure.
    pub fn is_cancelled(&self) -> bool {
        match self {
            EvalError::Cell(_, e) => e.is_cancelled(),
            e => matches!(e, EvalError::Sim(SimError::Cancelled { .. })),
        }
    }
}

/// Counters describing the compiled-image cache's effectiveness; see
/// [`Engine::cache_stats`]. All counts are cumulative over the engine's
/// lifetime except `entries`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile + decode.
    pub misses: u64,
    /// Entries discarded to stay under the capacity bound.
    pub evictions: u64,
    /// Distinct compiled kernels currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cached decoded image stamped with its last-use tick (for LRU
/// eviction under a capacity bound).
struct CacheEntry {
    image: Arc<DecodedImage>,
    last_used: u64,
}

/// The engine's compiled-image cache: map plus bookkeeping, all guarded
/// by one mutex (lookups are rare next to the simulation work they
/// front).
#[derive(Default)]
struct Cache {
    map: HashMap<String, CacheEntry>,
    /// Monotonic use counter driving `last_used` stamps.
    tick: u64,
    /// `None` = unbounded (the historical behavior).
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Cache {
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
        }
    }

    /// Discards least-recently-used entries until the capacity bound
    /// holds. A capacity of zero is clamped to one so an insert directly
    /// followed by a lookup of the same key still hits.
    fn enforce_capacity(&mut self) {
        let Some(cap) = self.capacity else { return };
        let cap = cap.max(1);
        while self.map.len() > cap {
            let Some(oldest) =
                self.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            else {
                return;
            };
            self.map.remove(&oldest);
            self.evictions += 1;
        }
    }
}

/// Batch evaluation engine: a compiled-kernel cache plus a worker pool.
///
/// Compilation and decode are deterministic, and a [`DecodedImage`] is
/// independent of [`SimConfig`] (issue costs are resolved per run), so the
/// cache is keyed only by the module's textual form and the
/// [`CompileOptions`] — two workloads that lower to the same kernel share
/// one image.
///
/// [`Engine::par_map`] executes independent jobs on `std::thread::scope`
/// worker threads. Results are merged by job index, so output order —
/// and, because each simulation is a pure function of `(image, cfg,
/// launch)`, every byte of every result — is identical no matter how
/// many workers run.
pub struct Engine {
    jobs: usize,
    cache: Mutex<Cache>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("jobs", &self.jobs)
            .field("cached_images", &self.cached_images())
            .finish()
    }
}

impl Engine {
    /// Creates an engine that runs batches on `jobs` worker threads
    /// (clamped to at least 1). The compiled-image cache is unbounded;
    /// use [`Engine::with_capacity`] for long-lived engines fed
    /// arbitrary kernels (the evaluation service).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1), cache: Mutex::new(Cache::default()) }
    }

    /// Like [`Engine::new`] but bounds the compiled-image cache to
    /// `capacity` entries, evicting least-recently-used images. A
    /// capacity of zero is clamped to one.
    pub fn with_capacity(jobs: usize, capacity: usize) -> Self {
        let engine = Self::new(jobs);
        engine.cache().capacity = Some(capacity);
        engine
    }

    /// The image cache. A thread that panicked while holding the lock
    /// (the evaluation service contains a job's panic and keeps serving)
    /// poisons it, but every update leaves the cache valid at every step
    /// — counters, a map insert, an eviction — so the guard is recovered.
    fn cache(&self) -> std::sync::MutexGuard<'_, Cache> {
        self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Creates an engine sized to the machine's available parallelism.
    pub fn with_default_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Number of worker threads batches run on.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Number of distinct compiled kernels currently cached.
    pub fn cached_images(&self) -> usize {
        self.cache().map.len()
    }

    /// Hit/miss/eviction counters for the compiled-image cache (the
    /// evaluation service exports these as Prometheus gauges).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache().stats()
    }

    /// Returns the cached decoded execution image for `module` compiled
    /// under `opts` (`None` runs the module as-is), compiling and
    /// decoding on a miss. Every run goes through here; callers that
    /// drive [`run_image`](simt_sim::run_image) themselves in a tight
    /// loop use it so as not to pay the cache lock per run.
    ///
    /// # Errors
    ///
    /// Compilation failures (when `opts` is `Some`).
    pub fn decoded(
        &self,
        module: &Module,
        opts: Option<&CompileOptions>,
    ) -> Result<Arc<DecodedImage>, EvalError> {
        // Key by full text, not by hash: collisions would silently run the
        // wrong kernel. Modules are small; the memory cost is negligible.
        let key = match opts {
            Some(o) => format!("{module}\u{1}{o:?}"),
            None => format!("{module}\u{1}raw"),
        };
        {
            let mut cache = self.cache();
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(entry) = cache.map.get_mut(&key) {
                entry.last_used = tick;
                let image = Arc::clone(&entry.image);
                cache.hits += 1;
                return Ok(image);
            }
            cache.misses += 1;
        }
        let img = Arc::new(match opts {
            Some(o) => DecodedImage::decode(&compile(module, o)?.module),
            None => DecodedImage::decode(module),
        });
        // A concurrent miss may insert first; both images are identical,
        // so last-write-wins is fine.
        let mut cache = self.cache();
        cache.tick += 1;
        let entry = CacheEntry { image: Arc::clone(&img), last_used: cache.tick };
        cache.map.insert(key, entry);
        cache.enforce_capacity();
        Ok(img)
    }

    /// Runs `spec`: compiles its workload through the image cache for the
    /// machine's warp width, then runs a [`Seeds::Count`] as scalar
    /// launches on the worker pool and a [`Seeds::Range`] as lockstep
    /// cohorts. Each seed's [`SeedRun`]
    /// goes through `keep` as its launch or cohort finishes, so what
    /// `keep` drops (a final memory) is never held for the whole run;
    /// results are in seed order. `cancel` is polled before each scalar
    /// launch and between scheduling rounds.
    ///
    /// # Errors
    ///
    /// Compile failures; for a range, [`SimError::SweepUnsupported`]
    /// (trace, profile or journal asked for) and [`SimError::Cancelled`].
    /// A seed's own fault, cancellation of a scalar launch included, is
    /// reported in its [`SeedRun`].
    pub fn run<R: Send>(
        &self,
        spec: &RunSpec,
        cancel: Option<&CancelToken>,
        keep: impl Fn(SeedRun) -> R + Sync,
    ) -> Result<RunOutput<R>, EvalError> {
        let (cfg, base) = (&spec.cfg, &spec.workload.launch);
        let image = self.compiled(&spec.workload.module, spec.compile.as_ref(), cfg)?;
        match spec.seeds {
            Seeds::Count(n) => {
                let seeds: Vec<u64> = (0..n).map(|i| base.seed.wrapping_add(i)).collect();
                let runs = self.par_map(&seeds, |&seed| {
                    let result = run_seed(&image, cfg, &Launch { seed, ..base.clone() }, cancel);
                    keep(SeedRun { seed, result })
                });
                Ok(RunOutput { runs, sweep: None })
            }
            Seeds::Range(lo, hi) => {
                Ok(self.sweep_image_range(&image, spec, lo..hi, cancel, keep)?)
            }
        }
    }

    /// Compiles the workload with `opts` for `cfg`'s warp width and runs
    /// it once, returning the full [`SimOutput`] (including trace/profile
    /// when `cfg` requests them).
    pub fn run_full(
        &self,
        w: &Workload,
        opts: &CompileOptions,
        cfg: &SimConfig,
    ) -> Result<SimOutput, EvalError> {
        let image = self.compiled(&w.module, Some(opts), cfg)?;
        Ok(run_seed(&image, cfg, &w.launch, None)?)
    }

    /// [`Engine::decoded`] with the options' warp width taken from `cfg`,
    /// the machine the image will run on.
    fn compiled(
        &self,
        module: &Module,
        opts: Option<&CompileOptions>,
        cfg: &SimConfig,
    ) -> Result<Arc<DecodedImage>, EvalError> {
        let opts = opts.map(|o| CompileOptions { warp_width: cfg.warp_width as u32, ..o.clone() });
        self.decoded(module, opts.as_ref())
    }

    /// The [`Seeds::Range`] half of [`Engine::run`]: partitions `seeds`
    /// into cohort-sized chunks balanced across the worker pool, runs each
    /// through [`run_sweep_image`] and passes its seeds through `keep`
    /// before the worker takes the next.
    fn sweep_image_range<R: Send>(
        &self,
        image: &DecodedImage,
        spec: &RunSpec,
        seeds: std::ops::Range<u64>,
        cancel: Option<&CancelToken>,
        keep: impl Fn(SeedRun) -> R + Sync,
    ) -> Result<RunOutput<R>, SimError> {
        let (cfg, launch) = (&spec.cfg, &spec.workload.launch);
        let n = seeds.end.saturating_sub(seeds.start);
        // Chunk the range to fill the worker pool, but never wider than
        // one cohort; a remainder chunk at the end is fine.
        let per_worker = n.div_ceil(self.jobs as u64);
        let chunk = per_worker.clamp(1, simt_sim::sweep::COHORT_SLOTS as u64);
        let chunk_at = |lo: u64| (lo, seeds.end.min(lo.saturating_add(chunk)));
        let ranges: Vec<_> = seeds.clone().step_by(chunk as usize).map(chunk_at).collect();
        let chunks = self.par_map(&ranges, |&(lo, hi)| -> Result<_, SimError> {
            let sweep = SweepLaunch::new(launch.clone(), lo, hi);
            let out = run_sweep_image(image, cfg, &sweep, cancel)?;
            Ok((out.runs.into_iter().map(&keep).collect::<Vec<_>>(), out.stats))
        });
        let mut runs = Vec::with_capacity(n as usize);
        let mut stats = SweepStats::default();
        for chunk in chunks {
            let (kept, chunk_stats) = chunk?;
            runs.extend(kept);
            stats = counters::fold(&stats, &chunk_stats);
        }
        Ok(RunOutput { runs, sweep: Some(stats) })
    }

    /// Applies `f` to every item on the worker pool and returns results in
    /// item order. Mapped over [`Engine::run_full`], this is the batch
    /// entry for observability sweeps too: journal writer callbacks run on
    /// the worker threads, which is why [`simt_sim::JournalWriter`]
    /// requires `Send + Sync`.
    ///
    /// Work is distributed by an atomic cursor (dynamic load balancing);
    /// each worker records `(index, result)` pairs which are merged by
    /// index after the scope joins, so the output is deterministic. With
    /// one worker (or one item) this degenerates to a plain sequential
    /// map on the calling thread.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().map(&f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            out.push((i, f(&items[i])));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("engine worker panicked")).collect()
        });
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for (i, r) in per_worker.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots.into_iter().map(|r| r.expect("engine worker skipped an item")).collect()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new(1)
    }
}

/// What [`Engine::run`] returns.
#[derive(Debug)]
pub struct RunOutput<R = SeedRun> {
    /// What `keep` kept of each seed's run, in seed order; a seed's fault
    /// is its own.
    pub runs: Vec<R>,
    /// The lockstep engine's counters, for a [`Seeds::Range`].
    pub sweep: Option<SweepStats>,
}

/// One scalar launch: every [`Seeds::Count`] seed and [`Engine::run_full`]
/// run here.
fn run_seed(
    image: &DecodedImage,
    cfg: &SimConfig,
    launch: &Launch,
    cancel: Option<&CancelToken>,
) -> Result<SimOutput, SimError> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Err(SimError::Cancelled { cycle: 0 });
    }
    run_image_with(image, cfg, launch, cancel)
}

/// The process-wide engine: single-job (sequential), with a shared
/// kernel cache, so repeated runs of the same kernel anywhere in the
/// process skip recompilation and redecoding.
pub fn shared() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine::new(1))
}

/// The first cell where two final memories differ, floats compared to one
/// part in 10^9.
pub(crate) fn first_difference(a: &[simt_ir::Value], b: &[simt_ir::Value]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| match (x, y) {
        (simt_ir::Value::F64(p), simt_ir::Value::F64(q)) => {
            // Atomic accumulation order may differ between configurations;
            // tolerate float rounding.
            (p - q).abs() > 1e-9 * (1.0 + p.abs().max(q.abs()))
        }
        _ => x != y,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsbench;
    use simt_ir::Value;
    use simt_sim::Metrics;

    /// RSBench shrunk to `warps` warps.
    fn small(warps: usize) -> Workload {
        let mut w = rsbench::build(&rsbench::Params::default());
        w.launch.num_warps = warps;
        w
    }

    /// One launch of `w` under `opts` on the default machine.
    fn run(engine: &Engine, w: &Workload, opts: &CompileOptions) -> (Metrics, Vec<Value>) {
        let out = engine.run_full(w, opts, &SimConfig::default()).expect("rsbench runs");
        (out.metrics, out.global_mem)
    }

    /// A panic while the cache lock is held (contained by the service's
    /// worker isolation) must not take the cache away from every later
    /// request.
    #[test]
    fn a_poisoned_cache_lock_is_recovered() {
        let engine = Engine::with_capacity(1, 4);
        let w = rsbench::build(&rsbench::Params::default());
        engine.decoded(&w.module, None).expect("decodes");
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = engine.cache();
                panic!("poison the cache lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(engine.cache.is_poisoned());
        assert_eq!(engine.cached_images(), 1);
        engine.decoded(&w.module, None).expect("still serves hits");
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn error_displays_are_informative() {
        let e = EvalError::ResultMismatch { cells: ["x".into(), "y".into()], first_diff: 7 };
        assert_eq!(e.to_string(), "x and y changed results (first diff at global[7])");
        let e = EvalError::Cell("x".into(), Box::new(SimError::Cancelled { cycle: 3 }.into()));
        assert!(e.to_string().starts_with("x: simulation error"), "{e}");
        assert!(e.is_cancelled());
    }

    #[test]
    fn first_difference_tolerates_float_rounding() {
        let a = vec![Value::F64(1.0), Value::I64(2)];
        let b = vec![Value::F64(1.0 + 1e-12), Value::I64(2)];
        assert_eq!(first_difference(&a, &b), None);
        let c = vec![Value::F64(1.1), Value::I64(2)];
        assert_eq!(first_difference(&a, &c), Some(0));
        let short = vec![Value::F64(1.0)];
        assert_eq!(first_difference(&a, &short), Some(1));
    }

    #[test]
    fn with_threshold_sets_every_prediction() {
        let base = RunSpec::of(rsbench::build(&rsbench::Params::default()));
        let mut s = base.clone();
        s.apply(&[("threshold", "12"), ("warps", "3"), ("seed", "99")]).unwrap();
        assert_eq!((s.workload.launch.num_warps, s.workload.launch.seed), (3, 99));
        for (_, f) in s.workload.module.functions.iter() {
            for p in &f.predictions {
                assert_eq!(p.threshold, Some(12));
            }
        }
        // The amended spec is a clone; the base is unchanged.
        let w = &base.workload;
        let kernel = w.module.function_by_name("rsbench").unwrap();
        assert_eq!(w.module.functions[kernel].predictions[0].threshold, None);
        assert_ne!(w.launch.seed, 99);
    }

    /// `w` under `opts` over `seeds`, on the default machine.
    fn spec(w: &Workload, opts: Option<CompileOptions>, seeds: Seeds) -> RunSpec {
        RunSpec { workload: w.clone(), compile: opts, cfg: SimConfig::default(), seeds }
    }

    #[test]
    fn run_sweep_matches_per_seed_runs_and_compiles_once() {
        let engine = Engine::new(3);
        let mut w = small(1);
        w.launch.seed = 10;
        let opts = CompileOptions::baseline();
        // 5 seeds over 3 workers: chunked (2, 2, 1), merged in seed order.
        let out = engine
            .run(&spec(&w, Some(opts.clone()), Seeds::Range(10, 15)), None, |run| run)
            .unwrap();
        let stats = out.sweep.expect("a range runs as cohorts");
        assert_eq!(out.runs.len(), 5);
        assert_eq!(stats.instances, 5);
        assert_eq!(engine.cache_stats().misses, 1, "the sweep compiles once");
        // The same seeds as a count: scalar launches from `launch.seed`,
        // bit-identical, and from the cache.
        let scalar = engine.run(&spec(&w, Some(opts), Seeds::Count(5)), None, |run| run).unwrap();
        assert!(scalar.sweep.is_none());
        assert_eq!(engine.cache_stats().misses, 1, "the count hits the sweep's image");
        for (run, alone) in out.runs.iter().zip(&scalar.runs) {
            assert_eq!(run.seed, alone.seed);
            let swept = run.result.as_ref().expect("rsbench runs clean");
            let alone = alone.result.as_ref().expect("rsbench runs clean");
            assert_eq!(swept.metrics, alone.metrics, "seed {}", run.seed);
            assert_eq!(swept.global_mem, alone.global_mem, "seed {}", run.seed);
        }
        assert_eq!(
            out.runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
            (10..15).collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_sweep_empty_range_and_cancellation() {
        let engine = Engine::new(2);
        let w = small(1);
        let out = engine.run(&spec(&w, None, Seeds::Range(7, 7)), None, |run| run).unwrap();
        assert!(out.runs.is_empty());
        let token = CancelToken::new();
        token.cancel();
        let err =
            engine.run(&spec(&w, None, Seeds::Range(0, 4)), Some(&token), |run| run).unwrap_err();
        assert!(err.is_cancelled(), "got {err}");
        // A count reports every seed cancelled without running it.
        let out = engine.run(&spec(&w, None, Seeds::Count(3)), Some(&token), |run| run).unwrap();
        assert_eq!(out.runs.len(), 3);
        for run in out.runs {
            assert!(matches!(run.result, Err(SimError::Cancelled { cycle: 0 })), "{run:?}");
        }
    }

    /// `keep` sees each seed as its launch or cohort finishes, before the
    /// worker starts the next, so what it drops is never held for the
    /// whole run: a `keep` that cancels stops every later seed.
    #[test]
    fn keep_runs_as_each_seed_finishes() {
        let engine = Engine::new(1);
        let src = "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\nbb0:\n  %r0 = special.tid\n  %r1 = mul %r0, 2\n  store global[%r0], %r1\n  exit\n}\n";
        let parse = |seeds: &str| {
            RunSpec::parse(&[("kernel", src), ("warps", "1"), ("seeds", seeds)]).unwrap()
        };
        // A count: the first launch was kept, every later one saw the token.
        let token = CancelToken::new();
        let cycles = |run: SeedRun| {
            token.cancel();
            run.result.map(|o| o.metrics.cycles)
        };
        let runs = engine.run(&parse("3"), Some(&token), cycles).unwrap().runs;
        assert!(runs[0].is_ok(), "{runs:?}");
        for run in &runs[1..] {
            assert!(matches!(run, Err(SimError::Cancelled { cycle: 0 })), "{runs:?}");
        }
        // A range one seed wider than a cohort: the first cohort was kept,
        // the second never ran.
        let token = CancelToken::new();
        let range = format!("0..{}", simt_sim::sweep::COHORT_SLOTS + 1);
        let err = engine.run(&parse(&range), Some(&token), |run| {
            token.cancel();
            run.seed
        });
        assert!(err.unwrap_err().is_cancelled());
    }

    #[test]
    fn engine_caches_compiled_kernels() {
        let engine = Engine::new(1);
        let w = small(2);
        assert_eq!(engine.cached_images(), 0);
        let a = run(&engine, &w, &CompileOptions::baseline());
        assert_eq!(engine.cached_images(), 1);
        let b = run(&engine, &w, &CompileOptions::baseline());
        assert_eq!(engine.cached_images(), 1, "second run must hit the cache");
        assert_eq!(a, b);
        // A different compile configuration is a different cache entry,
        // and so is the same one for the machine's other warp width.
        run(&engine, &w, &CompileOptions::speculative());
        let narrow = SimConfig { warp_width: 8, ..SimConfig::default() };
        engine.run_full(&w, &CompileOptions::speculative(), &narrow).unwrap();
        assert_eq!(engine.cached_images(), 3);
    }

    #[test]
    fn par_map_is_order_preserving_and_complete() {
        for jobs in [1, 2, 3, 8] {
            let engine = Engine::new(jobs);
            let items: Vec<usize> = (0..25).collect();
            let out = engine.par_map(&items, |&i| i * i);
            assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
        // Empty input short-circuits.
        assert_eq!(Engine::new(4).par_map(&[] as &[usize], |&i| i), Vec::<usize>::new());
    }

    #[test]
    fn par_map_order_matches_job_order() {
        let engine = Engine::new(4);
        let opts = CompileOptions::baseline();
        let jobs: Vec<Workload> = [1usize, 2, 3].iter().map(|&warps| small(warps)).collect();
        let results = engine.par_map(&jobs, |w| run(&engine, w, &opts));
        assert_eq!(results.len(), 3);
        for (w, result) in jobs.iter().zip(&results) {
            let expected = run(&Engine::new(1), w, &opts);
            assert_eq!(result, &expected, "warps={}", w.launch.num_warps);
        }
    }

    #[test]
    fn par_map_threads_trace_and_journal_requests() {
        use simt_sim::JournalConfig;
        let engine = Engine::new(2);
        let w = small(1);
        let opts = CompileOptions::baseline();
        let observed = SimConfig {
            trace: true,
            journal: Some(JournalConfig::default()),
            ..SimConfig::default()
        };
        let cfgs = [observed, SimConfig::default()];
        let results = engine.par_map(&cfgs, |cfg| engine.run_full(&w, &opts, cfg));
        assert_eq!(results.len(), 2);
        let traced = results[0].as_ref().unwrap();
        assert!(traced.trace.is_some(), "trace request survives the worker pool");
        let journal = traced.journal.as_ref().expect("journal request survives the worker pool");
        assert!(journal.recorded() > 0, "a divergent workload journals events");
        let plain = results[1].as_ref().unwrap();
        assert!(plain.trace.is_none() && plain.journal.is_none());
        // Observability off/on agree on the execution itself.
        assert_eq!(traced.metrics, plain.metrics);
        assert_eq!(traced.global_mem, plain.global_mem);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let engine = Engine::new(1);
        let w = small(2);
        assert_eq!(engine.cache_stats(), CacheStats::default());
        run(&engine, &w, &CompileOptions::baseline());
        let s = engine.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1));
        run(&engine, &w, &CompileOptions::baseline());
        run(&engine, &w, &CompileOptions::baseline());
        let s = engine.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        run(&engine, &w, &CompileOptions::speculative());
        assert_eq!(engine.cache_stats().misses, 2);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let engine = Engine::with_capacity(1, 2);
        let w = small(1);
        let base = CompileOptions::baseline();
        let spec = CompileOptions::speculative();
        let auto = CompileOptions::automatic(specrecon_core::DetectOptions::default());
        run(&engine, &w, &base); // miss: {base}
        run(&engine, &w, &spec); // miss: {base, spec}
        run(&engine, &w, &base); // hit, refreshes base
        run(&engine, &w, &auto); // miss: evicts spec (LRU)
        let s = engine.cache_stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // base survived the eviction (it was refreshed), spec did not.
        run(&engine, &w, &base);
        assert_eq!(engine.cache_stats().hits, 2, "base still resident");
        run(&engine, &w, &spec);
        let s = engine.cache_stats();
        assert_eq!(s.misses, 4, "spec was evicted and re-compiles");
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one_entry() {
        let engine = Engine::with_capacity(1, 0);
        let w = small(1);
        run(&engine, &w, &CompileOptions::baseline());
        run(&engine, &w, &CompileOptions::baseline());
        let s = engine.cache_stats();
        assert_eq!((s.hits, s.entries), (1, 1));
    }

    #[test]
    fn cancellation_mid_batch_leaves_cache_usable() {
        let engine = Engine::new(2);
        let w = small(2);
        let opts = CompileOptions::baseline();
        // Pre-cancelled token: the run compiles + caches, then stops at
        // the first scheduling round.
        let token = CancelToken::new();
        token.cancel();
        let out = engine
            .run(&spec(&w, Some(opts.clone()), Seeds::Count(1)), Some(&token), |run| run)
            .unwrap();
        let err = EvalError::from(out.runs[0].result.clone().unwrap_err());
        assert!(err.is_cancelled(), "got {err}");
        assert_eq!(engine.cached_images(), 1, "the image outlives the cancelled run");
        // The same kernel still runs to completion from the cache, and a
        // parallel batch over it matches an un-cancelled engine.
        let cancelled_then_ok = run(&engine, &w, &opts);
        let clean = run(&Engine::new(1), &w, &opts);
        assert_eq!(cancelled_then_ok, clean);
        assert_eq!(engine.cache_stats().hits, 1, "the rerun hit the cache");
        let batch = engine.run(&spec(&w, Some(opts), Seeds::Count(3)), None, |run| run).unwrap();
        for run in batch.runs {
            run.result.expect("batch after cancellation succeeds");
        }
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let engine = Engine::new(1);
        let w = small(2);
        let cfg = SimConfig::default();
        let opts = CompileOptions::baseline();
        let token = CancelToken::new();
        let out =
            engine.run(&spec(&w, Some(opts.clone()), Seeds::Count(1)), Some(&token), |run| run);
        let with_token = out.unwrap().runs.remove(0).result.unwrap();
        let without = engine.run_full(&w, &opts, &cfg).unwrap();
        assert_eq!(with_token.metrics, without.metrics);
        assert_eq!(with_token.global_mem, without.global_mem);
    }
}
