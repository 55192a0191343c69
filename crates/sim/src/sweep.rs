//! Lockstep multi-seed execution: the seed dimension as a second SIMD
//! axis.
//!
//! Monte Carlo sweeps run one [`DecodedImage`] over many seeds that
//! differ only in RNG-dependent data. This module executes up to 64
//! seed-*instances* of one launch in lockstep: control state (PCs,
//! status masks, barrier registers, the scheduler's pick state, the
//! clock) is stored **once per sub-cohort** and shared by every
//! instance in it, while data state (register files, local memory, RNG
//! streams, global memory, memory-hierarchy tags) is stored
//! structure-of-arrays — flat columns indexed
//! `[cell * nslots + slot]` with no per-instance pointers. One
//! scheduling decision, one instruction decode, one cost lookup, and
//! one metrics update then serve every instance of a sub-cohort; only
//! the raw value compute is paid per `(lane, slot)` — through the same
//! per-op kernels ([`crate::alu::with_bin`]) the decoded engine's lane
//! loop instantiates, under this module's own loop shape (`SlotAlu`).
//!
//! # Fork, masked execution, merge
//!
//! Lockstep is exact while control flow is uniform across a
//! sub-cohort's instances. The three places instance data can steer
//! control are checked every issue:
//!
//! - **branches**: per-slot taken masks are computed first; each class
//!   of slots that disagrees with the largest group *forks* off as a
//!   child sub-cohort before the branch applies;
//! - **global accesses**: the coalescing fold (or, when configured, the
//!   memory-hierarchy walk) makes the issue cost and the hierarchy's
//!   counters data-dependent, so each slot's cost (or whole walk
//!   outcome) is computed without mutation and each mismatching class
//!   forks with its pre-access state intact;
//! - **faults**: a slot whose lane faults (OOB access, division by
//!   zero) resolves to that seed's own `Err`, exactly as its scalar run
//!   would.
//!
//! A fork is speculative reconvergence applied one axis up: instead of
//! abandoning the vector unit for scalar replay, the diverging class
//! keeps executing under its slot mask. Only the *control plane* is
//! copied (pcs, status masks, frame metadata, scheduler state, the
//! clock) — the SoA value columns are already slot-indexed, so the
//! child reads and writes the same data plane through its own slot
//! mask and **no data moves on fork**. The child's control snapshot is
//! taken before the divergent issue applies, with the issuing warp's
//! scheduler fields rewound to their pre-pick values, so the child
//! re-picks and re-executes that issue itself on the exact unbatched
//! clock — the same replay argument the engine uses for mid-batch
//! divergence.
//!
//! Sub-cohorts are scheduled min-clock-first: the sub-cohort with the
//! smallest cycle runs its next round. At every round boundary,
//! sub-cohorts whose clocks and control planes re-agree are *merged*
//! (slot-mask union; the shared data plane needs no reconciliation),
//! restoring full-width lockstep after reconvergent divergence. The
//! control-plane comparison is sound because every sub-cohort
//! schedules through the same pick path (see [`crate::sched`]): equal
//! control planes pick identically forever after — and both the
//! cohort and the scalar engine drive one [`WarpCtl`], so there is one
//! pick path and one set of barrier transitions to agree with.
//!
//! When a fork would exceed [`MAX_SUBCOHORTS`], the minority class's
//! slots are *set aside*: they leave the cohort, and once it drains each
//! is re-run from cycle 0 as a standalone scalar launch of its seed —
//! exact by construction, no state projected in either direction. The
//! same counted loop serves configurations the cohort cannot run at all
//! (the hardware reconvergence models).
//!
//! # Exactness
//!
//! Sweep outputs are **bit-identical** to N independent scalar runs —
//! metrics, final global memory, RNG streams, and errors — which the
//! conformance differential suite enforces across the generative kernel
//! genome and every scheduler policy. Per-instance observability
//! (trace, profile, journal) cannot be attributed exactly from shared
//! control, so sweeps of more than one instance reject those configs
//! with [`SimError::SweepUnsupported`] instead of emitting misstamped
//! events.

use crate::alu::AluLoop;
use crate::barrier::WarpCtl;
use crate::config::{ReconvergenceModel, SchedulerPolicy, SimConfig};
use crate::decode::{DecodedImage, DecodedInst, PoolRange};
use crate::error::{LaneFault, ReconDump, SimError};
use crate::exec::{is_warp_local, keeps_lockstep, run_image_with, CancelToken, Frame, BATCH_LIMIT};
use crate::machine::{Launch, SimOutput};
use crate::metrics::Metrics;
use crate::rng::SplitMix64;
use crate::sched::{lanes, mask_runs};
use simt_ir::{BarrierOp, BinOp, MemSpace, Operand, RngKind, SpecialValue, Value};

/// Width of one lockstep cohort: slots are tracked in a `u64` mask,
/// mirroring the lane-mask machinery one level down.
pub const COHORT_SLOTS: usize = 64;

/// Cap on concurrently live sub-cohorts. Beyond it, a fork's minority
/// class is set aside for standalone scalar re-runs instead: with
/// divergence this pathological, the masked rounds' per-sub control
/// overhead stops amortizing, and bounding the count keeps the merge
/// scan O(cap²) in the worst round. The cap leaves headroom above the
/// steady state for the fork/merge oscillation within one scheduling
/// round: with `k` independently-diverging warps a sub-cohort can
/// transiently split into `2^k` classes per branch level before the
/// frontier merge scan folds the re-agreeing planes back together.
pub const MAX_SUBCOHORTS: usize = 32;

/// Number of buckets in [`SweepStats::occupancy_hist`]: widths 1, 2,
/// 3–4, 5–8, 9–16, 17–32, 33–64.
pub const OCCUPANCY_BUCKETS: usize = 7;

/// Human-readable labels for [`SweepStats::occupancy_hist`] buckets.
pub const OCCUPANCY_BUCKET_LABELS: [&str; OCCUPANCY_BUCKETS] =
    ["1", "2", "3-4", "5-8", "9-16", "17-32", "33-64"];

/// Histogram bucket of a per-issue sub-cohort width (`1..=64`).
#[inline]
fn occupancy_bucket(width: u32) -> usize {
    if width <= 1 {
        0
    } else {
        (32 - (width - 1).leading_zeros()) as usize
    }
}

/// A seed sweep: one launch template run over the half-open seed range
/// `[seed_lo, seed_hi)`. The template's own [`Launch::seed`] is ignored
/// — each instance `i` runs with seed `seed_lo + i`.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepLaunch {
    /// The launch every instance shares (kernel, warps, args, memory).
    pub base: Launch,
    /// First seed of the sweep (inclusive).
    pub seed_lo: u64,
    /// End of the seed range (exclusive).
    pub seed_hi: u64,
}

impl SweepLaunch {
    /// A sweep of `base` over `[seed_lo, seed_hi)`.
    pub fn new(base: Launch, seed_lo: u64, seed_hi: u64) -> Self {
        Self { base, seed_lo, seed_hi }
    }

    /// Number of seed instances in the range.
    pub fn instances(&self) -> u64 {
        self.seed_hi.saturating_sub(self.seed_lo)
    }
}

/// Outcome of one seed instance of a sweep — exactly what a standalone
/// [`run_image`](crate::exec::run_image) of that seed would return.
#[derive(Clone, Debug)]
pub struct SeedRun {
    /// The seed this instance ran with.
    pub seed: u64,
    /// The instance's own result: output or its own fault/deadlock.
    pub result: Result<SimOutput, SimError>,
}

/// Execution counters of the sweep engine itself (not part of the
/// simulated outputs; those live in each [`SeedRun`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Number of seed instances the sweep ran.
    pub instances: usize,
    /// Instruction issues executed once for a whole sub-cohort.
    pub lockstep_issues: u64,
    /// Times a divergent slot class forked into a child sub-cohort.
    pub forks: u64,
    /// Times two sub-cohorts' control planes re-agreed and merged.
    pub merges: u64,
    /// Sum over lockstep issues of the issuing sub-cohort's width;
    /// `occupancy_sum / lockstep_issues` is the mean occupancy.
    pub occupancy_sum: u64,
    /// Lockstep issues by issuing sub-cohort width: buckets 1, 2, 3–4,
    /// 5–8, 9–16, 17–32, 33–64 (see [`OCCUPANCY_BUCKET_LABELS`]).
    pub occupancy_hist: [u64; OCCUPANCY_BUCKETS],
    /// Most sub-cohorts ever live at once.
    pub peak_subcohorts: u32,
    /// Instances set aside for a standalone scalar re-run (a fork past
    /// [`MAX_SUBCOHORTS`]).
    pub detaches: u64,
    /// Scheduling rounds stepped by standalone scalar machines: the
    /// set-aside instances' re-runs, and every round of a sweep under a
    /// hardware reconvergence model.
    pub scalar_steps: u64,
}

impl SweepStats {
    /// Mean sub-cohort width per lockstep issue (0 when nothing
    /// issued).
    pub fn mean_occupancy(&self) -> f64 {
        if self.lockstep_issues == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.lockstep_issues as f64
        }
    }

    /// Folds another sweep's counters into this one. Sums every counter
    /// except `peak_subcohorts`, which is a high-water mark and takes
    /// the max — chunked sweeps (one cohort per worker) aggregate to the
    /// worst single cohort, not a fictitious combined peak.
    pub fn merge(&mut self, other: &SweepStats) {
        self.instances += other.instances;
        self.lockstep_issues += other.lockstep_issues;
        self.forks += other.forks;
        self.merges += other.merges;
        self.occupancy_sum += other.occupancy_sum;
        for (b, o) in self.occupancy_hist.iter_mut().zip(other.occupancy_hist) {
            *b += o;
        }
        self.peak_subcohorts = self.peak_subcohorts.max(other.peak_subcohorts);
        self.detaches += other.detaches;
        self.scalar_steps += other.scalar_steps;
    }
}

/// Result of a whole sweep: per-seed outcomes in seed order, plus
/// engine counters.
#[derive(Clone, Debug)]
pub struct SweepOutput {
    /// One entry per seed, ordered `seed_lo..seed_hi`.
    pub runs: Vec<SeedRun>,
    /// Fork/merge/occupancy counters.
    pub stats: SweepStats,
}

/// Runs a seed sweep of a decoded image.
///
/// Instances execute in masked lockstep sub-cohorts that fork where
/// control flow diverges and merge where it re-agrees (see the module
/// docs); every [`SeedRun::result`] is bit-identical to a standalone
/// run of that seed.
///
/// # Errors
///
/// - [`SimError::SweepUnsupported`] when the range holds more than
///   [`COHORT_SLOTS`] seeds, or when `cfg` requests trace/profile/
///   journal collection for a sweep of more than one instance.
/// - Launch validation errors ([`SimError::NoSuchKernel`],
///   [`SimError::InvalidModule`]) — these would fail every instance
///   identically.
/// - [`SimError::Cancelled`] when the token fires; per-instance faults
///   and deadlocks are *not* whole-sweep errors — they are reported in
///   the failing instance's [`SeedRun`].
pub fn run_sweep_image(
    image: &DecodedImage,
    cfg: &SimConfig,
    sweep: &SweepLaunch,
    cancel: Option<&CancelToken>,
) -> Result<SweepOutput, SimError> {
    let n = sweep.instances();
    if n == 0 {
        return Ok(SweepOutput { runs: Vec::new(), stats: SweepStats::default() });
    }
    if n == 1 {
        // A single instance is an ordinary run: full observability is
        // allowed and exactness is trivial.
        let mut launch = sweep.base.clone();
        launch.seed = sweep.seed_lo;
        let result = match run_image_with(image, cfg, &launch, cancel) {
            Err(e @ SimError::Cancelled { .. }) => return Err(e),
            r => r,
        };
        let stats = SweepStats { instances: 1, ..SweepStats::default() };
        return Ok(SweepOutput { runs: vec![SeedRun { seed: sweep.seed_lo, result }], stats });
    }
    if n > COHORT_SLOTS as u64 {
        return Err(SimError::SweepUnsupported {
            reason: format!(
                "{n} seeds exceed the {COHORT_SLOTS}-slot cohort; chunk the seed range"
            ),
        });
    }
    if cfg.trace || cfg.profile || cfg.journal.is_some() {
        return Err(SimError::SweepUnsupported {
            reason: format!(
                "trace/profile/journal collection is per-instance; \
                 run the {n} seeds individually"
            ),
        });
    }
    if !matches!(cfg.recon, ReconvergenceModel::BarrierFile) {
        // Hardware reconvergence models (IPDOM stack, warp splitting)
        // schedule each machine's stack/splits independently, which
        // breaks the lockstep-slot invariant the cohort engine is
        // built on. Fall back to one standalone scalar run per seed,
        // its rounds counted as scalar steps so the sweep counters show
        // the fallback path was taken.
        let mut runs = Vec::with_capacity(n as usize);
        let mut stats = SweepStats { instances: n as usize, ..SweepStats::default() };
        for seed in sweep.seed_lo..sweep.seed_hi {
            let result = run_standalone(image, cfg, &sweep.base, seed, cancel, &mut stats)?;
            runs.push(SeedRun { seed, result });
        }
        return Ok(SweepOutput { runs, stats });
    }
    Cohort::new(image, cfg, sweep, n as usize)?.run(cancel)
}

/// Runs one seed of `base` as a standalone scalar launch — exact by
/// construction — counting its scheduling rounds into
/// [`SweepStats::scalar_steps`]. The outer error is cancellation, which
/// fails the whole sweep; the inner result is the seed's own.
fn run_standalone(
    image: &DecodedImage,
    cfg: &SimConfig,
    base: &Launch,
    seed: u64,
    cancel: Option<&CancelToken>,
    stats: &mut SweepStats,
) -> Result<Result<SimOutput, SimError>, SimError> {
    let mut launch = base.clone();
    launch.seed = seed;
    let mut m = match crate::exec::Machine::new(image, cfg, &launch) {
        Ok(m) => m,
        Err(e) => return Ok(Err(e)),
    };
    loop {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(SimError::Cancelled { cycle: m.cycle });
        }
        stats.scalar_steps += 1;
        match m.step() {
            Ok(false) => {}
            Ok(true) => return Ok(Ok(m.into_output())),
            Err(e) => return Ok(Err(e)),
        }
    }
}

/// [`run_sweep_image`] for callers that have not decoded the module
/// themselves.
///
/// # Errors
///
/// Everything [`run_sweep_image`] returns.
pub fn run_sweep(
    module: &simt_ir::Module,
    cfg: &SimConfig,
    sweep: &SweepLaunch,
) -> Result<SweepOutput, SimError> {
    let image = DecodedImage::decode(module);
    run_sweep_image(&image, cfg, sweep, None)
}

/// One lane's frame structure, owned per sub-cohort and shared by
/// every slot of it: structure (where a frame's register window sits in
/// the SoA arena — the same [`Frame`] metadata the decoded engine keeps)
/// is control, the register *values* inside the window are data.
#[derive(Clone, Debug)]
struct CtlLane {
    frames: Vec<Frame>,
    /// Arena bump pointer: the first free offset above the top frame.
    top: usize,
}

/// One lane's *data* columns, shared by every sub-cohort: sub-cohorts
/// address disjoint slot sets, so masked access needs no locking and a
/// fork moves nothing.
#[derive(Clone, Debug)]
struct DLane {
    /// Register values, `[reg_offset * nslots + slot]`; a bump arena
    /// over each sub-cohort's frame stack (frame `i` owns offsets
    /// `frames[i].base .. frames[i].base + frames[i].len`). Sized to
    /// the deepest sub-cohort; never shrinks.
    vals: Vec<Value>,
    /// Per-slot RNG streams.
    rng: Vec<SplitMix64>,
    /// Local memory, `[cell * nslots + slot]`.
    local: Vec<Value>,
}

/// An operand resolved against one lane's frame: either an immediate
/// broadcast to every slot or the start of a register's slot column in
/// the value arena. Hoists the `(base + reg) * nslots` arithmetic out of
/// the slot-inner loops.
#[derive(Clone, Copy)]
enum Row {
    Imm(Value),
    At(usize),
}

impl CtlLane {
    /// Register base offset of the top (live) frame.
    #[inline]
    fn cur_base(&self) -> usize {
        self.frames.last().expect("lane has no frame").base
    }

    /// Pushes a callee frame: extends the arena by `num_regs` offsets,
    /// default-initializing the new window for `slots` only — other
    /// sub-cohorts share the arena and may hold live values in these
    /// rows' other columns.
    fn push_frame(
        &mut self,
        d: &mut DLane,
        ns: usize,
        slots: u64,
        pc: usize,
        ret_regs: PoolRange,
        num_regs: usize,
    ) {
        let base = self.top;
        self.top += num_regs;
        let want = self.top * ns;
        if d.vals.len() < want {
            d.vals.resize(want, Value::default());
        }
        for r in base..self.top {
            let row = r * ns;
            for (lo, hi) in mask_runs(slots) {
                for v in &mut d.vals[row + lo..row + hi] {
                    *v = Value::default();
                }
            }
        }
        self.frames.push(Frame { pc, ret_regs, base });
    }

    /// Pops the top frame, releasing its arena window.
    fn pop_frame(&mut self) -> Frame {
        let m = self.frames.pop().expect("return without frame");
        self.top = m.base;
        m
    }
}

impl DLane {
    /// Resolves an operand to a [`Row`] against the frame at `base`.
    #[inline]
    fn row(&self, ns: usize, base: usize, op: Operand) -> Row {
        match op {
            Operand::Imm(v) => Row::Imm(v),
            Operand::Reg(r) => Row::At((base + r.index()) * ns),
        }
    }

    /// Reads a resolved operand for one slot.
    #[inline]
    fn get(&self, row: Row, slot: usize) -> Value {
        match row {
            Row::Imm(v) => v,
            Row::At(i) => self.vals[i + slot],
        }
    }

    /// Writes a register of the frame at `base` for one slot.
    #[inline]
    fn set(&mut self, ns: usize, base: usize, r: usize, slot: usize, v: Value) {
        self.vals[(base + r) * ns + slot] = v;
    }

    /// Evaluates an operand against the frame at `base` for one slot.
    #[inline]
    fn eval(&self, ns: usize, base: usize, op: Operand, slot: usize) -> Value {
        self.get(self.row(ns, base, op), slot)
    }
}

/// One warp's control plane, owned per sub-cohort: the shared
/// [`WarpCtl`] plus the frame structure of each lane.
#[derive(Clone, Debug)]
struct CWarp {
    ctl: WarpCtl,
    lanes_c: Vec<CtlLane>,
}

/// One warp's data plane, shared by every sub-cohort.
#[derive(Clone, Debug)]
struct DWarp {
    lanes_d: Vec<DLane>,
    /// Memory-hierarchy tag state, one [`MemTags`](crate::mem) per
    /// slot (empty unless [`SimConfig::mem`] is on). Tag *contents* are
    /// per-slot data (global addresses diverge); only the whole
    /// [`AccessOutcome`](crate::mem::AccessOutcome) must stay uniform
    /// within a sub-cohort.
    hier_tags: Vec<crate::mem::MemTags>,
}

/// One masked sub-cohort: a control plane plus the slot mask it
/// governs and its own clock and metrics accumulator. Forked from its
/// parent on control divergence; merged back when control re-agrees.
#[derive(Clone, Debug)]
struct SubCohort {
    /// Slots executing under this control plane (disjoint across
    /// sub-cohorts).
    slots: u64,
    cycle: u64,
    /// Shared metrics accumulator: every counter a scalar run would
    /// bump is bumped once here for the whole sub-cohort. A slot's true
    /// metrics are `metrics + bases[slot]`. `cycles` stays 0 until
    /// finalization.
    metrics: Metrics,
    warps: Vec<CWarp>,
}

/// What one issue needs to know to fork a child sub-cohort mid-round:
/// which warp is issuing and its pre-pick scheduler fields (the pick
/// already advanced them; the child must re-run the pick itself).
#[derive(Clone, Copy)]
struct IssueCtx {
    w: usize,
    pre_last_lanes: u64,
    pre_rr_cursor: usize,
    /// The issuing warp's `busy_until` at the moment an *unbatched*
    /// scalar run would pick this instruction. For the round's first
    /// issue that is the warp's stored value; for the i-th batched
    /// issue it is `round cycle + Σ costs of the batch prefix` — the
    /// exact cycle the unbatched timeline reaches that pick, so a class
    /// forking mid-batch replays on the true clock.
    pre_busy_until: u64,
}

/// The lockstep sweep machine: forked control planes over one SoA data
/// plane.
struct Cohort<'m> {
    image: &'m DecodedImage,
    cfg: &'m SimConfig,
    /// Per-pc issue costs, shared by every sub-cohort.
    costs: Vec<u32>,
    /// Cohort width (number of seed instances), fixed for the whole
    /// run: columns keep stride `nslots` even as slots fork and resolve.
    nslots: usize,
    seed_lo: u64,
    /// The launch every instance shares (set-aside slots re-run it).
    base: &'m Launch,
    /// Live sub-cohorts, unordered (the run loop picks min-clock).
    subs: Vec<SubCohort>,
    /// The shared data plane, one entry per warp.
    data: Vec<DWarp>,
    /// Global memory, `[addr * nslots + slot]`.
    global: Vec<Value>,
    global_len: usize,
    local_len: usize,
    /// Per-slot metrics deltas (wrapping) relative to the owning
    /// sub-cohort's accumulator: a slot's true metrics are
    /// `sub.metrics + bases[slot]`. Zero until the slot's first merge.
    bases: Vec<Metrics>,
    /// Slots set aside by a fork past [`MAX_SUBCOHORTS`]: out of every
    /// sub-cohort, re-run standalone once the cohort drains.
    set_aside: u64,
    /// Final per-seed results, filled as instances resolve.
    results: Vec<Option<Result<SimOutput, SimError>>>,
    stats: SweepStats,
    // Reusable hot-loop buffers.
    groups: Vec<(usize, u64)>,
    /// Pcs of the groups the last pick did *not* choose, consulted by
    /// the straight-line batcher's merge guard (empty after a converged
    /// pick). Per-pick scratch: every round's pick rewrites it before
    /// the batcher reads it, so it is safely shared across sub-cohorts.
    other_pcs: Vec<usize>,
    /// Per-slot address staging for global accesses,
    /// `[slot * lanes_in_mask + idx]`.
    addr_buf: Vec<i64>,
    /// Segment ids derived from one slot's addresses.
    lines_buf: Vec<i64>,
    /// Per-slot machine-wide MSHR files of the memory-hierarchy model
    /// (each seed instance is its own virtual machine, so "machine-wide"
    /// means per slot here). Empty files unless [`SimConfig::mem`] is on.
    mshrs: Vec<crate::mem::MemMshrs>,
    /// Hierarchy walk staging, shared across slots (each probe/commit
    /// repopulates it).
    mem_scratch: crate::mem::MemScratch,
}

impl<'m> Cohort<'m> {
    /// Validates the launch (through the same [`WarpCtl::for_launch`]
    /// as the scalar engine) and builds the initial SoA state for
    /// `nslots` instances: one root sub-cohort owning every slot, over
    /// one shared data plane.
    fn new(
        image: &'m DecodedImage,
        cfg: &'m SimConfig,
        sweep: &'m SweepLaunch,
        nslots: usize,
    ) -> Result<Cohort<'m>, SimError> {
        let launch = &sweep.base;
        let (kfunc, ctl) = WarpCtl::for_launch(image, cfg, launch)?;
        let width = cfg.warp_width;
        let num_regs = kfunc.num_regs as usize;
        let entry = kfunc.entry_pc as usize;

        let mut warps = Vec::with_capacity(launch.num_warps);
        let mut data = Vec::with_capacity(launch.num_warps);
        for w in 0..launch.num_warps {
            let mut lanes_c = Vec::with_capacity(width);
            let mut lanes_d = Vec::with_capacity(width);
            for lane in 0..width {
                let tid = (w * width + lane) as u64;
                let mut vals = vec![Value::default(); num_regs * nslots];
                for (i, a) in launch.args.iter().enumerate() {
                    for s in 0..nslots {
                        vals[i * nslots + s] = *a;
                    }
                }
                lanes_c.push(CtlLane {
                    frames: vec![Frame { pc: entry, ret_regs: PoolRange::EMPTY, base: 0 }],
                    top: num_regs,
                });
                lanes_d.push(DLane {
                    vals,
                    rng: (0..nslots)
                        .map(|s| SplitMix64::for_sweep_instance(sweep.seed_lo, s as u64, tid))
                        .collect(),
                    local: vec![Value::default(); launch.local_mem_size * nslots],
                });
            }
            warps.push(CWarp { ctl: ctl.clone(), lanes_c });
            data.push(DWarp {
                lanes_d,
                hier_tags: (0..nslots)
                    .map(|_| crate::mem::MemTags::new(cfg.mem.as_ref()))
                    .collect(),
            });
        }

        let mut global = vec![Value::default(); launch.global_mem.len() * nslots];
        for (a, v) in launch.global_mem.iter().enumerate() {
            for s in 0..nslots {
                global[a * nslots + s] = *v;
            }
        }

        let slots = if nslots == 64 { u64::MAX } else { (1u64 << nslots) - 1 };
        Ok(Cohort {
            image,
            cfg,
            costs: image.resolve_costs(&cfg.latency),
            nslots,
            seed_lo: sweep.seed_lo,
            base: launch,
            subs: vec![SubCohort {
                slots,
                cycle: 0,
                metrics: Metrics::new(launch.num_warps, width),
                warps,
            }],
            data,
            global,
            global_len: launch.global_mem.len(),
            local_len: launch.local_mem_size,
            bases: vec![Metrics::new(launch.num_warps, width); nslots],
            set_aside: 0,
            results: vec![None; nslots],
            stats: SweepStats { instances: nslots, peak_subcohorts: 1, ..SweepStats::default() },
            groups: Vec::new(),
            other_pcs: Vec::new(),
            addr_buf: Vec::new(),
            lines_buf: Vec::new(),
            mshrs: (0..nslots).map(|_| crate::mem::MemMshrs::new(cfg.mem.as_ref())).collect(),
            mem_scratch: crate::mem::MemScratch::default(),
        })
    }

    /// Drives every sub-cohort to completion, min-clock-first with a
    /// merge check at each visited round boundary, then re-runs the
    /// set-aside slots standalone.
    fn run(mut self, cancel: Option<&CancelToken>) -> Result<SweepOutput, SimError> {
        while !self.subs.is_empty() {
            let t = self.subs.iter().map(|sc| sc.cycle).min().expect("subs non-empty");
            if let Some(tok) = cancel {
                if tok.is_cancelled() {
                    return Err(SimError::Cancelled { cycle: t });
                }
            }
            // The reconvergence check happens at the frontier cycle
            // before anything at it executes: merge sub-cohorts whose
            // control re-agreed.
            self.merge_at(t);
            let si = self
                .subs
                .iter()
                .position(|sc| sc.cycle == t)
                .expect("a sub-cohort sits at the minimum cycle");
            // The running sub-cohort is moved out of `subs` for the
            // round so forked children can push into `subs` mid-issue.
            let mut sub = self.subs.swap_remove(si);
            if self.round(&mut sub) {
                self.finalize_sub(&sub);
            } else if sub.slots != 0 {
                self.subs.push(sub);
            }
        }
        for s in lanes(self.set_aside) {
            let seed = self.seed_lo.wrapping_add(s as u64);
            let r = run_standalone(self.image, self.cfg, self.base, seed, cancel, &mut self.stats)?;
            self.results[s] = Some(r);
        }
        let runs = self
            .results
            .iter_mut()
            .enumerate()
            .map(|(s, r)| SeedRun {
                seed: self.seed_lo.wrapping_add(s as u64),
                result: r.take().expect("every slot resolved"),
            })
            .collect();
        Ok(SweepOutput { runs, stats: self.stats })
    }

    /// Marks a slot of `sub` resolved with its own terminal error.
    fn resolve_err(&mut self, sub: &mut SubCohort, s: usize, e: SimError) {
        sub.slots &= !(1u64 << s);
        self.results[s] = Some(Err(e));
    }

    /// Resolves every slot of `sub` with one shared error (deadlock,
    /// cycle budget): these arise purely from shared control state, so
    /// every instance's scalar run would fail identically.
    fn resolve_all(&mut self, sub: &mut SubCohort, e: &SimError) {
        for s in lanes(sub.slots) {
            self.results[s] = Some(Err(e.clone()));
        }
        sub.slots = 0;
    }

    /// Records one lockstep issue by the sub-cohort currently `width`
    /// slots wide.
    #[inline]
    fn note_issue(&mut self, width: u32) {
        self.stats.lockstep_issues += 1;
        self.stats.occupancy_sum += u64::from(width);
        self.stats.occupancy_hist[occupancy_bucket(width)] += 1;
    }

    /// Merges every pair of sub-cohorts sitting at cycle `t` whose
    /// control planes are equal: the merged group keeps one plane, the
    /// other's slots fold in under their metrics delta, and the shared
    /// data plane needs no reconciliation. Sound because equal control
    /// planes pick identically forever (see [`crate::sched`]).
    fn merge_at(&mut self, t: u64) {
        if self.subs.len() < 2 {
            return;
        }
        let mut i = 0;
        while i < self.subs.len() {
            if self.subs[i].cycle != t {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < self.subs.len() {
                if self.subs[j].cycle == t && subs_match(&self.subs[i], &self.subs[j]) {
                    let b = self.subs.swap_remove(j);
                    let d = b.metrics.combine(&self.subs[i].metrics, u64::wrapping_sub);
                    for s in lanes(b.slots) {
                        self.bases[s] = self.bases[s].combine(&d, u64::wrapping_add);
                    }
                    self.subs[i].slots |= b.slots;
                    self.stats.merges += 1;
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
    }

    /// One scheduling round of `sub` over its control plane — the
    /// cohort mirror of the scalar engine's `step`, including the
    /// straight-line batcher (batched and unbatched execution are
    /// equivalent in every observable; the cohort batches so the
    /// per-round scheduling cost it amortizes across slots matches the
    /// scalar baseline's).
    /// Returns `true` once every warp has finished.
    fn round(&mut self, sub: &mut SubCohort) -> bool {
        // `sub` is popped off `self.subs` while it runs, so a non-empty
        // `subs` means the cohort is split.
        let split = !self.subs.is_empty();
        let mut next_ready = u64::MAX;
        let mut all_done = true;
        for w in 0..sub.warps.len() {
            if sub.warps[w].ctl.done {
                continue;
            }
            all_done = false;
            if sub.warps[w].ctl.busy_until > sub.cycle {
                next_ready = next_ready.min(sub.warps[w].ctl.busy_until);
                continue;
            }
            let ctx = IssueCtx {
                w,
                pre_last_lanes: sub.warps[w].ctl.last_lanes,
                pre_rr_cursor: sub.warps[w].ctl.rr_cursor,
                pre_busy_until: sub.warps[w].ctl.busy_until,
            };
            let picked = sub.warps[w].ctl.pick_group(
                self.cfg.scheduler,
                u64::MAX,
                &mut self.groups,
                &mut self.other_pcs,
            );
            match picked {
                Some((pc, mask)) => {
                    sub.warps[w].ctl.last_lanes = mask;
                    // Stall pressure samples before execution, exactly
                    // like the scalar engine's issue path.
                    let waiting_lanes = sub.warps[w].ctl.waiting.count_ones();
                    let div0 = self.stats.forks + self.stats.detaches;
                    let cost = self.exec_c(sub, pc, mask, ctx);
                    if sub.slots == 0 {
                        // Every instance of this sub-cohort forked, was
                        // set aside, or faulted mid-round; its plane is
                        // abandoned and the children replay from their
                        // own consistent snapshots.
                        return false;
                    }
                    let roi = self.image.roi[pc];
                    sub.metrics.record_issue(w, mask, cost.max(1), roi, waiting_lanes);
                    self.note_issue(sub.slots.count_ones());
                    let mut busy = sub.cycle + u64::from(cost.max(1));
                    // Straight-line batching, mirroring the scalar
                    // engine's run-ahead (see `step` in [`crate::exec`]): a
                    // group that is provably re-picked unchanged
                    // executes warp-local ops within this slot. The
                    // cohort never carries trace/journal (multi-
                    // instance sweeps reject them), so those disablers
                    // don't apply; batched ops never touch statuses, so
                    // the stall-pressure sample stays valid for every
                    // issue in the batch. Each batched issue builds its
                    // own [`IssueCtx`] — `last_lanes` re-sticks to the
                    // mask, the RoundRobin cursor is consumed per issue
                    // exactly as the converged pick would, and
                    // `pre_busy_until` carries the unbatched clock — so
                    // a class forking mid-batch (cross-seed branch
                    // divergence) still snapshots the exact control
                    // state an unbatched run would reach at that pick.
                    // Faultable ops only batch when every (lane, slot)
                    // operand is provably safe: per-seed faults must
                    // surface at their precise round.
                    // A divergent issue ends the batch (and skips
                    // starting one): the sooner this sub returns to the
                    // run loop, the sooner its frontier lines up with
                    // the sibling it just forked from — letting
                    // re-agreeing sub-cohorts merge after one arm
                    // instead of forking again rounds ahead of the
                    // merge scan. Cutting a batch short is always
                    // equivalent to unbatched execution.
                    if self.stats.forks + self.stats.detaches == div0
                        && keeps_lockstep(&self.image.insts[pc])
                        && (mask == sub.warps[w].ctl.runnable
                            || self.cfg.scheduler == SchedulerPolicy::Greedy)
                    {
                        let lead = mask.trailing_zeros() as usize;
                        let round_robin = self.cfg.scheduler == SchedulerPolicy::RoundRobin;
                        for _ in 0..BATCH_LIMIT {
                            let npc = sub.warps[w].ctl.pcs[lead];
                            let inst = &self.image.insts[npc];
                            let branch = matches!(inst, DecodedInst::Branch { .. });
                            if branch && split {
                                // While the cohort is split, every sub
                                // stops at every branch: forks and the
                                // code between branches cost the same
                                // in every sibling, so this keeps the
                                // sub-cohorts' round boundaries on one
                                // cadence — equal-cycle frontiers recur
                                // and re-agreeing planes actually meet
                                // in the merge scan instead of
                                // leapfrogging each other forever.
                                break;
                            }
                            if self.other_pcs.contains(&npc) {
                                // Pending merge with a frozen group:
                                // the next real round must re-group.
                                break;
                            }
                            if !(branch || is_warp_local(inst))
                                || !self.batch_fault_free_c(sub, w, mask, inst)
                            {
                                break;
                            }
                            let bctx = IssueCtx {
                                w,
                                pre_last_lanes: mask,
                                pre_rr_cursor: sub.warps[w].ctl.rr_cursor,
                                pre_busy_until: busy,
                            };
                            if round_robin {
                                let rr = &mut sub.warps[w].ctl.rr_cursor;
                                *rr = rr.wrapping_add(1);
                            }
                            let divb = self.stats.forks + self.stats.detaches;
                            let c = self.exec_c(sub, npc, mask, bctx);
                            if sub.slots == 0 {
                                return false;
                            }
                            let diverged = self.stats.forks + self.stats.detaches != divb;
                            sub.metrics.record_issue(
                                w,
                                mask,
                                c.max(1),
                                self.image.roi[npc],
                                waiting_lanes,
                            );
                            self.note_issue(sub.slots.count_ones());
                            busy += u64::from(c.max(1));
                            if diverged {
                                break;
                            }
                            if branch {
                                let warp = &sub.warps[w];
                                let tpc = warp.ctl.pcs[lead];
                                if lanes(mask).any(|l| warp.ctl.pcs[l] != tpc) {
                                    // The group split; the next round
                                    // re-groups exactly as unbatched
                                    // execution would here.
                                    break;
                                }
                            }
                        }
                    }
                    sub.warps[w].ctl.busy_until = busy;
                    next_ready = next_ready.min(busy);
                }
                None => {
                    let ctl = &sub.warps[w].ctl;
                    if ctl.live() == 0 {
                        sub.warps[w].ctl.done = true;
                    } else {
                        // Deadlock is a property of shared control:
                        // every live instance fails with the identical
                        // diagnostic its scalar run would build here.
                        let e = SimError::Deadlock {
                            cycle: sub.cycle,
                            waiting: lanes(ctl.live())
                                .map(|l| (self.image.location(w, l, ctl.pcs[l]), ctl.blocked_on(l)))
                                .collect(),
                            barriers: ctl.barrier_dump(),
                            recon: ReconDump::BarrierFile,
                        };
                        self.resolve_all(sub, &e);
                        return false;
                    }
                }
            }
        }
        if all_done {
            return true;
        }
        if sub.cycle >= self.cfg.max_cycles {
            let e = SimError::MaxCyclesExceeded { limit: self.cfg.max_cycles };
            self.resolve_all(sub, &e);
            return false;
        }
        if next_ready != u64::MAX {
            sub.cycle = next_ready.max(sub.cycle + 1);
        }
        false
    }

    /// Finalizes every slot of a finished sub-cohort into its output at
    /// the sub-cohort's finish cycle.
    fn finalize_sub(&mut self, sub: &SubCohort) {
        let ns = self.nslots;
        for s in lanes(sub.slots) {
            let mut metrics = sub.metrics.combine(&self.bases[s], u64::wrapping_add);
            metrics.cycles = sub.cycle;
            let global_mem = (0..self.global_len).map(|a| self.global[a * ns + s]).collect();
            self.results[s] = Some(Ok(SimOutput {
                metrics,
                engine: Default::default(),
                global_mem,
                trace: None,
                profile: None,
                journal: None,
            }));
        }
    }
}

/// Partitions live slots by a per-slot key: the largest class (ties
/// broken toward the class containing the lowest slot) keeps the
/// current sub-cohort; every other class is returned to fork off.
fn partition_classes<K: PartialEq + Copy>(live: u64, key: impl Fn(usize) -> K) -> (u64, Vec<u64>) {
    // Divergence across seeds is shallow in practice; a linear class
    // scan over at most 64 slots is plenty.
    let mut classes: Vec<(K, u64, u32)> = Vec::new();
    for s in lanes(live) {
        let k = key(s);
        match classes.iter_mut().find(|(ck, _, _)| *ck == k) {
            Some((_, mask, n)) => {
                *mask |= 1u64 << s;
                *n += 1;
            }
            None => classes.push((k, 1u64 << s, 1)),
        }
    }
    // First insertion order is lowest-slot order, so a plain max scan
    // with strict `>` implements the tie-break.
    let mut winner = 0u64;
    let mut best = 0u32;
    for &(_, mask, n) in &classes {
        if n > best {
            best = n;
            winner = mask;
        }
    }
    let minorities = classes.iter().map(|&(_, mask, _)| mask).filter(|&m| m != winner).collect();
    (winner, minorities)
}

/// Whether two sub-cohorts' control planes are equal — the merge test:
/// per warp, [`WarpCtl`] equality (pcs, statuses and their masks,
/// barrier registers, `busy_until`, `rr_cursor`, `last_lanes`, `done`)
/// plus the frame shape (depth, each frame's arena window — `base`s and
/// the bump pointer, so both planes address the same columns —
/// return-register spans, and the saved pc of *suspended* frames; the
/// top frame's [`Frame::pc`] is stale by design on both sides and never
/// read).
fn subs_match(a: &SubCohort, b: &SubCohort) -> bool {
    a.warps.iter().zip(b.warps.iter()).all(|(aw, bw)| {
        aw.ctl == bw.ctl
            && aw.lanes_c.iter().zip(bw.lanes_c.iter()).all(|(al, bl)| {
                let top = al.frames.len() - 1;
                al.frames.len() == bl.frames.len()
                    && al.top == bl.top
                    && al.frames.iter().zip(bl.frames.iter()).enumerate().all(|(i, (af, bf))| {
                        af.base == bf.base
                            && af.ret_regs == bf.ret_regs
                            && (i == top || af.pc == bf.pc)
                    })
            })
    })
}

// Data-plane reads the scheduler needs, and diagnostics.
impl Cohort<'_> {
    /// Whether executing `inst` over `mask` is guaranteed not to fault
    /// in *any* live slot of `sub` — the cohort twin of the scalar
    /// engine's `batch_fault_free`, widened across the seed axis. A
    /// batched issue must be infallible: a per-seed fault resolves that
    /// slot with the exact error its scalar run would raise, and
    /// look-ahead would misstamp its round. Faultable (lane, slot)
    /// operands leave the instruction to execute in its own round.
    fn batch_fault_free_c(&self, sub: &SubCohort, w: usize, mask: u64, inst: &DecodedInst) -> bool {
        let ns = self.nslots;
        crate::alu::fault_free_when(inst).is_none_or(|(lhs, rhs, ok)| {
            lanes(mask).all(|l| {
                let base = sub.warps[w].lanes_c[l].cur_base();
                let dl = &self.data[w].lanes_d[l];
                let (lr, rr) = (dl.row(ns, base, lhs), dl.row(ns, base, rhs));
                lanes(sub.slots).all(|s| ok(dl.get(lr, s), dl.get(rr, s)))
            })
        })
    }

    /// Splits `class` off `sub` at a divergent issue: forks a child
    /// sub-cohort when under the cap, else sets the slots aside for a
    /// standalone scalar re-run once the cohort drains (their columns of
    /// the data plane are simply never touched again). Called *before*
    /// the divergent instruction mutates any state, so the child replays
    /// the in-progress round from a consistent snapshot: warps earlier
    /// in warp order already issued (their `busy_until` moved past this
    /// cycle), the issuing warp's scheduler fields are restored to their
    /// pre-pick values (`ctx`), and later warps are untouched — exactly
    /// the state an independent run of those slots would be in when its
    /// round reaches the issuing warp. The shared SoA data plane is
    /// untouched: the child simply reads and writes it under its own
    /// slot mask.
    fn split_off(&mut self, sub: &mut SubCohort, class: u64, ctx: IssueCtx) {
        sub.slots &= !class;
        if self.subs.len() + 2 <= MAX_SUBCOHORTS {
            let mut warps = sub.warps.clone();
            let ctl = &mut warps[ctx.w].ctl;
            ctl.last_lanes = ctx.pre_last_lanes;
            ctl.rr_cursor = ctx.pre_rr_cursor;
            ctl.busy_until = ctx.pre_busy_until;
            self.subs.push(SubCohort {
                slots: class,
                cycle: sub.cycle,
                metrics: sub.metrics.clone(),
                warps,
            });
            self.stats.forks += 1;
            self.stats.peak_subcohorts = self.stats.peak_subcohorts.max(self.subs.len() as u32 + 1);
        } else {
            self.set_aside |= class;
            self.stats.detaches += u64::from(class.count_ones());
        }
    }
}

/// The cohort's loop shape for the fallible ALU arms, handed to
/// [`crate::alu::with_bin`]/[`with_un`](crate::alu::with_un): a failing
/// slot resolves to its own `Arithmetic` error at the first faulting
/// lane in lane order, exactly like its scalar run. Operand and
/// destination rows are resolved once per lane, and the slot loop walks
/// contiguous runs of the slot mask so a full (or fragmented-but-runny)
/// mask takes dense counted inner loops over the column slices — the
/// shape the autovectorizer wants.
struct SlotAlu<'a, 'm> {
    cohort: &'a mut Cohort<'m>,
    sub: &'a mut SubCohort,
    pc: usize,
    mask: u64,
    w: usize,
    dst: simt_ir::Reg,
    lhs: Operand,
    rhs: Operand,
}

impl AluLoop for SlotAlu<'_, '_> {
    type Out = ();
    #[inline]
    fn run(self, k: impl Fn(Value, Value) -> Result<Value, String>) {
        let SlotAlu { cohort, sub, pc, mask, w, dst, lhs, rhs } = self;
        let ns = cohort.nslots;
        let slots = sub.slots;
        let mut faults: Vec<(usize, LaneFault)> = Vec::new();
        let mut faulted = 0u64;
        {
            let cw = &mut sub.warps[w];
            let dw = &mut cohort.data[w];
            for l in lanes(mask) {
                let base = cw.lanes_c[l].cur_base();
                let dl = &mut dw.lanes_d[l];
                let lr = dl.row(ns, base, lhs);
                let rr = dl.row(ns, base, rhs);
                let drow = (base + dst.index()) * ns;
                for (lo, hi) in mask_runs(slots & !faulted) {
                    for s in lo..hi {
                        match k(dl.get(lr, s), dl.get(rr, s)) {
                            Ok(v) => dl.vals[drow + s] = v,
                            Err(message) => {
                                faulted |= 1 << s;
                                faults.push((s, LaneFault::Arith { lane: l, message }));
                            }
                        }
                    }
                }
                cw.ctl.pcs[l] += 1;
            }
        }
        for (s, f) in faults {
            let e = f.into_error(|l| cohort.image.location(w, l, pc));
            cohort.resolve_err(sub, s, e);
        }
    }
}

// The cohort execute path: one instruction over (lane mask × live
// slots). Control effects (pc updates, status transitions, barrier
// bookkeeping) happen once per sub-cohort; value effects happen per
// (lane, slot) over contiguous masked slot runs.
impl Cohort<'_> {
    /// Executes one decoded instruction for the issued group across
    /// every slot of `sub`; returns the (uniform) issue cost. Slots
    /// whose data would make the issue non-uniform fork (or, past the
    /// cap, are set aside) and faulting slots resolve to their own error
    /// inside the arm — callers re-check `sub.slots`.
    fn exec_c(&mut self, sub: &mut SubCohort, pc: usize, mask: u64, ctx: IssueCtx) -> u32 {
        let image = self.image;
        let inst = &image.insts[pc];
        let w = ctx.w;
        let cost = self.costs[pc];
        match *inst {
            // The op is invariant across the slot columns, so it is
            // matched once out here: `SlotAlu` gets a tiny monomorphic
            // kernel its slot-run loop can inline. Unary kernels ignore
            // `rhs`; an immediate there costs no column read.
            DecodedInst::Bin { op, dst, lhs, rhs } => {
                crate::alu::with_bin(op, SlotAlu { cohort: self, sub, pc, mask, w, dst, lhs, rhs });
            }
            DecodedInst::Un { op, dst, src } => {
                let rhs = Operand::Imm(Value::default());
                let alu = SlotAlu { cohort: self, sub, pc, mask, w, dst, lhs: src, rhs };
                crate::alu::with_un(op, alu);
            }
            DecodedInst::Mov { dst, src } => {
                let rhs = Operand::Imm(Value::default());
                SlotAlu { cohort: self, sub, pc, mask, w, dst, lhs: src, rhs }.run(|a, _| Ok(a));
            }
            DecodedInst::Sel { dst, cond, if_true, if_false } => {
                self.data_c(sub, w, mask, |dl, ns, base, s, _l| {
                    let pick =
                        if dl.eval(ns, base, cond, s).is_truthy() { if_true } else { if_false };
                    let v = dl.eval(ns, base, pick, s);
                    dl.set(ns, base, dst.index(), s, v);
                });
            }
            DecodedInst::Load { dst, space, addr } => match space {
                MemSpace::Global => {
                    return self.access_global_c(sub, pc, mask, ctx, addr, None, Some(dst), cost);
                }
                MemSpace::Local => self.access_local_c(sub, pc, mask, w, addr, None, Some(dst)),
            },
            DecodedInst::Store { space, addr, value } => match space {
                MemSpace::Global => {
                    return self.access_global_c(sub, pc, mask, ctx, addr, Some(value), None, cost);
                }
                MemSpace::Local => self.access_local_c(sub, pc, mask, w, addr, Some(value), None),
            },
            DecodedInst::AtomicAdd { dst, addr, value } => {
                self.atomic_add_c(sub, pc, mask, w, dst, addr, value);
            }
            DecodedInst::Special { dst, kind } => {
                let width = self.cfg.warp_width;
                let n_threads = (self.data.len() * width) as i64;
                self.data_c(sub, w, mask, |dl, ns, base, s, l| {
                    let v = match kind {
                        SpecialValue::Tid => Value::I64((w * width + l) as i64),
                        SpecialValue::LaneId => Value::I64(l as i64),
                        SpecialValue::WarpId => Value::I64(w as i64),
                        SpecialValue::NumThreads => Value::I64(n_threads),
                        SpecialValue::WarpWidth => Value::I64(width as i64),
                    };
                    dl.set(ns, base, dst.index(), s, v);
                });
            }
            DecodedInst::Rng { dst, kind } => {
                self.data_c(sub, w, mask, |dl, ns, base, s, _l| {
                    let v = match kind {
                        RngKind::U63 => Value::I64(dl.rng[s].next_u63()),
                        RngKind::Unit => Value::F64(dl.rng[s].next_unit()),
                    };
                    dl.set(ns, base, dst.index(), s, v);
                });
            }
            DecodedInst::SyncThreads => sub.warps[w].ctl.sync_arrive(mask, &mut |_| {}),
            DecodedInst::Vote { dst, pred } => {
                // Warp-synchronous count — per slot, over the same
                // issued mask.
                let ns = self.nslots;
                let slots = sub.slots;
                let mut counts = [0i64; COHORT_SLOTS];
                {
                    let cw = &sub.warps[w];
                    let dw = &self.data[w];
                    for l in lanes(mask) {
                        let base = cw.lanes_c[l].cur_base();
                        let dl = &dw.lanes_d[l];
                        let row = dl.row(ns, base, pred);
                        for (lo, hi) in mask_runs(slots) {
                            for (s, c) in counts.iter_mut().enumerate().take(hi).skip(lo) {
                                if dl.get(row, s).is_truthy() {
                                    *c += 1;
                                }
                            }
                        }
                    }
                }
                self.data_c(sub, w, mask, |dl, ns, base, s, _l| {
                    dl.set(ns, base, dst.index(), s, Value::I64(counts[s]));
                });
            }
            DecodedInst::SeedRng { src } => {
                let launch_mix = 0x5EED_u64; // stream domain separator
                self.data_c(sub, w, mask, |dl, ns, base, s, _l| {
                    let v = dl.eval(ns, base, src, s).as_i64() as u64;
                    dl.rng[s] = SplitMix64::for_thread(v ^ launch_mix, v);
                });
            }
            DecodedInst::Call { entry_pc, num_regs, args, rets } => {
                let arg_ops = image.operands(args);
                let ns = self.nslots;
                let slots = sub.slots;
                let cw = &mut sub.warps[w];
                let dw = &mut self.data[w];
                for l in lanes(mask) {
                    let ret_pc = cw.ctl.pcs[l] + 1;
                    let cl = &mut cw.lanes_c[l];
                    let dl = &mut dw.lanes_d[l];
                    let base = cl.cur_base();
                    // Suspend the caller: save its resume point.
                    cl.frames.last_mut().expect("lane has no frame").pc = ret_pc;
                    cl.push_frame(dl, ns, slots, entry_pc as usize, rets, num_regs as usize);
                    // Arguments evaluate in the caller window, which
                    // stays intact under the callee's.
                    let nb = cl.cur_base();
                    for (i, a) in arg_ops.iter().enumerate() {
                        for (lo, hi) in mask_runs(slots) {
                            for s in lo..hi {
                                let v = dl.eval(ns, base, *a, s);
                                dl.set(ns, nb, i, s, v);
                            }
                        }
                    }
                    cw.ctl.pcs[l] = entry_pc as usize;
                }
            }
            DecodedInst::UnresolvedCall { name } => {
                let at = self.image.location(w, mask.trailing_zeros() as usize, pc);
                let e = SimError::UnresolvedCall {
                    at,
                    callee: image.callee_names[name as usize].clone(),
                };
                self.resolve_all(sub, &e);
            }
            DecodedInst::Barrier(op) => {
                // Barrier semantics are pure control, so one execution
                // serves the whole sub-cohort; only `arrived` writes
                // registers, broadcast to every live slot.
                if let BarrierOp::ArrivedCount { dst, bar } = op {
                    let n = Value::I64(sub.warps[w].ctl.arrived(bar));
                    self.data_c(sub, w, mask, |dl, ns, base, s, _l| {
                        dl.set(ns, base, dst.index(), s, n);
                    });
                } else {
                    sub.warps[w].ctl.barrier(mask, op, &mut |_| {});
                }
                sub.metrics.barrier_ops += u64::from(mask.count_ones());
            }
            DecodedInst::Skip => sub.warps[w].ctl.advance(mask),
            DecodedInst::Jump { target } => {
                let warp = &mut sub.warps[w];
                for l in lanes(mask) {
                    warp.ctl.pcs[l] = target as usize;
                }
            }
            DecodedInst::Branch { cond, then_pc, else_pc } => {
                // Per-slot taken masks; each class disagreeing with the
                // largest one forks off *before* the branch applies.
                let ns = self.nslots;
                let slots = sub.slots;
                let mut takens = [0u64; COHORT_SLOTS];
                {
                    let cw = &sub.warps[w];
                    let dw = &self.data[w];
                    for l in lanes(mask) {
                        let base = cw.lanes_c[l].cur_base();
                        let dl = &dw.lanes_d[l];
                        let row = dl.row(ns, base, cond);
                        let bit = 1u64 << l;
                        for (lo, hi) in mask_runs(slots) {
                            for (s, t) in takens.iter_mut().enumerate().take(hi).skip(lo) {
                                if dl.get(row, s).is_truthy() {
                                    *t |= bit;
                                }
                            }
                        }
                    }
                }
                let (_winner, minorities) = partition_classes(slots, |s| takens[s]);
                for class in minorities {
                    self.split_off(sub, class, ctx);
                }
                let rep = sub.slots.trailing_zeros() as usize;
                let taken = takens[rep];
                let cw = &mut sub.warps[w];
                for l in lanes(mask) {
                    cw.ctl.pcs[l] =
                        if taken & (1 << l) != 0 { then_pc as usize } else { else_pc as usize };
                }
            }
            DecodedInst::Return { values } => {
                let value_ops = image.operands(values);
                let ns = self.nslots;
                let slots = sub.slots;
                let mut exited = 0u64;
                let cw = &mut sub.warps[w];
                let dw = &mut self.data[w];
                for l in lanes(mask) {
                    let cl = &mut cw.lanes_c[l];
                    let dl = &mut dw.lanes_d[l];
                    if cl.frames.len() == 1 {
                        // Returning from the kernel frame behaves as
                        // exit, like the scalar engine.
                        exited |= 1 << l;
                        continue;
                    }
                    // Values evaluate in the callee window, which keeps
                    // its cells after the pop.
                    let fm = cl.pop_frame();
                    let cbase = cl.cur_base();
                    for (r, v) in image.regs(fm.ret_regs).iter().zip(value_ops) {
                        for (lo, hi) in mask_runs(slots) {
                            for s in lo..hi {
                                let v = dl.eval(ns, fm.base, *v, s);
                                dl.set(ns, cbase, r.index(), s, v);
                            }
                        }
                    }
                    cw.ctl.pcs[l] = cl.frames.last().expect("caller frame").pc;
                }
                if exited != 0 {
                    cw.ctl.exit(exited, &mut |_| {});
                }
            }
            DecodedInst::Exit => sub.warps[w].ctl.exit(mask, &mut |_| {}),
        }
        cost
    }

    /// Shared loop shape for the infallible per-(lane, slot) data arms.
    fn data_c(
        &mut self,
        sub: &mut SubCohort,
        w: usize,
        mask: u64,
        mut f: impl FnMut(&mut DLane, usize, usize, usize, usize),
    ) {
        let ns = self.nslots;
        let slots = sub.slots;
        let cw = &mut sub.warps[w];
        let dw = &mut self.data[w];
        for l in lanes(mask) {
            let base = cw.lanes_c[l].cur_base();
            let dl = &mut dw.lanes_d[l];
            for (lo, hi) in mask_runs(slots) {
                for s in lo..hi {
                    f(dl, ns, base, s, l);
                }
            }
            cw.ctl.pcs[l] += 1;
        }
    }

    /// Global load/store: the issue cost is data-dependent (coalescing
    /// segments), so it runs in three phases.
    ///
    /// 1. Per slot, compute the lane addresses, the first fault (if
    ///    any), and the cost — with **no** mutation, so a diverging
    ///    slot's pre-access state is intact.
    /// 2. Resolve faulted slots to their own errors; partition the rest
    ///    by cost and fork off the minority classes.
    /// 3. Apply the access to the surviving slots (value movement) and
    ///    return the now-uniform cost.
    #[allow(clippy::too_many_arguments)]
    fn access_global_c(
        &mut self,
        sub: &mut SubCohort,
        pc: usize,
        mask: u64,
        ctx: IssueCtx,
        addr: Operand,
        value: Option<Operand>,
        dst: Option<simt_ir::Reg>,
        base_cost: u32,
    ) -> u32 {
        if self.cfg.mem.is_some() {
            return self.access_global_hier_c(sub, pc, mask, ctx, addr, value, dst);
        }
        let ns = self.nslots;
        let w = ctx.w;
        let k = mask.count_ones() as usize;
        let mut faults: Vec<(usize, LaneFault)> = Vec::new();
        let mut costs = [0u32; COHORT_SLOTS];
        {
            let glen = self.global_len;
            let slots = sub.slots;
            let Cohort { data, addr_buf, lines_buf, cfg, .. } = self;
            let cw = &sub.warps[w];
            let dw = &data[w];
            addr_buf.clear();
            addr_buf.resize(ns * k, 0);
            // Lane-major address staging: the operand row resolves once
            // per lane, out-of-range slots are flagged and attributed to
            // their first faulting lane below. Slot-uniform addresses
            // (seed-independent access streams — the common case) are
            // detected on the fly to share the segment fold below.
            let mut oob = 0u64;
            let mut uniform = true;
            let rep = if slots == 0 { 0 } else { slots.trailing_zeros() as usize };
            for (idx, l) in lanes(mask).enumerate() {
                let base = cw.lanes_c[l].cur_base();
                let dl = &dw.lanes_d[l];
                let row = dl.row(ns, base, addr);
                let a0 = dl.get(row, rep).as_i64();
                for (lo, hi) in mask_runs(slots) {
                    for s in lo..hi {
                        let a = dl.get(row, s).as_i64();
                        addr_buf[s * k + idx] = a;
                        uniform &= a == a0;
                        if a < 0 || a as usize >= glen {
                            oob |= 1 << s;
                        }
                    }
                }
            }
            for s in lanes(oob) {
                let (idx, l) = lanes(mask)
                    .enumerate()
                    .find(|&(idx, _)| {
                        let a = addr_buf[s * k + idx];
                        a < 0 || a as usize >= glen
                    })
                    .expect("faulted slot has a faulting lane");
                let a = addr_buf[s * k + idx];
                faults.push((
                    s,
                    LaneFault::Oob { lane: l, addr: a, size: glen, space: MemSpace::Global },
                ));
            }
            let lat = &cfg.latency;
            let mut cost_of = |s: usize| {
                let segs = lat.segments_in(&addr_buf[s * k..(s + 1) * k], lines_buf);
                base_cost + lat.mem_segment * segs.saturating_sub(1)
            };
            if uniform && oob == 0 && slots != 0 {
                // Every slot touches the same cells: fold once.
                let c = cost_of(rep);
                for s in lanes(slots) {
                    costs[s] = c;
                }
            } else {
                for s in lanes(slots & !oob) {
                    costs[s] = cost_of(s);
                }
            }
        }
        for (s, f) in faults {
            let e = f.into_error(|l| self.image.location(w, l, pc));
            self.resolve_err(sub, s, e);
        }
        if sub.slots == 0 {
            return base_cost;
        }
        let (_winner, minorities) = partition_classes(sub.slots, |s| costs[s]);
        for class in minorities {
            self.split_off(sub, class, ctx);
        }
        let winners = sub.slots;
        {
            let Cohort { data, addr_buf, global, .. } = self;
            let cw = &mut sub.warps[w];
            let dw = &mut data[w];
            for (idx, l) in lanes(mask).enumerate() {
                let base = cw.lanes_c[l].cur_base();
                let dl = &mut dw.lanes_d[l];
                if let Some(v) = value {
                    let row = dl.row(ns, base, v);
                    for (lo, hi) in mask_runs(winners) {
                        for s in lo..hi {
                            let a = addr_buf[s * k + idx] as usize;
                            global[a * ns + s] = dl.get(row, s);
                        }
                    }
                } else if let Some(dst) = dst {
                    let drow = (base + dst.index()) * ns;
                    for (lo, hi) in mask_runs(winners) {
                        for s in lo..hi {
                            let a = addr_buf[s * k + idx] as usize;
                            dl.vals[drow + s] = global[a * ns + s];
                        }
                    }
                }
                cw.ctl.pcs[l] += 1;
            }
        }
        costs[winners.trailing_zeros() as usize]
    }

    /// [`Self::access_global_c`] under the memory-hierarchy cost model:
    /// the same three phases, with the per-slot *walk outcome*
    /// ([`AccessOutcome`](crate::mem::AccessOutcome) — cost plus every
    /// per-level counter) as the fork key. Phase 1 uses the pure
    /// [`probe`](crate::mem::probe) so a diverging slot's tag and MSHR
    /// state stays intact for its fork to replay; phase 3 re-runs the
    /// walk as [`commit`](crate::mem::commit) per winner slot, which
    /// reproduces the probed outcome over the unchanged pre-state.
    #[allow(clippy::too_many_arguments)]
    fn access_global_hier_c(
        &mut self,
        sub: &mut SubCohort,
        pc: usize,
        mask: u64,
        ctx: IssueCtx,
        addr: Operand,
        value: Option<Operand>,
        dst: Option<simt_ir::Reg>,
    ) -> u32 {
        let ns = self.nslots;
        let w = ctx.w;
        let k = mask.count_ones() as usize;
        // Global accesses never batch (`is_warp_local` excludes them),
        // so the issue cycle of every engine is its round clock.
        let now = sub.cycle;
        let mut faults: Vec<(usize, LaneFault)> = Vec::new();
        let mut outs = [crate::mem::AccessOutcome::default(); COHORT_SLOTS];
        {
            let glen = self.global_len;
            let slots = sub.slots;
            let Cohort { data, addr_buf, mshrs, mem_scratch, cfg, .. } = self;
            let hier = cfg.mem.as_ref().expect("hier access without mem configured");
            let cw = &sub.warps[w];
            let dw = &data[w];
            addr_buf.clear();
            addr_buf.resize(ns * k, 0);
            let mut oob = 0u64;
            for (idx, l) in lanes(mask).enumerate() {
                let base = cw.lanes_c[l].cur_base();
                let dl = &dw.lanes_d[l];
                let row = dl.row(ns, base, addr);
                for (lo, hi) in mask_runs(slots) {
                    for s in lo..hi {
                        let a = dl.get(row, s).as_i64();
                        addr_buf[s * k + idx] = a;
                        if a < 0 || a as usize >= glen {
                            oob |= 1 << s;
                        }
                    }
                }
            }
            for s in lanes(oob) {
                let (idx, l) = lanes(mask)
                    .enumerate()
                    .find(|&(idx, _)| {
                        let a = addr_buf[s * k + idx];
                        a < 0 || a as usize >= glen
                    })
                    .expect("faulted slot has a faulting lane");
                let a = addr_buf[s * k + idx];
                faults.push((
                    s,
                    LaneFault::Oob { lane: l, addr: a, size: glen, space: MemSpace::Global },
                ));
            }
            // Cost phase: pure probes, per slot (tag and MSHR histories
            // diverge after forks even when addresses agree).
            for s in lanes(slots & !oob) {
                let addrs = &addr_buf[s * k..(s + 1) * k];
                outs[s] =
                    crate::mem::probe(hier, &dw.hier_tags[s], &mshrs[s], mem_scratch, addrs, now);
            }
        }
        for (s, f) in faults {
            let e = f.into_error(|l| self.image.location(w, l, pc));
            self.resolve_err(sub, s, e);
        }
        if sub.slots == 0 {
            return self.costs[pc];
        }
        let (_winner, minorities) = partition_classes(sub.slots, |s| outs[s]);
        for class in minorities {
            self.split_off(sub, class, ctx);
        }
        let winners = sub.slots;
        let out = outs[winners.trailing_zeros() as usize];
        {
            let Cohort { data, addr_buf, global, mshrs, mem_scratch, cfg, .. } = self;
            let hier = cfg.mem.as_ref().expect("hier access without mem configured");
            let cw = &mut sub.warps[w];
            let dw = &mut data[w];
            for (idx, l) in lanes(mask).enumerate() {
                let base = cw.lanes_c[l].cur_base();
                let dl = &mut dw.lanes_d[l];
                if let Some(v) = value {
                    let row = dl.row(ns, base, v);
                    for (lo, hi) in mask_runs(winners) {
                        for s in lo..hi {
                            let a = addr_buf[s * k + idx] as usize;
                            global[a * ns + s] = dl.get(row, s);
                        }
                    }
                } else if let Some(dst) = dst {
                    let drow = (base + dst.index()) * ns;
                    for (lo, hi) in mask_runs(winners) {
                        for s in lo..hi {
                            let a = addr_buf[s * k + idx] as usize;
                            dl.vals[drow + s] = global[a * ns + s];
                        }
                    }
                }
                cw.ctl.pcs[l] += 1;
            }
            // Apply phase: commit tag fills and MSHR bookkeeping per
            // winner slot.
            for s in lanes(winners) {
                let addrs = &addr_buf[s * k..(s + 1) * k];
                let applied = crate::mem::commit(
                    hier,
                    &mut dw.hier_tags[s],
                    &mut mshrs[s],
                    mem_scratch,
                    addrs,
                    now,
                );
                debug_assert_eq!(applied, out, "commit must replay the probed outcome");
            }
        }
        if value.is_some() {
            self.invalidate_lines_c(winners, k);
        }
        sub.metrics.mem.record(&out);
        sub.metrics.cache_hits += u64::from(out.levels[0].hits);
        sub.metrics.cache_misses += u64::from(out.levels[0].misses);
        out.cost
    }

    /// Write-through invalidation: drops the lines covering each slot's
    /// staged addresses (`addr_buf`, `k` per slot) from that slot's tag
    /// state in **every** warp.
    fn invalidate_lines_c(&mut self, slots: u64, k: usize) {
        let Cohort { data, addr_buf, cfg, .. } = self;
        let Some(hier) = &cfg.mem else { return };
        for s in lanes(slots) {
            let addrs = &addr_buf[s * k..(s + 1) * k];
            for dw in data.iter_mut() {
                crate::mem::invalidate(hier, &mut dw.hier_tags[s], addrs);
            }
        }
    }

    /// Local load/store: flat cost, so only per-slot OOB faults can
    /// split the sub-cohort (and they resolve, not fork).
    #[allow(clippy::too_many_arguments)]
    fn access_local_c(
        &mut self,
        sub: &mut SubCohort,
        pc: usize,
        mask: u64,
        w: usize,
        addr: Operand,
        value: Option<Operand>,
        dst: Option<simt_ir::Reg>,
    ) {
        let ns = self.nslots;
        let llen = self.local_len;
        let slots = sub.slots;
        let mut faults: Vec<(usize, LaneFault)> = Vec::new();
        let mut faulted = 0u64;
        {
            let cw = &mut sub.warps[w];
            let dw = &mut self.data[w];
            for l in lanes(mask) {
                let base = cw.lanes_c[l].cur_base();
                let dl = &mut dw.lanes_d[l];
                let arow = dl.row(ns, base, addr);
                let vrow = value.map(|v| dl.row(ns, base, v));
                let drow = dst.map(|d| (base + d.index()) * ns);
                for s in lanes(slots & !faulted) {
                    let a = dl.get(arow, s).as_i64();
                    if a < 0 || a as usize >= llen {
                        faulted |= 1 << s;
                        faults.push((
                            s,
                            LaneFault::Oob { lane: l, addr: a, size: llen, space: MemSpace::Local },
                        ));
                        continue;
                    }
                    let cell = (a as usize) * ns + s;
                    if let Some(vr) = vrow {
                        dl.local[cell] = dl.get(vr, s);
                    } else if let Some(dr) = drow {
                        dl.vals[dr + s] = dl.local[cell];
                    }
                }
                cw.ctl.pcs[l] += 1;
            }
        }
        for (s, f) in faults {
            let e = f.into_error(|l| self.image.location(w, l, pc));
            self.resolve_err(sub, s, e);
        }
    }

    /// Atomic add: static cost (no coalescing model), lanes serialized
    /// in lane order against each slot's own global column, touched
    /// lines invalidated per slot.
    #[allow(clippy::too_many_arguments)]
    fn atomic_add_c(
        &mut self,
        sub: &mut SubCohort,
        pc: usize,
        mask: u64,
        w: usize,
        dst: simt_ir::Reg,
        addr: Operand,
        value: Operand,
    ) {
        let ns = self.nslots;
        let k = mask.count_ones() as usize;
        let slots = sub.slots;
        let mut faults: Vec<(usize, LaneFault)> = Vec::new();
        let mut faulted = 0u64;
        {
            let glen = self.global_len;
            let Cohort { data, global, addr_buf, .. } = self;
            let cw = &mut sub.warps[w];
            let dw = &mut data[w];
            addr_buf.clear();
            addr_buf.resize(ns * k, 0);
            for s in lanes(slots) {
                for (idx, l) in lanes(mask).enumerate() {
                    let base = cw.lanes_c[l].cur_base();
                    let dl = &mut dw.lanes_d[l];
                    let a = dl.eval(ns, base, addr, s).as_i64();
                    let v = dl.eval(ns, base, value, s);
                    if a < 0 || a as usize >= glen {
                        faulted |= 1 << s;
                        faults.push((
                            s,
                            LaneFault::Oob {
                                lane: l,
                                addr: a,
                                size: glen,
                                space: MemSpace::Global,
                            },
                        ));
                        break;
                    }
                    let old = global[(a as usize) * ns + s];
                    match crate::alu::eval_bin(BinOp::Add, old, v) {
                        Ok(new) => global[(a as usize) * ns + s] = new,
                        Err(m) => {
                            faulted |= 1 << s;
                            faults.push((s, LaneFault::Arith { lane: l, message: m }));
                            break;
                        }
                    }
                    dl.set(ns, base, dst.index(), s, old);
                    addr_buf[s * k + idx] = a;
                }
            }
            for l in lanes(mask) {
                cw.ctl.pcs[l] += 1;
            }
        }
        // Faulted slots' runs discard all state, so only the survivors'
        // write-through invalidation is observable.
        self.invalidate_lines_c(slots & !faulted, k);
        for (s, f) in faults {
            let e = f.into_error(|l| self.image.location(w, l, pc));
            self.resolve_err(sub, s, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyModel;
    use crate::mem::MemHierarchy;
    use simt_ir::parse_and_link;

    /// Slot-uniform control: every seed takes the same path (branches key
    /// off `tid`, not RNG), so the whole sweep stays in lockstep — but the
    /// kernel is busy: divergent lanes, a loop, barriers, a call, an
    /// atomic, RNG data, and global traffic.
    const LOCKSTEP_KERNEL: &str = "\
kernel @k(params=1, regs=8, barriers=1, entry=bb0) {
bb0:
  %r1 = special.tid
  %r2 = rem %r1, 4
  join b0
  brdiv %r2, bb1, bb2
bb1:
  %r3 = rng.u63
  %r4 = mul %r1, 3
  %r5 = load global[%r4]
  %r3 = rem %r3, 100
  %r5 = add %r5, %r3
  call @f(%r5, %r2) -> (%r5)
  store global[%r4], %r5
  jmp bb3
bb2:
  %r5 = atomic_add [0], 1
  %r6 = vote %r2
  jmp bb3
bb3:
  wait b0
  %r0 = sub %r0, 1
  brdiv %r0, bb0, bb4
bb4:
  syncthreads
  exit
}
device @f(params=2, regs=4, barriers=0, entry=bb0) {
bb0:
  %r2 = add %r0, %r1
  %r3 = mul %r2, 2
  ret %r3
}
";

    /// Seed-dependent *uniform* branch: the vote count is identical for
    /// every lane of a warp but differs across seeds, so whole instances
    /// disagree on the branch and the minority forks off. Both arms cost
    /// the same, so the sub-cohorts' control planes realign at bb3 and
    /// they merge.
    const VOTE_DIVERGE_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  %r2 = vote %r1
  %r3 = rem %r2, 2
  brdiv %r3, bb1, bb2
bb1:
  %r4 = add %r2, 10
  jmp bb3
bb2:
  %r4 = add %r2, 3
  jmp bb3
bb3:
  %r5 = special.tid
  store global[%r5], %r4
  exit
}
";

    /// Seed-dependent *lane-level* branch: per-lane RNG decides each
    /// lane's direction, so the taken masks differ across nearly every
    /// seed — far more classes than [`MAX_SUBCOHORTS`], driving the
    /// scalar escape hatch alongside forking. The two arms are
    /// cost-symmetric and reconverge through a barrier wait, so forked
    /// sub-cohorts merge.
    const LANE_DIVERGE_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=1, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  join b0
  brdiv %r1, bb1, bb2
bb1:
  %r4 = add %r1, 10
  jmp bb3
bb2:
  %r4 = add %r1, 3
  jmp bb3
bb3:
  wait b0
  %r5 = special.tid
  store global[%r5], %r4
  exit
}
";

    /// Seed-dependent *call depth*: one sub-cohort enters `@f` while its
    /// sibling stays in the kernel frame, then the sibling pushes a
    /// frame over the same arena rows at bb3. Exercises the shared-arena
    /// invariant that `push_frame` initializes the new register window
    /// for the pushing sub-cohort's slots only.
    const CALL_DIVERGE_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  %r2 = vote %r1
  %r3 = rem %r2, 2
  brdiv %r3, bb1, bb2
bb1:
  call @f(%r2) -> (%r4)
  jmp bb3
bb2:
  %r4 = add %r2, 1
  jmp bb3
bb3:
  call @f(%r4) -> (%r5)
  %r6 = special.tid
  store global[%r6], %r5
  exit
}
device @f(params=1, regs=4, barriers=0, entry=bb0) {
bb0:
  %r1 = add %r0, 7
  %r2 = mul %r1, 3
  ret %r2
}
";

    /// Seed-dependent *loop trip count* (uniform per instance via vote):
    /// sub-cohorts fork at the loop header and never re-agree mid-loop,
    /// finishing at different cycles — the no-merge worst case that
    /// still must stay bit-identical and fully masked.
    const LOOP_DIVERGE_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r0 = rem %r0, 6
  %r1 = special.tid
  %r2 = vote %r0
  %r0 = rem %r2, 4
  jmp bb1
bb1:
  brdiv %r0, bb2, bb3
bb2:
  %r0 = sub %r0, 1
  %r3 = add %r3, 2
  jmp bb1
bb3:
  store global[%r1], %r3
  exit
}
";

    /// Seed-dependent addresses: lanes load `global[rng % 33]` against a
    /// 32-cell memory, so some instances fault (address 32) and the rest
    /// split on coalescing-cost divergence.
    const FAULTY_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 33
  %r2 = load global[%r1]
  %r3 = special.tid
  store global[%r3], %r2
  exit
}
";

    fn launch(kernel: &str, num_warps: usize, cells: usize, args: Vec<Value>) -> Launch {
        Launch {
            kernel: kernel.into(),
            num_warps,
            args,
            global_mem: vec![Value::I64(7); cells],
            local_mem_size: 0,
            seed: 0, // ignored by sweeps
        }
    }

    /// Runs the sweep and asserts every [`SeedRun`] is bit-identical to
    /// an independent scalar run of that seed. Returns the stats so
    /// callers can assert on the fork/merge/occupancy counters.
    fn assert_matches_scalar(src: &str, cfg: &SimConfig, sweep: &SweepLaunch) -> SweepStats {
        let module = parse_and_link(src).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let out = run_sweep_image(&image, cfg, sweep, None).expect("sweep runs");
        assert_eq!(out.runs.len(), sweep.instances() as usize);
        assert_eq!(out.stats.instances, sweep.instances() as usize);
        assert_eq!(
            out.stats.occupancy_hist.iter().sum::<u64>(),
            out.stats.lockstep_issues,
            "every lockstep issue lands in exactly one occupancy bucket"
        );
        for (i, run) in out.runs.iter().enumerate() {
            let seed = sweep.seed_lo + i as u64;
            assert_eq!(run.seed, seed, "runs are in seed order");
            let mut launch = sweep.base.clone();
            launch.seed = seed;
            let scalar = crate::exec::run_image(&image, cfg, &launch);
            match (&run.result, &scalar) {
                (Ok(s), Ok(r)) => {
                    assert_eq!(s.metrics, r.metrics, "metrics differ for seed {seed}");
                    assert_eq!(s.global_mem, r.global_mem, "global memory differs for seed {seed}");
                    assert!(s.trace.is_none() && s.profile.is_none() && s.journal.is_none());
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "errors differ for seed {seed}"),
                (a, b) => panic!("seed {seed}: sweep returned {a:?}, scalar returned {b:?}"),
            }
        }
        out.stats
    }

    /// The single-level L1 the cache cases price against.
    fn l1() -> MemHierarchy {
        MemHierarchy::l1(64, 16, 2, &LatencyModel::default())
    }

    #[test]
    fn empty_range_yields_empty_output() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 9, 9);
        let out = run_sweep_image(&image, &SimConfig::default(), &sweep, None).unwrap();
        assert!(out.runs.is_empty());
        assert_eq!(out.stats, SweepStats::default());
    }

    #[test]
    fn single_seed_delegates_and_allows_observability() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let cfg = SimConfig { trace: true, ..SimConfig::default() };
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 5, 6);
        let out = run_sweep_image(&image, &cfg, &sweep, None).unwrap();
        assert_eq!(out.runs.len(), 1);
        assert_eq!(out.runs[0].seed, 5);
        let run = out.runs[0].result.as_ref().expect("run succeeds");
        assert!(run.trace.is_some(), "single-instance sweeps keep full observability");
    }

    #[test]
    fn rejects_ranges_wider_than_the_cohort() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 0, 65);
        let err = run_sweep_image(&image, &SimConfig::default(), &sweep, None).unwrap_err();
        assert!(matches!(err, SimError::SweepUnsupported { .. }), "{err}");
    }

    /// The width is validated where it is first used — as the lane-mask
    /// width and the register arena's stride — with one error from all
    /// three engines; `0` used to "finish" having run no thread.
    #[test]
    fn every_engine_rejects_warp_widths_outside_1_to_64() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        for warp_width in [0, 65] {
            let cfg = SimConfig { warp_width, ..SimConfig::default() };
            let base = launch("k", 1, 32, vec![]);
            let sweep = SweepLaunch::new(base.clone(), 0, 4);
            let errs = [
                crate::exec::run_image(&image, &cfg, &base).unwrap_err(),
                crate::reference::run_reference(&module, &cfg, &base).unwrap_err(),
                run_sweep_image(&image, &cfg, &sweep, None).unwrap_err(),
            ];
            assert!(matches!(errs[0], SimError::InvalidModule(_)), "{}", errs[0]);
            assert!(errs.iter().all(|e| *e == errs[0]), "{errs:?}");
        }
    }

    #[test]
    fn rejects_observability_for_multi_instance_sweeps() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 0, 2);
        for cfg in [
            SimConfig { trace: true, ..SimConfig::default() },
            SimConfig { profile: true, ..SimConfig::default() },
            SimConfig {
                journal: Some(crate::journal::JournalConfig::default()),
                ..SimConfig::default()
            },
        ] {
            let err = run_sweep_image(&image, &cfg, &sweep, None).unwrap_err();
            assert!(matches!(err, SimError::SweepUnsupported { .. }), "{err}");
        }
    }

    #[test]
    fn unknown_kernel_fails_the_whole_sweep() {
        let module = parse_and_link(VOTE_DIVERGE_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let sweep = SweepLaunch::new(launch("nope", 1, 32, vec![]), 0, 4);
        let err = run_sweep_image(&image, &SimConfig::default(), &sweep, None).unwrap_err();
        assert_eq!(err, SimError::NoSuchKernel("nope".into()));
    }

    #[test]
    fn lockstep_sweep_is_bit_identical_across_policies() {
        for policy in SchedulerPolicy::ALL {
            let cfg = SimConfig { scheduler: policy, mem: Some(l1()), ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 2, 256, vec![Value::I64(12)]), 100, 116);
            let stats = assert_matches_scalar(LOCKSTEP_KERNEL, &cfg, &sweep);
            assert!(stats.lockstep_issues > 0, "{policy:?}: cohort never issued");
            assert_eq!(stats.forks, 0, "{policy:?}: uniform control never forks");
            assert_eq!(stats.detaches, 0, "{policy:?}: {stats:?}");
            assert_eq!(stats.scalar_steps, 0, "{policy:?}: {stats:?}");
            assert_eq!(stats.peak_subcohorts, 1, "{policy:?}: {stats:?}");
            assert!(
                (stats.mean_occupancy() - 16.0).abs() < f64::EPSILON,
                "{policy:?}: 16 instances in lockstep occupy every issue: {stats:?}"
            );
        }
    }

    #[test]
    fn uniform_divergence_forks_and_merges_without_scalar_fallback() {
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 0, 32);
        let stats = assert_matches_scalar(VOTE_DIVERGE_KERNEL, &SimConfig::default(), &sweep);
        assert!(stats.forks > 0, "seeds disagree on the vote parity: {stats:?}");
        assert!(stats.merges > 0, "cost-symmetric arms must realign: {stats:?}");
        assert_eq!(stats.detaches, 0, "two classes never exceed the cap: {stats:?}");
        assert_eq!(stats.scalar_steps, 0, "{stats:?}");
        assert!(stats.peak_subcohorts >= 2, "{stats:?}");
        assert!(
            stats.mean_occupancy() > 1.0,
            "masked execution keeps width above scalar: {stats:?}"
        );
    }

    #[test]
    fn lane_divergence_forks_and_reconverges_across_policies() {
        for policy in SchedulerPolicy::ALL {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 2, 64, vec![]), 0, 24);
            let stats = assert_matches_scalar(LANE_DIVERGE_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0, "{policy:?}: taken masks differ per seed: {stats:?}");
            assert!(stats.merges > 0, "{policy:?}: barrier reconvergence realigns: {stats:?}");
        }
    }

    #[test]
    fn hardware_recon_sweeps_fall_back_to_exact_scalar_runs() {
        // The hardware reconvergence models bypass the cohort engine:
        // every seed runs on its own scalar machine (exact by
        // construction) and the work is accounted as scalar steps, so
        // zero lockstep issues and zero forks.
        for recon in [
            ReconvergenceModel::IpdomStack,
            ReconvergenceModel::WarpSplit { window: 0, compact: false },
            ReconvergenceModel::WarpSplit { window: 4, compact: true },
        ] {
            let cfg = SimConfig { recon, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 2, 64, vec![]), 0, 12);
            let stats = assert_matches_scalar(LANE_DIVERGE_KERNEL, &cfg, &sweep);
            assert_eq!(stats.lockstep_issues, 0, "{recon:?}: {stats:?}");
            assert_eq!(stats.forks, 0, "{recon:?}: {stats:?}");
            assert!(stats.scalar_steps > 0, "{recon:?}: {stats:?}");
        }
    }

    #[test]
    fn class_explosion_past_the_cap_takes_the_scalar_escape_hatch() {
        // 48 seeds × per-lane random taken masks ≈ 48 distinct classes
        // at one branch: far more than MAX_SUBCOHORTS, so the engine
        // must fork up to the cap and set the rest aside for standalone
        // re-runs — and still be bit-identical, under every policy, with
        // and without per-slot hierarchy state (tags, MSHR files) that
        // the set-aside slots leave behind in the data plane.
        let hier = MemHierarchy::parse(
            "l1:lines=4,cells=16,lat=2,mshrs=2;dram:lat=24,extra=2",
            &LatencyModel::default(),
        )
        .unwrap();
        let sweep = SweepLaunch::new(launch("k", 2, 64, vec![]), 0, 48);
        for policy in SchedulerPolicy::ALL {
            for mem in [None, Some(hier.clone())] {
                let cfg = SimConfig { scheduler: policy, mem, ..SimConfig::default() };
                let stats = assert_matches_scalar(LANE_DIVERGE_KERNEL, &cfg, &sweep);
                assert!(stats.forks > 0, "{cfg:?}: {stats:?}");
                assert!(stats.detaches > 0, "{cfg:?}: class count exceeds the cap: {stats:?}");
                assert!(stats.scalar_steps > 0, "{cfg:?}: {stats:?}");
                assert!(
                    stats.peak_subcohorts as usize <= MAX_SUBCOHORTS,
                    "{cfg:?}: the cap bounds live sub-cohorts: {stats:?}"
                );
            }
        }
        // The standalone re-run polls the token every round: a set-aside
        // seed cancelled mid-drain fails the whole sweep.
        let cancel = CancelToken::new();
        cancel.cancel();
        let image = DecodedImage::decode(&parse_and_link(LANE_DIVERGE_KERNEL).unwrap());
        let cfg = SimConfig::default();
        let mut stats = SweepStats::default();
        let err = run_standalone(&image, &cfg, &sweep.base, 7, Some(&cancel), &mut stats);
        assert!(matches!(err, Err(SimError::Cancelled { .. })), "{err:?}");
    }

    #[test]
    fn divergent_call_depths_share_the_arena_safely() {
        for policy in SchedulerPolicy::ALL {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 1, 64, vec![]), 0, 24);
            let stats = assert_matches_scalar(CALL_DIVERGE_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0, "{policy:?}: call-depth divergence forks: {stats:?}");
        }
    }

    #[test]
    fn divergent_trip_counts_stay_masked_and_bit_identical() {
        for policy in SchedulerPolicy::ALL {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 1, 64, vec![]), 0, 32);
            let stats = assert_matches_scalar(LOOP_DIVERGE_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0, "{policy:?}: trip counts differ: {stats:?}");
            assert_eq!(stats.detaches, 0, "{policy:?}: four classes fit the cap: {stats:?}");
            assert_eq!(stats.scalar_steps, 0, "{policy:?}: {stats:?}");
        }
    }

    #[test]
    fn faulting_instances_report_their_own_scalar_error() {
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 0, 24);
        let module = parse_and_link(FAULTY_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let out = run_sweep_image(&image, &SimConfig::default(), &sweep, None).unwrap();
        let faults = out.runs.iter().filter(|r| r.result.is_err()).count();
        assert!(faults > 0, "rem 33 over 32 cells faults some seed");
        assert!(faults < 24, "and spares some seed");
        assert_matches_scalar(FAULTY_KERNEL, &SimConfig::default(), &sweep);
    }

    #[test]
    fn faulting_sweep_matches_scalar_with_cache() {
        let cfg = SimConfig { mem: Some(l1()), ..SimConfig::default() };
        let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 40, 60);
        assert_matches_scalar(FAULTY_KERNEL, &cfg, &sweep);
    }

    #[test]
    fn cycle_limit_resolves_every_instance() {
        let cfg = SimConfig { max_cycles: 50, ..SimConfig::default() };
        let sweep = SweepLaunch::new(launch("k", 2, 256, vec![Value::I64(1_000_000)]), 0, 8);
        assert_matches_scalar(LOCKSTEP_KERNEL, &cfg, &sweep);
    }

    #[test]
    fn cancellation_fails_the_whole_sweep() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let module = parse_and_link(LOCKSTEP_KERNEL).unwrap();
        let image = DecodedImage::decode(&module);
        let sweep = SweepLaunch::new(launch("k", 1, 256, vec![Value::I64(50)]), 0, 4);
        let err =
            run_sweep_image(&image, &SimConfig::default(), &sweep, Some(&cancel)).unwrap_err();
        assert!(matches!(err, SimError::Cancelled { .. }), "{err}");
    }

    #[test]
    fn occupancy_buckets_partition_the_width_range() {
        assert_eq!(occupancy_bucket(1), 0);
        assert_eq!(occupancy_bucket(2), 1);
        assert_eq!(occupancy_bucket(3), 2);
        assert_eq!(occupancy_bucket(4), 2);
        assert_eq!(occupancy_bucket(5), 3);
        assert_eq!(occupancy_bucket(8), 3);
        assert_eq!(occupancy_bucket(9), 4);
        assert_eq!(occupancy_bucket(16), 4);
        assert_eq!(occupancy_bucket(17), 5);
        assert_eq!(occupancy_bucket(32), 5);
        assert_eq!(occupancy_bucket(33), 6);
        assert_eq!(occupancy_bucket(64), 6);
        assert_eq!(OCCUPANCY_BUCKET_LABELS.len(), OCCUPANCY_BUCKETS);
    }
}
