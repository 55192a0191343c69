//! Lockstep multi-seed execution: the seed dimension as a second SIMD
//! axis.
//!
//! Monte Carlo sweeps run one [`DecodedImage`] over many seeds that
//! differ only in RNG-dependent data. This module executes up to 64
//! seed-*instances* of one launch in lockstep: control state (PCs,
//! status masks, call frames, barrier registers, the scheduler's pick
//! state — one [`WarpCtl`] per warp — and the clock) is stored **once
//! per sub-cohort** and shared by every instance in it, while data state
//! (register files, local memory, RNG streams, global memory,
//! memory-hierarchy tags) is stored structure-of-arrays — flat columns
//! indexed
//! `[cell * nslots + slot]` with no per-instance pointers. One
//! scheduling decision, one instruction decode, one cost lookup, and
//! one metrics update then serve every instance of a sub-cohort; only
//! the raw value compute is paid per `(lane, slot)` — through the per-op
//! kernels of [`crate::alu::with_bin`], under this module's loop shape
//! (`SlotAlu`).
//!
//! Values are stored untagged, in typed slot columns (`cols.rs`), in one
//! of two layouts the slot count fixes ([`Geom`]):
//!
//! - **one slot** — every scalar launch ([`crate::exec::run_image`]): the
//!   warp's lanes are the columns. Register `r` of the frame based at
//!   stack offset `base` is row `base + r`, lane `l` its column `l`, and
//!   one float word types the row; local cell `c` is row `c`;
//! - **two or more**: the seeds are the columns. Registers and local
//!   memory are warp-major — register `r` is row `(base + r) * width +
//!   lane`, local cell `c` row `c * width + lane` — so the adjacent lanes
//!   of an issue are adjacent rows and a whole register of theirs is one
//!   run of memory.
//!
//! Each data arm is written once, over an issue's row runs ([`RowRun`]:
//! first row, row count, column mask) — one per frame-base group at one
//! slot, one per span of adjacent lanes over the live slots otherwise —
//! and the memory arms map a `(lane, slot)` cell to its register cell and
//! its memory cell through the same geometry. A memory access whose
//! address is the same in every slot is one row copy per lane; any other
//! goes cell by cell through the same bounds check and cell kernels.
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
//! copied (the warps' [`WarpCtl`]s and the clock) — the SoA value
//! columns are already slot-indexed, so the child reads and writes the
//! same data plane through its own slot mask and **no data moves on
//! fork**. The child's control snapshot is taken before the divergent
//! issue applies, with the issuing warp's scheduler fields rewound to
//! their pre-pick values and, inside a straight-line batch, the prefix
//! the parent writes only when its batch ends applied, so the child
//! re-picks and re-executes that issue itself on the exact unbatched
//! clock. A child forked inside a warp-split round resumes the round at
//! the candidate that forked ([`Rounds::resume`]) instead.
//!
//! Sub-cohorts are scheduled min-clock-first: the sub-cohort with the
//! smallest cycle runs its next round. At every round boundary,
//! sub-cohorts whose clocks and control planes re-agree are *merged*
//! (slot-mask union; the shared data plane needs no reconciliation),
//! restoring full-width lockstep after reconvergent divergence. The
//! merge test is `==` on the two sub-cohorts' [`WarpCtl`]s, whose
//! equality covers the call frames too. It is sound because every
//! sub-cohort schedules through the same pick path (see
//! [`crate::sched`]): equal control planes pick identically forever
//! after — and every sub-cohort, a scalar launch's one-slot cohort
//! included, drives one [`WarpCtl`] and runs ahead through one batcher
//! ([`crate::sched::run_ahead`]), so there is one pick path, one batch
//! rule, one call stack and one set of barrier transitions to agree with.
//! A batch that ends with its group intact leaves a pick hint; hints live
//! beside the control plane, outside the merge test, and only ever save a
//! pick.
//!
//! Every divergent class forks into a sub-cohort of its own, however
//! many there are: a cohort keeps every seed in lockstep until it
//! resolves, under every reconvergence model.
//!
//! # Exactness
//!
//! Sweep outputs are **bit-identical** to N independent scalar runs —
//! metrics, final global memory, RNG streams, and errors — which the
//! conformance grid enforces across the generative kernel genome, every
//! scheduler policy and reconvergence model, and two memory hierarchies.
//! A one-slot cohort records its trace, profile and journal through
//! [`Observer`] and counts its [`EngineStats`]. Per-instance
//! observability cannot be attributed exactly from shared control, so
//! sweeps of more than one instance reject those configs with
//! [`SimError::SweepUnsupported`] instead of emitting misstamped events.

use crate::alu::AluLoop;
use crate::barrier::{Status, WarpCtl};
use crate::cols::{
    add_cell, cell, class, decode, encode, fault_free, move_cell, move_row, tagged, typed,
    uniform_addr, zip_rows, Class, MemOp, RowRef, SlotCols, Src, FLOAT, INT, PER_SLOT,
};
use crate::config::{ReconvergenceModel, SimConfig};
use crate::decode::{DecodedImage, DecodedInst};
use crate::error::{LaneFault, SimError};
use crate::exec::CancelToken;
use crate::journal::JournalKind;
use crate::machine::{EngineStats, Launch, SimOutput};
use crate::metrics::Metrics;
use crate::observe::Observer;
use crate::recon::{Cand, Pick, ReconStats, RoundBufs, Rounds};
use crate::rng::SplitMix64;
use crate::sched::{lanes, Batcher, Issued, Run, Spans};
use simt_ir::{BarrierOp, BinOp, MemSpace, Operand, RngKind, UnOp, Value};
use std::cmp::Ordering;

/// Width of one lockstep cohort: slots are tracked in a `u64` mask,
/// mirroring the lane-mask machinery one level down.
pub const COHORT_SLOTS: usize = 64;

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
    pub instances: u64,
    /// Instruction issues executed once for a whole sub-cohort.
    pub lockstep_issues: u64,
    /// Times a divergent slot class forked into a child sub-cohort.
    pub forks: u64,
    /// Times two sub-cohorts' control planes re-agreed and merged.
    pub merges: u64,
    /// Sum over lockstep issues of the issuing sub-cohort's width;
    /// `occupancy_sum / lockstep_issues` is the mean occupancy.
    pub occupancy_sum: u64,
    /// Most sub-cohorts ever live at once.
    pub peak_subcohorts: u64,
    /// Rounds stepped by standalone scalar machines: always 0, since every
    /// model runs in the cohort; kept for the readers of the schema.
    pub scalar_steps: u64,
    /// Operand-row pairs of lockstep `Bin`/`Un` issues (one per issued
    /// lane) whose live slots were uniformly typed, evaluated by a dense
    /// typed loop.
    pub dense_rows: u64,
    /// Operand-row pairs with an int in some live slots and a float in
    /// others, evaluated by the per-slot loop.
    pub mixed_rows: u64,
    /// Lockstep global loads/stores whose every lane held one in-range
    /// integer address across the sub-cohort's slots: priced once, moved
    /// as one row copy per lane.
    pub uniform_accesses: u64,
    /// Lockstep global loads/stores staged, priced and moved per slot.
    pub scattered_accesses: u64,
    /// Data-arm issues whose every run of adjacent issued lanes moved as
    /// one span: frame base, operand rows, operand types and the kernel
    /// resolved once for the issue.
    pub hoisted_issues: u64,
    /// Span loops executed by data arms: one per run of adjacent lanes on
    /// a hoisted issue.
    pub lane_runs: u64,
    /// Data-arm issues that broke a lane run because adjacent lanes sat at
    /// different call depths (the per-lane walk).
    pub per_lane_issues: u64,
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
    if n > COHORT_SLOTS as u64 {
        return Err(SimError::SweepUnsupported {
            reason: format!(
                "{n} seeds exceed the {COHORT_SLOTS}-slot cohort; chunk the seed range"
            ),
        });
    }
    if n > 1 && (cfg.trace || cfg.profile || cfg.journal.is_some()) {
        return Err(SimError::SweepUnsupported {
            reason: format!(
                "trace/profile/journal collection is per-instance; \
                 run the {n} seeds individually"
            ),
        });
    }
    match n {
        1 => Cohort::<true>::new(image, cfg, &sweep.base, sweep.seed_lo, 1)?.run(cancel),
        _ => Cohort::<false>::new(image, cfg, &sweep.base, sweep.seed_lo, n as usize)?.run(cancel),
    }
}

/// One launch of `image` at its own seed: the cohort at one slot, in the
/// lanes-as-columns layout ([`Geom`]).
pub(crate) fn run_one(
    image: &DecodedImage,
    cfg: &SimConfig,
    launch: &Launch,
    cancel: Option<&CancelToken>,
) -> Result<SimOutput, SimError> {
    let mut out = Cohort::<true>::new(image, cfg, launch, launch.seed, 1)?.run(cancel)?;
    out.runs.pop().expect("one seed").result
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

/// Staging shared by the row operations: one broadcast row per immediate
/// operand ([`Src::broadcast`]), and `out` — a result row awaiting its
/// masked commit (`sel`, atomics; the first `ns` words) or the ALU's copy
/// of a span's destination rows (`width * ns` words).
struct RowScratch {
    out: Vec<u64>,
    imm: [Vec<u64>; 2],
}

/// Where a warp's cells sit in its columns; the slot count fixes it (see
/// the module docs). Everything else about an arm is the same in both
/// layouts.
#[derive(Clone, Copy)]
struct Geom {
    width: usize,
    /// One slot: the lanes are the columns.
    lanes: bool,
}

impl Geom {
    /// Rows between two registers of a frame: an operand's offset from
    /// the frame's register 0 is `reg * stride` ([`Src::of`]).
    #[inline(always)]
    fn stride(self) -> usize {
        match self.lanes {
            true => 1,
            false => self.width,
        }
    }

    /// Row of register 0 of lane `l`'s frame at stack offset `base`.
    #[inline(always)]
    fn frame(self, base: usize, l: usize) -> usize {
        match self.lanes {
            true => base,
            false => base * self.width + l,
        }
    }

    /// Row of register 0 of lane `l`'s live frame.
    #[inline(always)]
    fn row0(self, ctl: &WarpCtl, l: usize) -> usize {
        self.frame(ctl.bases[l], l)
    }

    /// Column of lane `l`'s slot `s` in its register and local rows.
    #[inline(always)]
    fn col(self, l: usize, s: usize) -> usize {
        match self.lanes {
            true => l,
            false => s,
        }
    }

    /// Row of lane `l`'s local cell `c`.
    #[inline(always)]
    fn local(self, c: usize, l: usize) -> usize {
        match self.lanes {
            true => c,
            false => c * self.width + l,
        }
    }

    /// The `(lane, slot)` of column `c` of row `i` of `run`.
    #[inline(always)]
    fn cell(self, run: &RowRun, i: usize, c: usize) -> (usize, usize) {
        match self.lanes {
            true => (c, 0),
            false => (run.lo + i, c),
        }
    }

    /// What a truthy mask `t` over the columns of row `i` of `run` says
    /// of the lanes: those taken in every live slot, and whether the
    /// slots agree.
    #[inline(always)]
    fn truth(self, run: &RowRun, i: usize, t: u64) -> (u64, bool) {
        match self.lanes {
            true => (t, true),
            false => (u64::from(t == run.cols) << (run.lo + i), t == run.cols || t == 0),
        }
    }

    /// The row runs of the issued lanes `mask` by live frame base over
    /// the slots `live`: one per base group at one slot; at more, one per
    /// span of `spans` (the issue's, [`frame_spans`]).
    #[inline(always)]
    fn runs(self, ctl: &WarpCtl, mask: u64, spans: Spans, live: u64) -> RowRuns<'_> {
        match self.lanes {
            true => RowRuns::Groups { bases: &ctl.bases, shared: ctl.shared, rest: mask },
            false => RowRuns::Spans { spans, bases: &ctl.bases, geom: self, live },
        }
    }

    /// The row runs of the issued lanes `mask` by `key`, which the frame
    /// base must be part of: one per span of adjacent lanes with one key
    /// (its lanes as one row's columns at one slot).
    fn runs_by<K: PartialEq>(
        self,
        ctl: &WarpCtl,
        mask: u64,
        live: u64,
        key: impl Fn(usize) -> K,
    ) -> (Spans, RowRuns<'_>) {
        let spans = Spans::by(mask, key);
        (spans, RowRuns::Spans { spans, bases: &ctl.bases, geom: self, live })
    }
}

/// One row op of an issue: rows `at .. at + n` hold register 0 of its
/// lanes' frame (an operand's rows are offset from them), `cols` are the
/// columns it writes, and `lo` is its lowest lane.
#[derive(Clone, Copy)]
struct RowRun {
    at: usize,
    n: usize,
    cols: u64,
    lo: usize,
}

/// An issue's [`RowRun`]s, lowest lane first ([`Geom::runs`]).
enum RowRuns<'a> {
    /// One slot: a row per group of lanes at one frame base — a single
    /// group while every lane shares its base, one per call depth
    /// otherwise — its lanes as the columns.
    Groups { bases: &'a [usize], shared: Option<usize>, rest: u64 },
    /// A run per span of adjacent lanes sharing a frame: at one slot a
    /// row under the span's lanes, at more `n` rows under the live slots.
    Spans { spans: Spans, bases: &'a [usize], geom: Geom, live: u64 },
}

impl Iterator for RowRuns<'_> {
    type Item = RowRun;
    #[inline(always)]
    fn next(&mut self) -> Option<RowRun> {
        match self {
            RowRuns::Groups { bases, shared, rest } => {
                if *rest == 0 {
                    return None;
                }
                let lo = rest.trailing_zeros() as usize;
                let (at, cols) = match *shared {
                    Some(base) => (base, *rest),
                    None => {
                        let base = bases[lo];
                        let at_base = lanes(*rest).filter(|&l| bases[l] == base);
                        (base, at_base.fold(0, |m, l| m | 1 << l))
                    }
                };
                *rest &= !cols;
                Some(RowRun { at, n: 1, cols, lo })
            }
            RowRuns::Spans { spans, bases, geom, live } => {
                let (lo, n) = spans.next()?;
                let at = geom.frame(bases[lo], lo);
                Some(match geom.lanes {
                    true => RowRun { at, n: 1, cols: u64::MAX >> (64 - n) << lo, lo },
                    false => RowRun { at, n, cols: *live, lo },
                })
            }
        }
    }
}

/// Whether the lanes of `mask` sit at more than one frame base.
#[inline(always)]
fn split_bases(ctl: &WarpCtl, mask: u64) -> bool {
    ctl.shared.is_none() && {
        let b = ctl.bases[mask.trailing_zeros() as usize];
        lanes(mask).any(|l| ctl.bases[l] != b)
    }
}

/// The spans of an issue by live frame base: the mask's runs while every
/// lane shares its base ([`WarpCtl::shared`]), else a walk. The one-slot
/// layout's row runs are base groups ([`Geom::runs`]), which read no
/// spans: the mask's runs stand in.
#[inline(always)]
fn frame_spans<const L: bool>(ctl: &WarpCtl, mask: u64) -> Spans {
    match L || ctl.shared.is_some() {
        true => Spans::runs(mask),
        false => Spans::by(mask, |l| ctl.bases[l]),
    }
}

/// One warp's data plane, shared by every sub-cohort: sub-cohorts
/// address disjoint slot sets, so masked access needs no locking and a
/// fork moves nothing.
#[derive(Clone, Debug)]
struct DWarp {
    /// Registers: a bump arena over every sub-cohort's frame stacks, in
    /// the layout of [`Geom`]. Sized to the deepest lane of any
    /// sub-cohort; never shrinks.
    regs: SlotCols,
    /// RNG streams, `[lane * ns + slot]`.
    rng: Vec<SplitMix64>,
    /// Local memory, row [`Geom::local`].
    local: SlotCols,
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
pub(crate) struct SubCohort {
    /// Slots executing under this control plane (disjoint across
    /// sub-cohorts).
    pub(crate) slots: u64,
    pub(crate) cycle: u64,
    /// Shared metrics accumulator: every counter a scalar run would
    /// bump is bumped once here for the whole sub-cohort. A slot's true
    /// metrics are `metrics + bases[slot]`. `cycles` stays 0 until
    /// finalization.
    metrics: Metrics,
    /// Each warp's control plane, call frames included.
    warps: Vec<WarpCtl>,
    /// Each warp's scheduler memory beside its plane.
    picks: Vec<Pick>,
    /// Warp `.0`'s split round, forked mid-way: the candidates this child
    /// issues first ([`Rounds::resume`]); until then it does not merge.
    resume: Option<(usize, Vec<Cand>)>,
}

/// [`Cohort::issue_c`]'s cost, next pc and whether slots split off.
type Issue = (u32, Option<usize>, bool);

/// One issue — warp `w`'s lanes `mask` — and what it needs to fork a
/// child sub-cohort mid-round: the pre-pick scheduler fields (the pick
/// already advanced them; the child must re-run the pick itself). The pc
/// and the batch prefix travel beside it as the batcher's own [`Run`],
/// read only when a fork happens.
#[derive(Clone, Copy)]
struct IssueCtx {
    w: usize,
    mask: u64,
    /// `last_lanes`, `rr_cursor` and `busy_until` before the pick; with the
    /// prefix's weight, that `busy_until` (stored for the round's first
    /// issue, the round issue's completion for a batched one) is the
    /// warp's when an *unbatched* scalar run would pick this instruction,
    /// so a class forking mid-batch replays on the true clock. Inside a
    /// batch `last_lanes` is the mask and the RoundRobin cursor the warp's
    /// own at the fork ([`IssueCtx::batched`]).
    pre: (u64, usize, u64),
    /// Whether the issue runs ahead inside a batch.
    batched: bool,
    /// The issued lanes' spans by frame base, worked out once for the
    /// round's issue and once for its batch, which cannot change the mask
    /// or a base.
    spans: Spans,
}

/// The lockstep sweep machine: forked control planes over one SoA data
/// plane.
pub(crate) struct Cohort<'m, const L: bool> {
    image: &'m DecodedImage,
    cfg: &'m SimConfig,
    /// Per-pc issue costs, shared by every sub-cohort.
    costs: Vec<u32>,
    /// Cohort width (number of seed instances), fixed for the whole
    /// run: columns keep stride `nslots` even as slots fork and resolve.
    nslots: usize,
    /// Lanes per warp.
    width: usize,
    seed_lo: u64,
    /// Live sub-cohorts, unordered (the run loop picks min-clock).
    pub(crate) subs: Vec<SubCohort>,
    /// The shared data plane, one entry per warp.
    data: Vec<DWarp>,
    /// Global memory, one row per address.
    global: SlotCols,
    local_len: usize,
    /// Per-slot metrics deltas (wrapping) relative to the owning
    /// sub-cohort's accumulator: a slot's true metrics are
    /// `sub.metrics + bases[slot]`. Zero until the slot's first merge.
    bases: Vec<Metrics>,
    /// Final per-seed results, filled as instances resolve.
    results: Vec<Option<Result<SimOutput, SimError>>>,
    stats: SweepStats,
    // Reusable hot-loop buffers.
    bufs: RoundBufs,
    /// The issuing warp-split round's candidates not issued yet, which a
    /// fork hands its child ([`Rounds::pre_pick`]).
    rest: Vec<Cand>,
    /// What the shared rounds and the data arms count by the scalar
    /// rules; a sweep of more than one seed reports none of it.
    pub(crate) engine: EngineStats,
    /// The trace, profile and journal: inert unless one slot runs.
    obs: Observer,
    /// Lane-address staging for global accesses.
    addrs: AddrStage,
    /// Row staging for the typed loops.
    scratch: RowScratch,
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

impl<'m, const L: bool> Cohort<'m, L> {
    /// Validates the launch (through [`WarpCtl::for_launch`]) and builds
    /// the initial state for `nslots` instances of `launch` at seeds
    /// `seed_lo..`: one root sub-cohort owning every slot, over one
    /// shared data plane.
    pub(crate) fn new(
        image: &'m DecodedImage,
        cfg: &'m SimConfig,
        launch: &Launch,
        seed_lo: u64,
        nslots: usize,
    ) -> Result<Cohort<'m, L>, SimError> {
        let (kfunc, ctl) = WarpCtl::for_launch(image, cfg, launch)?;
        let width = cfg.warp_width;
        let num_regs = kfunc.num_regs as usize;
        debug_assert_eq!(L, nslots == 1, "the lanes layout is the one-slot one");

        let slots = if nslots == 64 { u64::MAX } else { (1u64 << nslots) - 1 };
        // Every warp starts from the same columns: the arguments
        // broadcast over the kernel frame, zeroed local memory.
        let (stride, cols, all) = match L {
            true => (1, width, ctl.lane_mask),
            false => (width, nslots, slots),
        };
        let mut regs = SlotCols::new(num_regs * stride, cols);
        for (i, a) in launch.args.iter().enumerate() {
            regs.fill_rows(i * stride, stride, *a, all);
        }
        let local = SlotCols::new(launch.local_mem_size * stride, cols);
        let data = (0..launch.num_warps)
            .map(|w| DWarp {
                regs: regs.clone(),
                rng: (0..width * nslots)
                    .map(|i| {
                        let (tid, s) = (w * width + i / nslots, i % nslots);
                        SplitMix64::for_sweep_instance(seed_lo, s as u64, tid as u64)
                    })
                    .collect(),
                local: local.clone(),
                hier_tags: (0..nslots)
                    .map(|_| crate::mem::MemTags::new(cfg.mem.as_ref()))
                    .collect(),
            })
            .collect();

        Ok(Cohort {
            image,
            cfg,
            costs: image.resolve_costs(&cfg.latency),
            nslots,
            width,
            seed_lo,
            subs: vec![SubCohort {
                slots,
                cycle: 0,
                metrics: Metrics::new(launch.num_warps, width),
                warps: vec![ctl; launch.num_warps],
                picks: vec![Pick::default(); launch.num_warps],
                resume: None,
            }],
            data,
            global: SlotCols::of_values(&launch.global_mem, nslots),
            local_len: launch.local_mem_size,
            bases: vec![Metrics::new(launch.num_warps, width); nslots],
            results: vec![None; nslots],
            stats: SweepStats {
                instances: nslots as u64,
                peak_subcohorts: 1,
                ..SweepStats::default()
            },
            bufs: RoundBufs::default(),
            rest: Vec::new(),
            engine: EngineStats::default(),
            obs: Observer::new(cfg),
            addrs: AddrStage::default(),
            scratch: RowScratch {
                out: vec![0; width * nslots],
                imm: [vec![0; cols], vec![0; cols]],
            },
            lines_buf: Vec::new(),
            mshrs: (0..nslots).map(|_| crate::mem::MemMshrs::new(cfg.mem.as_ref())).collect(),
            mem_scratch: crate::mem::MemScratch::default(),
        })
    }

    /// The layout of the registers and local memory: the lanes as columns
    /// at one slot ([`Geom`]), a constant of the instantiation.
    #[inline(always)]
    fn geom(&self) -> Geom {
        Geom { width: self.width, lanes: L }
    }

    /// The live slots of `sub` while it issues and the slot count: at one
    /// slot both constants, so the arms' per-slot loops run once, unrolled.
    #[inline(always)]
    fn live(&self, sub: &SubCohort) -> (u64, usize) {
        if L {
            (1, 1)
        } else {
            (sub.slots, self.nslots)
        }
    }

    /// Drives every sub-cohort to completion, min-clock-first with a
    /// merge check at each visited round boundary.
    fn run(mut self, cancel: Option<&CancelToken>) -> Result<SweepOutput, SimError> {
        while !self.subs.is_empty() {
            let t = self.subs.iter().map(|sc| sc.cycle).min().expect("subs non-empty");
            // The reconvergence check happens at the frontier cycle
            // before anything at it executes: merge sub-cohorts whose
            // control re-agreed.
            self.merge_at(t);
            let si = self
                .subs
                .iter()
                .position(|sc| sc.cycle == t)
                .expect("a sub-cohort sits at the minimum cycle");
            // The running sub-cohort is moved out of `subs` so forked
            // children can push into `subs` mid-issue. While it is the
            // only one it is every round's frontier and has nothing to
            // merge with, so it stays out and runs on until it finishes,
            // resolves or forks.
            let mut sub = self.subs.swap_remove(si);
            let finished = loop {
                if self.round(&mut sub) {
                    break true;
                }
                if sub.slots != 0 && cancel.is_some_and(CancelToken::is_cancelled) {
                    return Err(SimError::Cancelled { cycle: sub.cycle });
                }
                if sub.slots == 0 || !self.subs.is_empty() {
                    break false;
                }
            };
            if finished {
                self.finalize_sub(&sub);
            } else if sub.slots != 0 {
                self.subs.push(sub);
            }
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
        // One slot is a scalar launch: its host work is its EngineStats,
        // and as a sweep it counts one instance and no lockstep work.
        let stats = match L {
            true => SweepStats { instances: 1, ..SweepStats::default() },
            false => self.stats,
        };
        Ok(SweepOutput { runs, stats })
    }

    /// Resolves the slots that faulted in an issue, each with its own
    /// terminal error; out of line, as almost no issue has one.
    #[inline]
    fn resolve_faults(&mut self, sub: &mut SubCohort, ctx: &IssueCtx, pc: usize, faults: Faults) {
        if faults.mask != 0 {
            self.resolve_faulted(sub, ctx, pc, faults);
        }
    }

    #[cold]
    fn resolve_faulted(&mut self, sub: &mut SubCohort, ctx: &IssueCtx, pc: usize, faults: Faults) {
        for (s, fault) in faults.list {
            sub.slots &= !(1u64 << s);
            let at = |l| self.image.location(ctx.w, l, pc);
            self.results[s] = Some(Err(fault.into_error(at)));
        }
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

    /// One lockstep issue ([`Cohort::exec_c`]) of `sub`, counted: its
    /// cost, where the group goes next and whether slots split off —
    /// `None` once `sub` has none left. A divergent issue ends the batch
    /// it is in (see [`Cohort::round`]), so it moves its lanes at once.
    #[inline]
    fn issue_c(&mut self, sub: &mut SubCohort, ctx: &IssueCtx, run: &Run) -> Option<Issue> {
        let forks = self.stats.forks;
        let (cost, mut next) = self.exec_c(sub, ctx, run);
        if sub.slots == 0 {
            return None;
        }
        if !L {
            self.stats.lockstep_issues += 1;
            self.stats.occupancy_sum += u64::from(sub.slots.count_ones());
        }
        let forked = !L && self.stats.forks != forks;
        if let Some(at) = next.take_if(|_| forked) {
            sub.warps[ctx.w].move_to(ctx.mask, at);
        }
        Some((cost, next, forked))
    }

    /// Merges every pair of sub-cohorts sitting at cycle `t` whose
    /// control planes are equal and that are not mid-round: the merged
    /// group keeps one plane, the other's slots fold in under their
    /// metrics delta, and the shared data plane needs no reconciliation.
    /// Sound because equal control planes pick identically forever (see
    /// [`crate::sched`]). A high-water mark cannot ride a delta: each
    /// side's maximum folds into its own slots' bases and the merged
    /// one restarts at 0, so a slot reads the larger of the two.
    fn merge_at(&mut self, t: u64) {
        if self.subs.len() < 2 {
            return;
        }
        let mut i = 0;
        while i < self.subs.len() {
            let ready = |sub: &SubCohort| sub.cycle == t && sub.resume.is_none();
            if !ready(&self.subs[i]) {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < self.subs.len() {
                if ready(&self.subs[j]) && self.subs[i].warps == self.subs[j].warps {
                    let (b, first) = (self.subs.swap_remove(j), |x, _| x);
                    let a = &mut self.subs[i];
                    let d = b.metrics.combine(&a.metrics, u64::wrapping_sub, first);
                    for s in lanes(b.slots) {
                        self.bases[s] = self.bases[s].combine(&d, u64::wrapping_add, u64::max);
                    }
                    for s in lanes(a.slots) {
                        self.bases[s] = self.bases[s].combine(&a.metrics, first, u64::max);
                    }
                    a.metrics = a.metrics.combine(&a.metrics, first, |_, _| 0);
                    a.slots |= b.slots;
                    a.picks.iter_mut().for_each(|p| p.hint = None);
                    self.stats.merges += 1;
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
    }

    /// One scheduling round of `sub` ([`crate::recon::step`]). Returns
    /// `true` once every warp finished.
    pub(crate) fn round(&mut self, sub: &mut SubCohort) -> bool {
        // `sub` is popped off `self.subs` while it runs, so a non-empty
        // `subs` means the cohort is split.
        let split = !self.subs.is_empty();
        crate::recon::step(&mut SubRound { cohort: self, sub, split, pre: (0, 0, 0) }) == Ok(true)
    }

    /// Finalizes every slot of a finished sub-cohort into its output at
    /// the sub-cohort's finish cycle, decoding their final memories in
    /// one pass when [`SimConfig::final_mem`] asks for them.
    fn finalize_sub(&mut self, sub: &SubCohort) {
        let images = if self.cfg.final_mem { self.global.columns(sub.slots) } else { Vec::new() };
        let mut images = images.into_iter();
        let engine = if L { self.engine } else { EngineStats::default() };
        for s in lanes(sub.slots) {
            let mut metrics = sub.metrics.combine(&self.bases[s], u64::wrapping_add, u64::max);
            metrics.cycles = sub.cycle;
            let (obs, global_mem) =
                (std::mem::take(&mut self.obs), images.next().unwrap_or_default());
            self.results[s] = Some(Ok(obs.finish(metrics, engine, global_mem)));
        }
    }
}

/// The classes of a slot set under a per-slot key, as slot masks in
/// lowest-member order. Divergence across seeds is shallow in practice;
/// a linear scan per class over at most 64 slots is plenty, and it
/// needs no table.
struct Classes<F> {
    rest: u64,
    key: F,
}

impl<K: PartialEq, F: Fn(usize) -> K> Iterator for Classes<F> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.rest == 0 {
            return None;
        }
        let k = (self.key)(self.rest.trailing_zeros() as usize);
        let class = lanes(self.rest).filter(|&s| (self.key)(s) == k).fold(0, |m, s| m | 1u64 << s);
        self.rest &= !class;
        Some(class)
    }
}

/// Partitions live slots by a per-slot key: the largest class (ties
/// broken toward the class containing the lowest slot) keeps the
/// current sub-cohort; every other class is returned to fork off. When
/// every key agrees — every issue of a non-forking cohort — that is one
/// scan and an empty iterator; nothing here allocates.
fn partition_classes<K: PartialEq, F: Fn(usize) -> K>(live: u64, key: F) -> Classes<F> {
    // Classes arrive in lowest-slot order, so a plain max scan with
    // strict `>` implements the tie-break.
    let mut winner = 0u64;
    for class in (Classes { rest: live, key: &key }) {
        if class.count_ones() > winner.count_ones() {
            winner = class;
        }
    }
    Classes { rest: live & !winner, key }
}

// Data-plane reads the scheduler needs, and diagnostics.
impl<const L: bool> Cohort<'_, L> {
    /// Whether executing `inst` for the issue `ctx` is guaranteed not to
    /// fault in *any* live slot of `sub`: [`fault_free`] on the issued
    /// lanes' operand rows, once per row run. A batched issue must be
    /// infallible: a per-seed fault resolves that slot with the exact
    /// error its scalar run would raise, and look-ahead would misstamp
    /// its round. Faultable (lane, slot) operands leave the instruction
    /// to execute in its own round.
    ///
    /// Forced inline: the batcher is instantiated in both round shapes, and
    /// with two call sites the compiler otherwise leaves this check — run
    /// before every batched issue — out of line.
    #[inline(always)]
    fn batch_fault_free_c(&self, sub: &SubCohort, ctx: &IssueCtx, inst: &DecodedInst) -> bool {
        let Some((lhs, rhs, cond)) = crate::alu::fault_cond(inst) else { return true };
        let (regs, ctl, geom) = (&self.data[ctx.w].regs, &sub.warps[ctx.w], self.geom());
        let (a, b) = (Src::of(lhs, geom.stride()), Src::of(rhs, geom.stride()));
        geom.runs(ctl, ctx.mask, ctx.spans, sub.slots)
            .all(|RowRun { at, n, cols, .. }| fault_free(regs, cond, a.at(at), b.at(at), n, cols))
    }

    /// Counts an issue's lane spans: hoisted when every run of adjacent
    /// issued lanes is one span. A one-slot run counts no sweep work.
    #[inline(always)]
    fn spans(&mut self, spans: Spans) {
        if L {
            return;
        }
        self.stats.lane_runs += u64::from(spans.starts.count_ones());
        if spans.hoisted() {
            self.stats.hoisted_issues += 1;
        } else {
            self.stats.per_lane_issues += 1;
        }
    }

    /// Splits `class` off `sub` at a divergent issue into a child
    /// sub-cohort. Called *before* the divergent instruction mutates any
    /// state, so the child replays the in-progress round from a
    /// consistent snapshot: warps earlier in warp order already issued
    /// (their `busy_until` moved past this cycle), the issuing warp's
    /// scheduler fields are restored to their pre-pick values (`ctx`),
    /// and later warps are untouched — exactly the state an independent
    /// run of those slots would be in when its round reaches the issuing
    /// warp, batch prefix (`run`) applied. The shared SoA data plane is
    /// untouched: the child simply reads and writes it under its own slot
    /// mask.
    fn split_off(&mut self, sub: &mut SubCohort, class: u64, ctx: &IssueCtx, run: &Run) {
        sub.slots &= !class;
        let (mut warps, mut metrics) = (sub.warps.clone(), sub.metrics.clone());
        let (ctl, Run { at, issues, weight, roi_weight }) = (&mut warps[ctx.w], *run);
        (ctl.last_lanes, ctl.rr_cursor, ctl.busy_until) = match ctx.batched {
            // The cursor the converged pick would consume: the batcher
            // bumps it only once the issue returns.
            true => (ctx.mask, ctl.rr_cursor, ctx.pre.2),
            false => ctx.pre,
        };
        ctl.busy_until += weight;
        ctl.move_to(ctx.mask, at);
        let waiting = ctl.waiting.count_ones();
        metrics.record_issues(ctx.w, ctx.mask, issues, weight, roi_weight, waiting);
        let (picks, cycle) = (vec![Pick::default(); warps.len()], sub.cycle);
        let resume = (!self.rest.is_empty()).then(|| (ctx.w, self.rest.clone()));
        self.subs.push(SubCohort { slots: class, cycle, metrics, warps, picks, resume });
        self.stats.forks += 1;
        self.stats.peak_subcohorts = self.stats.peak_subcohorts.max(self.subs.len() as u64 + 1);
    }
}

/// The cohort's side of the straight-line batcher: [`Cohort::exec_c`]
/// moves the data after [`Cohort::batch_fault_free_c`], and the per-block
/// profile stays per issue. Nothing that stamps issues is on while a
/// batch runs ([`Observer::stamps_issues`]).
struct SubRun<'a, 'm, const L: bool> {
    cohort: &'a mut Cohort<'m, L>,
    sub: &'a mut SubCohort,
    /// The batched issues' context: `last_lanes` re-sticks to the mask,
    /// the clock with the prefix's weight is the unbatched one, and the
    /// RoundRobin cursor and the prefix are read at a fork, from the
    /// warp and the batcher's [`Run`].
    ctx: IssueCtx,
    /// Whether the cohort is split.
    split: bool,
}

impl<const L: bool> Batcher for SubRun<'_, '_, L> {
    type Error = std::convert::Infallible;

    #[inline(always)]
    fn state(&mut self) -> (&mut WarpCtl, &[usize], &mut Metrics) {
        let SubCohort { warps, metrics, picks, .. } = &mut *self.sub;
        (&mut warps[self.ctx.w], &picks[self.ctx.w].other_pcs, metrics)
    }

    #[inline(always)]
    fn issue(&mut self, _mask: u64, inst: &DecodedInst, run: &Run) -> Issued<Self::Error> {
        let SubRun { cohort, sub, ctx, split } = self;
        // While the cohort is split, every sub stops at every branch:
        // forks and the code between branches cost the same in every
        // sibling, so this keeps the sub-cohorts' round boundaries on one
        // cadence — equal-cycle frontiers recur and re-agreeing planes
        // actually meet in the merge scan instead of leapfrogging each
        // other forever.
        if *split && matches!(inst, DecodedInst::Branch { .. })
            || !cohort.batch_fault_free_c(sub, ctx, inst)
        {
            return Ok(None);
        }
        // A class forking mid-batch (cross-seed branch divergence) still
        // snapshots the exact control state an unbatched run would reach
        // at that pick: the batched context and `run`, the prefix. A
        // sub-cohort left with no slot ends the batch; it is abandoned,
        // so what the batch records there is never read.
        let Some((cost, next, _)) = cohort.issue_c(sub, ctx, run) else {
            return Ok(Some((0, None)));
        };
        cohort.obs.batched(cohort.image.origin[run.at], ctx.mask, cost);
        Ok(Some((cost, next)))
    }
}

/// One sub-cohort's side of the rounds ([`crate::recon::step`]): the
/// lockstep issue and its forks, batched and hinted under every model, so
/// a one-slot cohort's round is a scalar launch's and a wider one
/// amortizes that cost across its slots.
struct SubRound<'a, 'm, const L: bool> {
    cohort: &'a mut Cohort<'m, L>,
    sub: &'a mut SubCohort,
    /// Whether the cohort is split.
    split: bool,
    /// The picking warp's `last_lanes`, `rr_cursor` and `busy_until` before
    /// its pick ([`IssueCtx::pre`]).
    pre: (u64, usize, u64),
}

impl<const L: bool> Rounds for SubRound<'_, '_, L> {
    type Error = ();
    #[cfg(debug_assertions)]
    const CHECK_HINTS: bool = true;

    fn cfg(&self) -> &SimConfig {
        self.cohort.cfg
    }

    fn warps(&self) -> usize {
        self.sub.warps.len()
    }

    fn clock(&mut self) -> &mut u64 {
        &mut self.sub.cycle
    }

    fn plane(&mut self, w: usize) -> (&mut WarpCtl, &mut Pick, &mut ReconStats, &mut RoundBufs) {
        let SubCohort { warps, picks, metrics, .. } = &mut *self.sub;
        (&mut warps[w], &mut picks[w], &mut metrics.recon, &mut self.cohort.bufs)
    }

    fn engine(&mut self) -> &mut EngineStats {
        &mut self.cohort.engine
    }

    #[inline(always)]
    fn pre_pick(&mut self, w: usize, rest: &[Cand]) {
        let ctl = &self.sub.warps[w];
        #[cfg(debug_assertions)]
        ctl.check_frames(self.cohort.image);
        // Only a fork reads them, and one slot never forks.
        if L {
            return;
        }
        self.pre = (ctl.last_lanes, ctl.rr_cursor, ctl.busy_until);
        self.cohort.rest.clear();
        self.cohort.rest.extend_from_slice(rest);
    }

    fn resume(&mut self, w: usize) -> Option<Vec<Cand>> {
        self.sub.resume.take_if(|r| r.0 == w).map(|r| r.1)
    }

    /// Tracing and journaling disable batching ([`Observer::stamps_issues`])
    /// and with it the hints, so a traced run is the unbatched, unhinted
    /// reference.
    #[inline(always)]
    fn issue_round(&mut self, w: usize, pc: usize, mask: u64) -> Result<u64, ()> {
        let SubRound { cohort, sub, split, pre } = self;
        let (run, spans) =
            (Run { at: pc, ..Run::default() }, frame_spans::<L>(&sub.warps[w], mask));
        let ctx = IssueCtx { w, mask, pre: *pre, batched: false, spans };
        let (ctl, at, cycle) = (&mut sub.warps[w], cohort.image.origin[pc], sub.cycle);
        let last = std::mem::replace(&mut ctl.last_lanes, mask);
        cohort.obs.pick(cycle, w, at, last, mask);
        // Stall pressure samples before execution: lanes parked on a
        // convergence barrier at the moment this group issues.
        let waiting_lanes = ctl.waiting.count_ones();
        cohort.obs.waits(lanes(ctl.waiting).filter_map(|l| match ctl.status[l] {
            Status::Waiting(b) => Some(b),
            _ => None,
        }));
        // `None`: every instance of this sub-cohort forked or faulted
        // mid-round; its plane is abandoned and the children replay (or
        // resume) from their own consistent snapshots.
        let (cost, next, forked) = cohort.issue_c(sub, &ctx, &run).ok_or(())?;
        if let Some(next) = next {
            sub.warps[w].move_to(mask, next);
        }
        let (weight, roi) = (u64::from(cost.max(1)), cohort.image.roi[pc]);
        let roi_weight = if roi { weight } else { 0 };
        sub.metrics.record_issues(w, mask, 1, weight, roi_weight, waiting_lanes);
        cohort.obs.issue(cycle, w, at, mask, cost, roi);
        let busy = sub.cycle + weight;
        // A stack that moved changed what the next pick chooses among. A
        // divergent issue skips starting a batch (and ends one, [`SubRun`]):
        // the sooner this sub returns to the run loop, the sooner its
        // frontier lines up with the sibling it just forked from — letting
        // re-agreeing sub-cohorts merge after one arm instead of forking
        // again rounds ahead of the merge scan. Cutting a batch short is
        // always equivalent to unbatched execution.
        let ipdom = cohort.cfg.recon == ReconvergenceModel::IpdomStack;
        let (ctl, recon) = (&mut sub.warps[w], &mut sub.metrics.recon);
        let moved = ipdom && ctl.ipdom_post_issue(cohort.image, (pc, mask), recon);
        if moved || forked || cohort.obs.stamps_issues() {
            return Ok(busy);
        }
        // A fork inside the batch is past the round's candidates.
        cohort.rest.clear();
        let (cfg, image) = (cohort.cfg, cohort.image);
        let issue = (w, pc, mask, sub.warps[w].schedulable());
        let spans = frame_spans::<L>(&sub.warps[w], mask);
        let ctx = IssueCtx { pre: (mask, 0, busy), batched: true, spans, ..ctx };
        let mut ahead = SubRun { cohort, sub, ctx, split: *split };
        let Ok((run, intact)) = crate::sched::run_ahead(&mut ahead, cfg, image, issue);
        if sub.slots == 0 {
            return Err(());
        }
        cohort.engine.batched_issues += run.issues;
        sub.picks[w].hint = intact.then_some((run.at, mask));
        Ok(busy + run.weight)
    }

    /// Deadlock is a property of shared control: every live instance
    /// fails with the identical diagnostic its scalar run would build.
    fn deadlock(&mut self, w: usize) {
        self.cohort.obs.event(self.sub.cycle, w, JournalKind::DeadlockOnset);
        let (image, model) = (self.cohort.image, self.cohort.cfg.recon);
        let e = self.sub.warps[w].deadlock(image, w, self.sub.cycle, model);
        self.cohort.resolve_all(self.sub, &e);
    }

    fn timeout(&mut self) {
        let e = SimError::MaxCyclesExceeded { limit: self.cohort.cfg.max_cycles };
        self.cohort.resolve_all(self.sub, &e);
    }
}

/// The slots that faulted during one issue, each with its first fault in
/// lane order; resolved once the issue's borrows end
/// ([`Cohort::resolve_faults`]).
#[derive(Default)]
struct Faults {
    mask: u64,
    list: Vec<(usize, LaneFault)>,
}

impl Faults {
    /// Records slot `s`'s fault unless it already has one at a lower
    /// lane: arms keep computing a faulted slot (its state is discarded
    /// with it), and the issue faults at its lowest faulting lane — which
    /// at one slot may come in a later frame-base group.
    fn push(&mut self, s: usize, fault: LaneFault) {
        let lane = |f: &LaneFault| match f {
            LaneFault::Oob { lane, .. } | LaneFault::Arith { lane, .. } => *lane,
        };
        if self.mask >> s & 1 == 0 {
            self.mask |= 1 << s;
            self.list.push((s, fault));
        } else if let Some(kept) = self.list.iter_mut().find(|(t, _)| *t == s) {
            if lane(&fault) < lane(&kept.1) {
                kept.1 = fault;
            }
        }
    }

    /// A kernel's result for slot `s` at `lane`: its value, or `None`
    /// with the arithmetic fault recorded.
    #[inline(always)]
    fn value(&mut self, s: usize, lane: usize, result: Result<Value, String>) -> Option<Value> {
        result.map_err(|message| self.push(s, LaneFault::Arith { lane, message })).ok()
    }
}

/// The cohort's loop shape for the ALU arms, handed to
/// [`crate::alu::with_bin`]/[`with_un`](crate::alu::with_un): a failing
/// slot resolves to its own `Arithmetic` error at the first faulting
/// lane in lane order, exactly like its scalar run. The operands are
/// resolved once per issue; each row run then classifies its operand rows
/// over its columns and runs the kernel under those tags ([`alu_span`]).
struct SlotAlu<'a, 'm, const L: bool> {
    cohort: &'a mut Cohort<'m, L>,
    sub: &'a mut SubCohort,
    ctx: &'a IssueCtx,
    pc: usize,
    dst: simt_ir::Reg,
    lhs: Operand,
    rhs: Operand,
    /// The op is dear enough (a division, a libm call) that a span whose
    /// operands hold one value in every slot is worth the scan that finds
    /// it: the value is computed once per row ([`uniform_span`]).
    once: bool,
}

/// A span of a whole cohort whose operand rows each hold one value in
/// every slot — data no seed changes — computed once per row and the
/// result broadcast. Returns `false`, having written nothing, when some
/// row differs by slot or the kernel faults, for the per-cell loop to
/// run instead.
#[inline(always)]
fn uniform_span<const A: u8, const B: u8>(
    regs: &mut SlotCols,
    stage: &mut [u64],
    (rd, a, b): (usize, Src, Src),
    n: usize,
    k: &impl Fn(Value, Value) -> Result<Value, String>,
) -> bool {
    let ns = regs.ns;
    let value = |o: Src, i: usize| match o {
        Src::Imm(bits, floats) => Some((bits, floats)),
        Src::Row(r) => {
            let row = &regs.bits[(r + i) * ns..][..ns];
            row.iter().all(|&x| x == row[0]).then_some((row[0], regs.floats[r + i]))
        }
    };
    let mut float = false;
    for (i, out) in stage[..n].iter_mut().enumerate() {
        let (Some((x, fx)), Some((y, fy))) = (value(a, i), value(b, i)) else { return false };
        let Ok(v) = k(tagged::<A>(x, fx, 0), tagged::<B>(y, fy, 0)) else { return false };
        let (bits, is_float) = encode(v);
        *out = bits;
        float |= is_float;
    }
    for (row, &bits) in regs.bits[rd * ns..(rd + n) * ns].chunks_exact_mut(ns).zip(&stage[..n]) {
        row.fill(bits);
    }
    regs.floats[rd..rd + n].fill(if float { u64::MAX >> (64 - ns) } else { 0 });
    true
}

/// One dense typed loop over the cells of a whole span — `(destination,
/// lhs payload, rhs payload)`, `n * ns` of them adjacent in memory —
/// under a whole-cohort mask. `f` gets the cell's index in the span;
/// returns whether the results are floats (with loop-constant operand
/// tags every kernel's result type is one).
#[inline(always)]
fn map_cells<'d, const A: u8, const B: u8>(
    cells: impl Iterator<Item = (&'d mut u64, u64, u64)>,
    mut f: impl FnMut(usize, Value, Value) -> Option<Value>,
) -> bool {
    let mut float = false;
    for (i, (o, x, y)) in cells.enumerate() {
        if let Some(v) = f(i, decode(x, A == FLOAT), decode(y, B == FLOAT)) {
            let (bits, is_float) = encode(v);
            *o = bits;
            float |= is_float;
        }
    }
    float
}

/// One ALU row run: rows `rd .. rd + n` ← `k(a, b)` under the run's
/// columns, written in place (a faulting cell keeps its old payload).
#[inline(always)]
fn alu_span<const A: u8, const B: u8>(
    regs: &mut SlotCols,
    stage: &mut [u64],
    (rd, a, b): (usize, Src, Src),
    (geom, run): (Geom, &RowRun),
    faults: &mut Faults,
    k: &impl Fn(Value, Value) -> Result<Value, String>,
) {
    let (ns, n, live) = (regs.ns, run.n, run.cols);
    let d = regs.span(rd, n);
    let fault = |faults: &mut Faults, i: usize, c: usize, message| {
        let (lane, s) = geom.cell(run, i, c);
        faults.push(s, LaneFault::Arith { lane, message });
    };
    // Under a whole-row mask and loop-constant tags the run is one loop
    // over adjacent memory, written straight into the destination rows;
    // an operand that *is* the destination is read from a copy.
    if let (Src::Row(ra), true) = (a, A != PER_SLOT && regs.whole(live)) {
        let stage = &mut stage[..d.len()];
        if [a, b].iter().any(|o| matches!(o, Src::Row(r) if *r == rd)) {
            stage.copy_from_slice(&regs.bits[d.clone()]);
        }
        let (below, rest) = regs.bits.split_at_mut(d.start);
        let (dst, above) = rest.split_at_mut(d.len());
        let rows = |r: usize| match r.cmp(&rd) {
            Ordering::Less => &below[r * ns..][..d.len()],
            Ordering::Equal => &*stage,
            Ordering::Greater => &above[r * ns - d.end..][..d.len()],
        };
        let cell = |i: usize, x, y| k(x, y).map_err(|m| fault(faults, i / ns, i % ns, m)).ok();
        let x = dst.iter_mut().zip(rows(ra));
        let float = match b {
            Src::Row(rb) => map_cells::<A, B>(x.zip(rows(rb)).map(|((o, &x), &y)| (o, x, y)), cell),
            Src::Imm(c, _) => map_cells::<A, B>(x.map(|(o, &x)| (o, x, c)), cell),
        };
        return regs.floats[rd..rd + n].fill(if float { live } else { 0 });
    }
    // Any other mask or shape: row by row over the run's columns, each
    // cell read and written through its index.
    for i in 0..n {
        let ((pa, ca, fa), (pb, cb, fb)) = (a.lane(regs, i), b.lane(regs, i));
        let (pd, mut floats) = ((rd + i) * ns, 0u64);
        for c in lanes(live) {
            let x = pa.map_or(ca, |p| regs.bits[p + c]);
            let y = pb.map_or(cb, |p| regs.bits[p + c]);
            match k(tagged::<A>(x, fa, c), tagged::<B>(y, fb, c)) {
                Ok(v) => {
                    let (bits, float) = encode(v);
                    regs.bits[pd + c] = bits;
                    floats |= u64::from(float) << c;
                }
                Err(message) => fault(faults, i, c, message),
            }
        }
        regs.floats[rd + i] = regs.floats[rd + i] & !live | floats;
    }
}

impl<const L: bool> AluLoop for SlotAlu<'_, '_, L> {
    type Out = ();
    #[inline]
    fn run(self, k: impl Fn(Value, Value) -> Result<Value, String>) {
        let SlotAlu { cohort, sub, ctx, pc, dst, lhs, rhs, once } = self;
        let (w, mut faults) = (ctx.w, Faults::default());
        let ctl = &sub.warps[w];
        cohort.spans(ctx.spans);
        let geom = cohort.geom();
        let Cohort { data, stats, engine, scratch: RowScratch { out, .. }, .. } = &mut *cohort;
        let regs = &mut data[w].regs;
        let stride = geom.stride();
        let (a, b, d) = (Src::of(lhs, stride), Src::of(rhs, stride), dst.index() * stride);
        for run in geom.runs(ctl, ctx.mask, ctx.spans, sub.slots) {
            let RowRun { at, n, cols, .. } = run;
            let ops = (at + d, a.at(at), b.at(at));
            let classes = (ops.1.class(&regs.floats, n, cols), ops.2.class(&regs.floats, n, cols));
            let one_type = |c| !matches!(c, Class::Mixed);
            if once && regs.whole(cols) && one_type(classes.0) && one_type(classes.1) {
                let (done, _) = typed!(classes.0, classes.1, uniform_span(regs, out, ops, n, &k));
                if done {
                    stats.dense_rows += n as u64;
                    continue;
                }
            }
            let ((), dense) = typed!(
                classes.0,
                classes.1,
                alu_span(regs, out, ops, (geom, &run), &mut faults, &k)
            );
            stats.dense_rows += if dense { n as u64 } else { 0 };
            stats.mixed_rows += if dense { 0 } else { n as u64 };
            engine.mixed_rows += u64::from(!dense);
        }
        cohort.resolve_faults(sub, ctx, pc, faults);
    }
}

/// The lane addresses of one global access, staged once: a single list
/// when every slot agrees on it, else one list per slot.
#[derive(Default)]
struct AddrStage {
    /// `k` addresses when `uniform`, else `[slot * k + idx]`.
    buf: Vec<i64>,
    /// Lanes in the issued mask.
    k: usize,
    uniform: bool,
}

impl AddrStage {
    /// Slot `s`'s lane addresses.
    #[inline]
    fn of(&self, s: usize) -> &[i64] {
        let at = if self.uniform { 0 } else { s * self.k };
        &self.buf[at..at + self.k]
    }
}

// The cohort execute path: one instruction over (lane mask × live
// slots). Control effects (pc updates, status transitions, barrier
// bookkeeping) happen once per sub-cohort; value effects resolve their
// operands once per issue and then run per row run (whole registers: ALU,
// moves, selects, fills, votes, branches, calls) or per lane through the
// cell maps of [`Geom`] (memory, atomics).
impl<const L: bool> Cohort<'_, L> {
    /// Executes the instruction at `run.at` for the issued group across
    /// every slot of `sub`; returns the (uniform) issue cost and where a
    /// group that moves together (to `pc + 1`, a jump target or a uniform
    /// branch's target) goes next — `None` when the arm moved its lanes
    /// itself: a divergent branch, call, return, exit or blocking
    /// barrier. No arm reads the lanes' pcs, which lag behind inside a
    /// batch. Slots whose data would make the issue non-uniform fork, and
    /// faulting slots resolve to their own error inside the arm — callers
    /// re-check `sub.slots`.
    fn exec_c(&mut self, sub: &mut SubCohort, ctx: &IssueCtx, run: &Run) -> (u32, Option<usize>) {
        let image = self.image;
        let (w, pc, mask) = (ctx.w, run.at, ctx.mask);
        let inst = &image.insts[pc];
        let mut cost = self.costs[pc];
        let ((live, ns), geom, cycle) = (self.live(sub), self.geom(), sub.cycle);
        let stride = geom.stride();
        // The scalar count of data arms whose lanes sit at more than one
        // frame base.
        let data_arm = {
            use DecodedInst::{Bin, Branch, Mov, Sel, Un, Vote};
            matches!(
                inst,
                Bin { .. } | Un { .. } | Mov { .. } | Sel { .. } | Vote { .. } | Branch { .. }
            )
        };
        if L && data_arm {
            self.engine.split_base_issues += u64::from(split_bases(&sub.warps[w], mask));
        }
        match *inst {
            // The op is invariant across the columns, so it is matched
            // once out here: `SlotAlu` gets a tiny monomorphic kernel its
            // typed loops can inline. Unary kernels ignore `rhs`.
            DecodedInst::Bin { op, dst, lhs, rhs } => {
                let once = matches!(op, BinOp::Div | BinOp::Rem);
                let alu = SlotAlu { cohort: self, sub, ctx, pc, dst, lhs, rhs, once };
                crate::alu::with_bin(op, alu);
            }
            DecodedInst::Un { op, dst, src } => {
                let rhs = Operand::Imm(Value::default());
                let once = matches!(op, UnOp::Sqrt | UnOp::Exp | UnOp::Log);
                let alu = SlotAlu { cohort: self, sub, ctx, pc, dst, lhs: src, rhs, once };
                crate::alu::with_un(op, alu);
            }
            DecodedInst::Mov { dst, src } => {
                let (ctl, src) = (&sub.warps[w], Src::of(src, stride));
                self.spans(ctx.spans);
                let regs = &mut self.data[w].regs;
                for RowRun { at, n, cols, .. } in geom.runs(ctl, mask, ctx.spans, live) {
                    regs.assign_rows(at + dst.index() * stride, n, src.at(at), cols);
                }
            }
            DecodedInst::Sel { dst, cond, if_true, if_false } => {
                let (regs, ctl) = (&mut self.data[w].regs, &sub.warps[w]);
                let [cond, if_true, if_false] =
                    [cond, if_true, if_false].map(|o| Src::of(o, stride));
                for RowRun { at, n, cols, .. } in geom.runs(ctl, mask, ctx.spans, live) {
                    for at in at..at + n {
                        // Payloads and type bits move untouched: two masked
                        // row copies (`cond` is read before either writes).
                        let (rd, t) = (at + dst.index() * stride, cond.at(at).truthy(regs, cols));
                        regs.assign_rows(rd, 1, if_true.at(at), t);
                        regs.assign_rows(rd, 1, if_false.at(at), cols & !t);
                    }
                }
            }
            DecodedInst::Load { dst, space: MemSpace::Global, addr } => {
                cost = self.access_global_c(sub, ctx, run, addr, MemOp::Load(dst), cost);
            }
            DecodedInst::Store { space: MemSpace::Global, addr, value } => {
                cost = self.access_global_c(sub, ctx, run, addr, MemOp::Store(value), cost);
            }
            DecodedInst::Load { dst, space: MemSpace::Local, addr } => {
                self.access_local_c(sub, ctx, pc, addr, MemOp::Load(dst));
            }
            DecodedInst::Store { space: MemSpace::Local, addr, value } => {
                self.access_local_c(sub, ctx, pc, addr, MemOp::Store(value));
            }
            DecodedInst::AtomicAdd { dst, addr, value } => {
                let atomic = SlotAtomic { cohort: self, sub, ctx, pc, dst, addr, value };
                crate::alu::with_bin(BinOp::Add, atomic);
            }
            DecodedInst::Special { dst, kind } => {
                let (warps, width) = (self.data.len(), geom.width);
                self.fill_c(sub, ctx, dst, false, |_, l, _| {
                    crate::alu::special(kind, w, l, width, warps) as u64
                });
            }
            DecodedInst::Rng { dst, kind: RngKind::U63 } => {
                self.fill_c(sub, ctx, dst, false, |rng, l, s| rng[l * ns + s].next_u63() as u64);
            }
            DecodedInst::Rng { dst, kind: RngKind::Unit } => {
                self.fill_c(sub, ctx, dst, true, |rng, l, s| rng[l * ns + s].next_unit().to_bits());
            }
            DecodedInst::SyncThreads => {
                sub.warps[w].sync_arrive(mask, &mut |k| self.obs.event(cycle, w, k));
                return (cost, None);
            }
            DecodedInst::Vote { dst, pred } => {
                // Warp-synchronous: per slot, a count over the lanes
                // issued together, written to every issued lane.
                let Cohort { data, scratch: RowScratch { out, .. }, .. } = self;
                let (regs, ctl, pred) = (&mut data[w].regs, &sub.warps[w], Src::of(pred, stride));
                let counts = &mut out[..ns];
                counts.fill(0);
                for run in geom.runs(ctl, mask, ctx.spans, live) {
                    for i in 0..run.n {
                        for c in lanes(pred.at(run.at + i).truthy(regs, run.cols)) {
                            counts[geom.cell(&run, i, c).1] += 1;
                        }
                    }
                }
                for run in geom.runs(ctl, mask, ctx.spans, live) {
                    let rd = run.at + dst.index() * stride;
                    let count = |i, c| counts[geom.cell(&run, i, c).1];
                    regs.fill_rows_with(rd, run.n, false, run.cols, count);
                }
            }
            DecodedInst::SeedRng { src } => {
                let (DWarp { regs, rng, .. }, ctl) = (&mut self.data[w], &sub.warps[w]);
                let src = Src::of(src, stride);
                for run in geom.runs(ctl, mask, ctx.spans, live) {
                    for i in 0..run.n {
                        for c in lanes(run.cols) {
                            let ((l, s), v) =
                                (geom.cell(&run, i, c), src.at(run.at + i).get(regs, c));
                            rng[l * ns + s] = SplitMix64::for_seed_rng(v.as_i64());
                        }
                    }
                }
            }
            DecodedInst::Call { entry_pc, num_regs, args, rets } => {
                let (ctl, num_regs) = (&sub.warps[w], num_regs as usize);
                // A run's lanes share the caller's window and bump
                // pointer, hence the callee's window.
                let (spans, runs) = geom.runs_by(ctl, mask, live, |l| (ctl.bases[l], ctl.tops[l]));
                self.spans(spans);
                let regs = &mut self.data[w].regs;
                for RowRun { at, n, cols, lo } in runs {
                    // The new window is default-initialized under `cols`
                    // only: other lanes and sub-cohorts share the arena
                    // and may hold live values (and float-mask bits) in
                    // these rows' other columns.
                    let callee = geom.frame(ctl.tops[lo], lo);
                    regs.grow(geom.frame(ctl.tops[lo] + num_regs, 0));
                    for r in 0..num_regs {
                        regs.fill_rows(callee + r * stride, n, Value::default(), cols);
                    }
                    // Arguments are row copies out of the caller window,
                    // which stays intact under the callee's.
                    for (i, a) in image.operands(args).iter().enumerate() {
                        regs.assign_rows(callee + i * stride, n, Src::of(*a, stride).at(at), cols);
                    }
                }
                // The return lands after the call.
                sub.warps[w].call(mask, pc + 1, entry_pc as usize, rets, num_regs);
                return (cost, None);
            }
            DecodedInst::UnresolvedCall { name } => {
                let at = self.image.location(w, mask.trailing_zeros() as usize, pc);
                let e = SimError::UnresolvedCall {
                    at,
                    callee: image.callee_names[name as usize].clone(),
                };
                self.resolve_all(sub, &e);
                return (cost, None);
            }
            DecodedInst::Barrier(op) => {
                // Barrier semantics are pure control, so one execution
                // serves the whole sub-cohort; only `arrived` writes
                // registers. Under the IPDOM stack model — pre-Volta
                // hardware with no barrier register file — every soft
                // barrier is an inert op that advances its lanes:
                // registers stay zero, so `arrived` reads 0.
                sub.metrics.barrier_ops += u64::from(mask.count_ones());
                if let BarrierOp::ArrivedCount { dst, bar } = op {
                    let n = sub.warps[w].arrived(bar) as u64;
                    self.fill_c(sub, ctx, dst, false, |_, _, _| n);
                } else if self.cfg.recon != ReconvergenceModel::IpdomStack {
                    let sink = &mut |k| self.obs.event(cycle, w, k);
                    return (cost, sub.warps[w].barrier(mask, op, sink).then_some(pc + 1));
                }
            }
            DecodedInst::Skip => {}
            DecodedInst::Jump { target } => return (cost, Some(target as usize)),
            DecodedInst::Branch { cond, then_pc, else_pc } => {
                // One truthy mask per row: the taken lanes at one slot;
                // at more, one lane's slots, and only when some lane's
                // slots disagree are the per-slot taken masks built, and
                // each class disagreeing with the largest one forks off
                // *before* the branch applies.
                let (regs, ctl, cond) = (&self.data[w].regs, &sub.warps[w], Src::of(cond, stride));
                let (mut taken, mut agree) = (0u64, true);
                for run in geom.runs(ctl, mask, ctx.spans, live) {
                    for i in 0..run.n {
                        let t = cond.at(run.at + i).truthy(regs, run.cols);
                        let (all, one) = geom.truth(&run, i, t);
                        taken |= all;
                        agree &= one;
                    }
                }
                if !agree {
                    let mut takens = [0u64; COHORT_SLOTS];
                    for run in geom.runs(ctl, mask, ctx.spans, live) {
                        for i in 0..run.n {
                            for c in lanes(cond.at(run.at + i).truthy(regs, run.cols)) {
                                let (l, s) = geom.cell(&run, i, c);
                                takens[s] |= 1 << l;
                            }
                        }
                    }
                    for class in partition_classes(live, |s| takens[s]) {
                        self.split_off(sub, class, ctx, run);
                    }
                    taken = takens[sub.slots.trailing_zeros() as usize];
                }
                let not_taken = mask & !taken;
                if taken == 0 || not_taken == 0 {
                    return (cost, Some(if taken != 0 { then_pc } else { else_pc } as usize));
                }
                let ctl = &mut sub.warps[w];
                for l in lanes(mask) {
                    ctl.pcs[l] = if taken & (1 << l) != 0 { then_pc } else { else_pc } as usize;
                }
                // Park the divergence for the IPDOM post-issue hook.
                if self.cfg.recon == ReconvergenceModel::IpdomStack {
                    ctl.branch = Some((pc, taken, not_taken));
                }
                let o = image.origin[pc];
                let (func, block, inst) = (o.func, o.block, o.inst as usize);
                let diverge = JournalKind::BranchDiverge { func, block, inst, taken, not_taken };
                self.obs.event(cycle, w, diverge);
                return (cost, None);
            }
            DecodedInst::Return { values } => {
                let ctl = &sub.warps[w];
                // A run's lanes share the callee's window, the caller's
                // and the registers the values land in.
                let (spans, runs) = geom.runs_by(ctl, mask, live, |l| {
                    let caller = ctl.depths[l].checked_sub(1).map(|d| ctl.frame(l, d).base);
                    (ctl.bases[l], caller, ctl.top(l).ret_regs)
                });
                self.spans(spans);
                let regs = &mut self.data[w].regs;
                for RowRun { at, n, cols, lo } in runs {
                    // Values are row copies out of the callee window into
                    // the caller's; a kernel-frame lane exits instead (the
                    // verifier rejects that statically, but stay safe at
                    // runtime).
                    let Some(d) = ctl.depths[lo].checked_sub(1) else { continue };
                    let caller = geom.frame(ctl.frame(lo, d).base, lo);
                    let rets = image.regs(ctl.top(lo).ret_regs);
                    for (r, v) in rets.iter().zip(image.operands(values)) {
                        let dst = caller + r.index() * stride;
                        regs.assign_rows(dst, n, Src::of(*v, stride).at(at), cols);
                    }
                }
                sub.warps[w].ret(mask, &mut |k| self.obs.event(cycle, w, k));
                return (cost, None);
            }
            DecodedInst::Exit => {
                sub.warps[w].exit(mask, &mut |k| self.obs.event(cycle, w, k));
                return (cost, None);
            }
        }
        (cost, Some(pc + 1))
    }

    /// Shared shape of the arms that set `dst` to one type from a
    /// per-`(lane, slot)` payload: `bits` gets the warp's RNG streams, the
    /// lane and the slot.
    fn fill_c(
        &mut self,
        sub: &mut SubCohort,
        ctx: &IssueCtx,
        dst: simt_ir::Reg,
        float: bool,
        mut bits: impl FnMut(&mut [SplitMix64], usize, usize) -> u64,
    ) {
        let (ctl, geom) = (&sub.warps[ctx.w], self.geom());
        self.spans(ctx.spans);
        let DWarp { regs, rng, .. } = &mut self.data[ctx.w];
        for run in geom.runs(ctl, ctx.mask, ctx.spans, sub.slots) {
            let row = run.at + dst.index() * geom.stride();
            regs.fill_rows_with(row, run.n, float, run.cols, |i, c| {
                let (l, s) = geom.cell(&run, i, c);
                bits(rng, l, s)
            });
        }
    }

    /// Global load/store. The issue cost is data-dependent — the
    /// coalescing fold or, when configured, the memory-hierarchy walk —
    /// so it runs in three phases:
    ///
    /// 1. Stage the lane addresses ([`Self::stage_addrs`]) with **no**
    ///    mutation, so a diverging slot's pre-access state is intact,
    ///    and resolve out-of-range slots to their own errors.
    /// 2. Price the access per slot and fork off the classes that
    ///    disagree with the largest one.
    /// 3. Move the data for the surviving slots and return the
    ///    now-uniform cost.
    ///
    /// When every lane's address is one in-range integer across two or
    /// more slots — all of them, on seed-independent access streams —
    /// there is one address list: no slot can fault, the flat fold runs
    /// once and cannot fork, and phase 3 is one row copy per lane.
    fn access_global_c(
        &mut self,
        sub: &mut SubCohort,
        ctx: &IssueCtx,
        run: &Run,
        addr: Operand,
        op: MemOp,
        base_cost: u32,
    ) -> u32 {
        let (w, mask) = (ctx.w, ctx.mask);
        let oob = self.stage_addrs(sub, w, mask, addr);
        if !L {
            let uniform = u64::from(self.addrs.uniform);
            self.stats.uniform_accesses += uniform;
            self.stats.scattered_accesses += 1 - uniform;
        }
        let glen = self.global.rows();
        let mut faults = Faults::default();
        for s in lanes(oob) {
            let (lane, &addr) = lanes(mask)
                .zip(self.addrs.of(s))
                .find(|&(_, &a)| cell(a, glen).is_none())
                .expect("faulted slot has a faulting lane");
            faults.push(s, LaneFault::Oob { lane, addr, size: glen, space: MemSpace::Global });
        }
        self.resolve_faults(sub, ctx, run.at, faults);
        if sub.slots == 0 {
            return base_cost;
        }
        let cost = match &self.cfg.mem {
            Some(hier) => self.walk_hier_c(sub, ctx, run, hier, matches!(op, MemOp::Store(_))),
            None => self.fold_flat_c(sub, ctx, run, base_cost),
        };
        // Phase 3: value movement for the slots that stayed.
        let ((live, _), geom) = (self.live(sub), self.geom());
        let Cohort { data, addrs, global, scratch: RowScratch { imm: [iv, _], .. }, .. } = self;
        let (regs, ctl) = (&mut data[w].regs, &sub.warps[w]);
        let reg = op.reg(geom.stride());
        if addrs.uniform {
            reg.broadcast(iv);
        }
        for (idx, l) in lanes(mask).enumerate() {
            let reg = reg.at(geom.row0(ctl, l));
            if !L && addrs.uniform {
                move_row(regs, global, op.is_load(), reg, addrs.buf[idx] as usize, iv, live);
            } else {
                for s in lanes(live) {
                    let m = addrs.of(s)[idx] as usize;
                    move_cell(regs, (reg, geom.col(l, s)), global, (m, s), op.is_load());
                }
            }
        }
        cost
    }

    /// Phase 1 of a global access: fills [`Cohort::addrs`] with the
    /// issued lanes' addresses and returns the slots holding an
    /// out-of-range one (always none when the stage comes out uniform).
    fn stage_addrs(&mut self, sub: &SubCohort, w: usize, mask: u64, addr: Operand) -> u64 {
        let ((live, ns), glen, geom) = (self.live(sub), self.global.rows(), self.geom());
        let k = mask.count_ones() as usize;
        let Cohort { data, addrs, scratch: RowScratch { imm: [ia, _], .. }, .. } = self;
        let (regs, ctl, addr) = (&data[w].regs, &sub.warps[w], Src::of(addr, geom.stride()));
        addrs.k = k;
        addrs.buf.clear();
        // At two or more slots a lane's address is a row of its own.
        addrs.uniform = !geom.lanes && {
            addr.broadcast(ia);
            lanes(mask).all(|l| {
                let a = uniform_addr(addr.at(geom.row0(ctl, l)).row(regs, ia), live, glen);
                addrs.buf.extend(a.map(|a| a as i64));
                a.is_some()
            })
        };
        if addrs.uniform {
            return 0;
        }
        addrs.buf.clear();
        addrs.buf.resize(ns * k, 0);
        let mut oob = 0u64;
        for (idx, l) in lanes(mask).enumerate() {
            let row = addr.at(geom.row0(ctl, l));
            for s in lanes(live) {
                let a = row.get(regs, geom.col(l, s)).as_i64();
                addrs.buf[s * k + idx] = a;
                oob |= u64::from(cell(a, glen).is_none()) << s;
            }
        }
        oob
    }

    /// Phase 2 under the flat model: the coalescing-segment fold per
    /// slot as the fork key — one fold for a uniform stage, or for a
    /// single live slot, which has no class to fork from.
    fn fold_flat_c(&mut self, sub: &mut SubCohort, ctx: &IssueCtx, run: &Run, base: u32) -> u32 {
        let Cohort { addrs, lines_buf, cfg, .. } = self;
        let lat = &cfg.latency;
        let mut cost_of = |s: usize| {
            base + lat.mem_segment * lat.segments_in(addrs.of(s), lines_buf).saturating_sub(1)
        };
        if L || addrs.uniform || sub.slots.is_power_of_two() {
            return cost_of(sub.slots.trailing_zeros() as usize);
        }
        let mut costs = [0u32; COHORT_SLOTS];
        for s in lanes(sub.slots) {
            costs[s] = cost_of(s);
        }
        for class in partition_classes(sub.slots, |s| costs[s]) {
            self.split_off(sub, class, ctx, run);
        }
        costs[sub.slots.trailing_zeros() as usize]
    }

    /// Phase 2 under the memory-hierarchy model: the per-slot *walk
    /// outcome* ([`AccessOutcome`](crate::mem::AccessOutcome) — cost
    /// plus every per-level counter) as the fork key. Tag and MSHR
    /// histories diverge after forks even when addresses agree, so every
    /// slot is probed: the pure [`probe`](crate::mem::probe) leaves a
    /// diverging slot's state intact for its fork to replay, and the
    /// winners then re-run the walk as [`commit`](crate::mem::commit),
    /// which reproduces the probed outcome over the unchanged pre-state.
    /// A single live slot has no class to fork from and commits at once.
    fn walk_hier_c(
        &mut self,
        sub: &mut SubCohort,
        ctx: &IssueCtx,
        run: &Run,
        hier: &crate::mem::MemHierarchy,
        store: bool,
    ) -> u32 {
        let w = ctx.w;
        // Global accesses never batch (`is_warp_local` excludes them),
        // so the issue cycle of every engine is its round clock.
        let now = sub.cycle;
        let mut probed = None;
        let one = sub.slots.is_power_of_two();
        if !one {
            let mut outs = [crate::mem::AccessOutcome::default(); COHORT_SLOTS];
            for s in lanes(sub.slots) {
                let Cohort { data, addrs, mshrs, mem_scratch, .. } = &mut *self;
                let (tags, at) = (&data[w].hier_tags[s], addrs.of(s));
                outs[s] = crate::mem::probe(hier, tags, &mshrs[s], mem_scratch, at, now);
            }
            for class in partition_classes(sub.slots, |s| outs[s]) {
                self.split_off(sub, class, ctx, run);
            }
            probed = Some(outs[sub.slots.trailing_zeros() as usize]);
        }
        let (winners, mut out) = (sub.slots, crate::mem::AccessOutcome::default());
        for s in lanes(winners) {
            let Cohort { data, addrs, mshrs, mem_scratch, .. } = &mut *self;
            let tags = &mut data[w].hier_tags[s];
            out = crate::mem::commit(hier, tags, &mut mshrs[s], mem_scratch, addrs.of(s), now);
            debug_assert!(probed.is_none_or(|p| p == out), "commit must replay the probed outcome");
        }
        if store {
            self.invalidate_lines_c(winners);
        }
        sub.metrics.mem.record(&out);
        self.obs.mem(now, w, self.image.origin[run.at], &out);
        out.cost
    }

    /// Write-through invalidation: drops the lines covering each slot's
    /// staged addresses from that slot's tag state in **every** warp.
    fn invalidate_lines_c(&mut self, slots: u64) {
        let Cohort { data, addrs, cfg, .. } = self;
        let Some(hier) = &cfg.mem else { return };
        for s in lanes(slots) {
            for dw in data.iter_mut() {
                crate::mem::invalidate(hier, &mut dw.hier_tags[s], addrs.of(s));
            }
        }
    }

    /// Local load/store: flat cost, so only per-slot OOB faults can
    /// split the sub-cohort (and they resolve, not fork). At two or more
    /// slots, a lane whose slots agree on one in-range address moves its
    /// row in one copy.
    fn access_local_c(
        &mut self,
        sub: &mut SubCohort,
        ctx: &IssueCtx,
        pc: usize,
        addr: Operand,
        op: MemOp,
    ) {
        let (w, mask, llen, geom) = (ctx.w, ctx.mask, self.local_len, self.geom());
        let (live, _) = self.live(sub);
        let mut faults = Faults::default();
        let Cohort { data, scratch: RowScratch { imm: [ia, iv], .. }, .. } = self;
        let (DWarp { regs, local, .. }, ctl) = (&mut data[w], &sub.warps[w]);
        let (addr, reg) = (Src::of(addr, geom.stride()), op.reg(geom.stride()));
        if !geom.lanes {
            addr.broadcast(ia);
            reg.broadcast(iv);
        }
        for l in lanes(mask) {
            let (addr, reg) = (addr.at(geom.row0(ctl, l)), reg.at(geom.row0(ctl, l)));
            let uniform = (!geom.lanes).then(|| uniform_addr(addr.row(regs, ia), live, llen));
            if let Some(a) = uniform.flatten() {
                move_row(regs, local, op.is_load(), reg, geom.local(a, l), iv, live);
                continue;
            }
            for s in lanes(live) {
                let c = geom.col(l, s);
                let a = addr.get(regs, c).as_i64();
                let Some(m) = cell(a, llen) else {
                    let space = MemSpace::Local;
                    faults.push(s, LaneFault::Oob { lane: l, addr: a, size: llen, space });
                    continue;
                };
                move_cell(regs, (reg, c), local, (geom.local(m, l), c), op.is_load());
            }
        }
        self.resolve_faults(sub, ctx, pc, faults);
    }
}

/// The cohort's loop shape for `atomic_add`, handed the `add` kernel by
/// [`crate::alu::with_bin`]. Static cost (no coalescing model), touched
/// lines invalidated per slot. Walked lane-major: each slot owns its own
/// global column, so every slot still sees its lanes serialized in lane
/// order, like hardware atomics to the same address, and stops at its
/// first fault. At two or more slots a lane whose slots agree on one
/// in-range address — a seed-independent tally bin — adds its value row
/// into that cell's row as one typed row operation; any other lane goes
/// slot by slot.
struct SlotAtomic<'a, 'm, const L: bool> {
    cohort: &'a mut Cohort<'m, L>,
    sub: &'a mut SubCohort,
    ctx: &'a IssueCtx,
    pc: usize,
    dst: simt_ir::Reg,
    addr: Operand,
    value: Operand,
}

impl<const L: bool> AluLoop for SlotAtomic<'_, '_, L> {
    type Out = ();
    #[inline]
    fn run(self, k: impl Fn(Value, Value) -> Result<Value, String>) {
        let SlotAtomic { cohort, sub, ctx, pc, dst, addr, value } = self;
        let (w, mask, geom) = (ctx.w, ctx.mask, cohort.geom());
        let ((live, ns), glen, stride) = (cohort.live(sub), cohort.global.rows(), geom.stride());
        let lanes_k = mask.count_ones() as usize;
        let mut faults = Faults::default();
        {
            let Cohort {
                data, global, addrs, cfg, scratch: RowScratch { out, imm: [ia, iv] }, ..
            } = &mut *cohort;
            let (regs, ctl) = (&mut data[w].regs, &sub.warps[w]);
            let (addr, value) = (Src::of(addr, stride), Src::of(value, stride));
            if !geom.lanes {
                addr.broadcast(ia);
                value.broadcast(iv);
            }
            // The addresses are staged for the write-through invalidation
            // alone, which only a memory hierarchy has.
            let staged = cfg.mem.is_some();
            if staged {
                addrs.k = lanes_k;
                addrs.uniform = false;
                addrs.buf.clear();
                addrs.buf.resize(ns * lanes_k, 0);
            }
            for (idx, l) in lanes(mask).enumerate() {
                let at = geom.row0(ctl, l);
                let dst = at + dst.index() * stride;
                let uniform =
                    (!geom.lanes).then(|| uniform_addr(addr.at(at).row(regs, ia), live, glen));
                if let Some(a) = uniform.flatten() {
                    let (cell, v, mut floats) = (global.row(a), value.at(at).row(regs, iv), 0u64);
                    typed!(
                        class(cell.floats, live),
                        class(v.floats, live),
                        zip_rows(cell, v, live, |s, old, v| {
                            if let Some(sum) = faults.value(s, l, k(old, v)) {
                                let (bits, float) = encode(sum);
                                out[s] = bits;
                                floats |= u64::from(float) << s;
                            }
                        })
                    );
                    regs.put(dst, global.row(a), live);
                    global.put(a, RowRef { bits: out, floats }, live & !faults.mask);
                    if staged {
                        for s in lanes(live) {
                            addrs.buf[s * lanes_k + idx] = a as i64;
                        }
                    }
                } else {
                    for s in lanes(live) {
                        let c = geom.col(l, s);
                        let a = addr.at(at).get(regs, c).as_i64();
                        let Some(m) = cell(a, glen) else {
                            let space = MemSpace::Global;
                            faults.push(s, LaneFault::Oob { lane: l, addr: a, size: glen, space });
                            continue;
                        };
                        if let Err(message) =
                            add_cell(regs, (dst, value.at(at), c), global, (m, s), &k)
                        {
                            faults.push(s, LaneFault::Arith { lane: l, message });
                            continue;
                        }
                        if staged {
                            addrs.buf[s * lanes_k + idx] = a;
                        }
                    }
                }
            }
        }
        // Faulted slots' runs discard all state, so only the survivors'
        // write-through invalidation is observable.
        cohort.invalidate_lines_c(live & !faults.mask);
        cohort.resolve_faults(sub, ctx, pc, faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LatencyModel, SchedulerPolicy};
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
    /// seed — one class, and one sub-cohort, per seed. The two arms are
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

    /// Hint coverage: converged batches end intact on global accesses
    /// (bb1's store, bb8's), the tid-divergent arms are a group Greedy
    /// runs ahead until its load (the other arm parked, a merge guard
    /// pc), and a per-warp vote on RNG draws forks whole seeds at bb4's
    /// branch — inside a batch while the cohort is whole; while it is
    /// split every batch stops at a branch and leaves it as the next
    /// round's hint, so the fork comes in a hinted round.
    const HINT_KERNEL: &str = "\
kernel @k(params=1, regs=12, barriers=1, entry=bb0) {
bb0:
  %r1 = special.tid
  %r2 = rem %r1, 2
  %r3 = mov 0
  jmp bb1
bb1:
  %r4 = mul %r1, 5
  %r4 = add %r4, %r3
  store global[%r1], %r4
  join b0
  brdiv %r2, bb2, bb3
bb2:
  %r5 = add %r4, 7
  %r5 = mul %r5, %r5
  %r6 = load global[%r1]
  %r5 = xor %r5, %r6
  jmp bb4
bb3:
  %r5 = sub %r4, 7
  %r5 = mul %r5, 3
  %r6 = load global[%r1]
  %r5 = or %r5, %r6
  jmp bb4
bb4:
  wait b0
  %r7 = rng.u63
  %r8 = rem %r7, 2
  %r9 = vote %r8
  %r10 = rem %r9, 2
  brdiv %r10, bb5, bb6
bb5:
  %r3 = add %r3, %r5
  jmp bb7
bb6:
  %r3 = sub %r3, %r5
  jmp bb7
bb7:
  %r0 = sub %r0, 1
  brdiv %r0, bb1, bb8
bb8:
  store global[%r1], %r3
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

    /// Seed-dependent operand *types*: `%r4` is a float where the lane's
    /// RNG draw is odd and an int elsewhere, so every row it reaches is
    /// mixed across slots — through `add`, `lt`, `div`, a global and a
    /// local store/load round trip, a call argument and (as `%r11`, a
    /// float zero or an int) a branch condition.
    const MIXED_TYPES_KERNEL: &str = "\
kernel @k(params=0, regs=12, barriers=0, entry=bb0) {
bb0:
  %r2 = rng.u63
  %r3 = rem %r2, 2
  %r4 = sel %r3, 1.5, 3
  %r5 = add %r4, 2
  %r6 = lt %r4, 2
  %r7 = div %r5, 2
  %r8 = special.tid
  store global[%r8], %r7
  %r9 = load global[%r8]
  store local[1], %r9
  %r9 = load local[1]
  %r9 = add %r9, %r6
  call @f(%r9) -> (%r10)
  %r11 = sub %r4, 1.5
  brdiv %r11, bb1, bb2
bb1:
  %r10 = add %r10, 100
  jmp bb3
bb2:
  %r10 = mul %r10, 2
  jmp bb3
bb3:
  %r8 = add %r8, 32
  store global[%r8], %r10
  exit
}
device @f(params=1, regs=3, barriers=0, entry=bb0) {
bb0:
  %r1 = mul %r0, 2
  %r2 = neg %r1
  ret %r2
}
";

    /// A register that is a float in whole seeds and an int in the
    /// others (the vote count is warp-uniform and seed-dependent), fed to
    /// the bitwise op spliced in at `OP`: a seed with a float warp faults
    /// at that warp's lane 0, the all-int seeds finish.
    const BITWISE_ON_MIXED_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  %r2 = vote %r1
  %r3 = rem %r2, 2
  %r4 = sel %r3, 1.5, 3
  %r5 = OP
  %r6 = special.tid
  store global[%r6], %r5
  exit
}
";

    /// `%r0` is `-0.0` and `%r1` a NaN with a payload: both go to memory
    /// directly, through a `mov`, a local round trip and a call, and both
    /// steer a branch (`-0.0` is false though its bits are not zero; a
    /// NaN is true). `%r7` mixes `-0.0` with integer zero by seed.
    const SIGNED_ZERO_NAN_KERNEL: &str = "\
kernel @k(params=2, regs=10, barriers=0, entry=bb0) {
bb0:
  %r2 = special.tid
  %r3 = mov %r1
  store local[0], %r3
  %r4 = load local[0]
  call @id(%r4, %r0) -> (%r5, %r6)
  store global[%r2], %r5
  %r2 = add %r2, 32
  store global[%r2], %r6
  %r7 = rng.u63
  %r7 = rem %r7, 2
  %r7 = sel %r7, %r0, 0
  %r2 = add %r2, 32
  store global[%r2], %r7
  %r2 = add %r2, 32
  brdiv %r7, bb1, bb2
bb1:
  store global[%r2], 1
  exit
bb2:
  brdiv %r0, bb1, bb3
bb3:
  brdiv %r5, bb4, bb1
bb4:
  store global[%r2], 2
  exit
}
device @id(params=2, regs=2, barriers=0, entry=bb0) {
bb0:
  ret %r0, %r1
}
";

    /// A seed-dependent uniform branch whose arms load through different
    /// address rows: `tid` (the same in every slot) on one side, an RNG
    /// draw (different in every slot) on the other. The arms cost
    /// differently, so the two sub-cohorts never merge and each global
    /// path runs in its own sibling.
    const ADDRESS_SPLIT_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  %r2 = vote %r1
  %r3 = rem %r2, 2
  %r6 = special.tid
  brdiv %r3, bb1, bb2
bb1:
  %r5 = load global[%r6]
  jmp bb3
bb2:
  %r4 = rng.u63
  %r4 = rem %r4, 64
  %r5 = load global[%r4]
  %r5 = add %r5, %r4
  jmp bb3
bb3:
  store global[%r6], %r5
  exit
}
";

    /// [`CALL_DIVERGE_KERNEL`] with floats in the callee window: one
    /// sub-cohort sits inside `@f` (its load ends the straight-line
    /// batch) holding a float argument and a float temporary while its
    /// sibling pushes a frame over the same rows. The push may
    /// default-initialize — payload and float-mask bits — its own slots
    /// only.
    const FLOAT_FRAMES_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  %r2 = vote %r1
  %r3 = rem %r2, 2
  %r7 = itof %r2
  %r7 = add %r7, 0.25
  brdiv %r3, bb1, bb2
bb1:
  call @f(%r7) -> (%r4)
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
  %r1 = mul %r0, 1.5
  %r2 = load global[0]
  %r3 = add %r1, %r0
  %r2 = load global[1]
  %r3 = add %r3, %r2
  ret %r3
}
";

    /// Lanes at *different* call depths inside one issue: odd lanes reach
    /// `@f` through `@g`, even lanes directly, and `wait b0` at its entry
    /// holds the first group until both run `@f` together, one frame
    /// apart. There the vote's parity — seed-dependent when `DRAW` is
    /// `rng.u63` — forks seeds over two arms of equal cost, which merge
    /// again, all while depths differ; `@r` then recurses to a depth that
    /// differs by lane and (with the RNG) by seed. `@g` halves the result,
    /// so return values of both types cross windows. Loops `%r0` times,
    /// every thread in step at the loop head.
    const DEPTH_DIVERGE_KERNEL: &str = "\
kernel @k(params=1, regs=8, barriers=1, entry=bb0) {
bb0:
  syncthreads
  %r7 = special.tid
  %r1 = rem %r7, 2
  %r2 = DRAW
  join b0
  brdiv %r1, bb1, bb2
bb1:
  call @g(%r7, %r2) -> (%r4)
  jmp bb3
bb2:
  call @f(%r7, %r2) -> (%r4)
  jmp bb3
bb3:
  store global[%r7], %r4
  %r0 = sub %r0, 1
  brdiv %r0, bb0, bb4
bb4:
  exit
}
device @g(params=2, regs=4, barriers=0, entry=bb0) {
bb0:
  %r2 = add %r0, 1
  call @f(%r2, %r1) -> (%r3)
  %r3 = mul %r3, 0.5
  ret %r3
}
device @f(params=2, regs=5, barriers=1, entry=bb0) {
bb0:
  wait b0
  %r2 = mul %r0, 3
  %r3 = rem %r1, 2
  %r3 = vote %r3
  %r3 = rem %r3, 2
  brdiv %r3, bb1, bb2
bb1:
  %r2 = add %r2, 10
  jmp bb3
bb2:
  %r2 = add %r2, 3
  jmp bb3
bb3:
  %r4 = rem %r1, 3
  call @r(%r4, %r2) -> (%r2)
  ret %r2
}
device @r(params=2, regs=4, barriers=0, entry=bb0) {
bb0:
  brdiv %r0, bb1, bb2
bb1:
  %r2 = sub %r0, 1
  call @r(%r2, %r1) -> (%r3)
  %r1 = add %r3, 1
  jmp bb2
bb2:
  ret %r1
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

    /// `off` is `on` run with [`SimConfig::final_mem`] off: the same
    /// metrics, engine counters and error, and no memory image.
    fn assert_same_but_memory(
        on: &Result<SimOutput, SimError>,
        off: &Result<SimOutput, SimError>,
        what: &str,
    ) {
        match (on, off) {
            (Ok(a), Ok(b)) => {
                assert_eq!((&a.metrics, a.engine), (&b.metrics, b.engine), "{what}");
                assert!(b.global_mem.is_empty(), "{what}: final memory decoded");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
            (a, b) => panic!("{what}: {a:?} with final memory, {b:?} without"),
        }
    }

    /// Runs the sweep and asserts every [`SeedRun`] is bit-identical to
    /// an independent scalar run of that seed, and that turning final
    /// memory off changes nothing else — in the cohort, the scalar
    /// engine and (under the barrier file, its one model) the oracle.
    /// Returns the stats so callers can assert on the
    /// fork/merge/occupancy counters.
    fn assert_matches_scalar(src: &str, cfg: &SimConfig, sweep: &SweepLaunch) -> SweepStats {
        let module = parse_and_link(src).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let out = run_sweep_image(&image, cfg, sweep, None).expect("sweep runs");
        let bare = SimConfig { final_mem: false, ..cfg.clone() };
        let off = run_sweep_image(&image, &bare, sweep, None).expect("sweep runs");
        assert_eq!(off.stats, out.stats, "sweep counters without final memory");
        assert_eq!(out.runs.len(), sweep.instances() as usize);
        assert_eq!(out.stats.instances, sweep.instances());
        let s = &out.stats;
        assert!(
            s.lockstep_issues <= s.occupancy_sum
                && s.occupancy_sum <= s.lockstep_issues * s.instances,
            "every lockstep issue runs 1..=instances slots: {s:?}"
        );
        for (i, run) in out.runs.iter().enumerate() {
            let seed = sweep.seed_lo + i as u64;
            assert_eq!(run.seed, seed, "runs are in seed order");
            let mut launch = sweep.base.clone();
            launch.seed = seed;
            let scalar = crate::exec::run_image(&image, cfg, &launch);
            let what = format!("seed {seed}");
            assert_same_but_memory(&run.result, &off.runs[i].result, &format!("cohort {what}"));
            let scalar_off = crate::exec::run_image(&image, &bare, &launch);
            assert_same_but_memory(&scalar, &scalar_off, &format!("decoded engine {what}"));
            // A scalar launch is the one-slot cohort, so only the oracle
            // sees a fault both layouts share (the hierarchy's
            // write-through invalidation, say).
            let mut twins = vec![("scalar", scalar)];
            if cfg.recon == ReconvergenceModel::BarrierFile {
                let oracle = crate::reference::run_reference(&module, cfg, &launch);
                let oracle_off = crate::reference::run_reference(&module, &bare, &launch);
                assert_same_but_memory(&oracle, &oracle_off, &format!("oracle {what}"));
                twins.push(("oracle", oracle));
            }
            for (twin, want) in &twins {
                match (&run.result, want) {
                    (Ok(s), Ok(r)) => {
                        assert_eq!(s.metrics, r.metrics, "metrics differ for seed {seed} ({twin})");
                        // Bits, not `PartialEq`: a NaN must equal itself and
                        // `-0.0` must not equal `0.0`.
                        let bits = |m: &[Value]| m.iter().map(|&v| encode(v)).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&s.global_mem),
                            bits(&r.global_mem),
                            "global memory differs for seed {seed} ({twin})"
                        );
                        assert!(s.trace.is_none() && s.profile.is_none() && s.journal.is_none());
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "errors differ for seed {seed} ({twin})"),
                    (a, b) => panic!("seed {seed}: sweep returned {a:?}, {twin} returned {b:?}"),
                }
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
            assert_eq!(stats.scalar_steps, 0, "{policy:?}: {stats:?}");
            assert_eq!(stats.peak_subcohorts, 1, "{policy:?}: {stats:?}");
            assert_eq!(stats.mixed_rows, 0, "{policy:?}: no type depends on the seed: {stats:?}");
            assert!(stats.dense_rows > 0 && stats.uniform_accesses > 0, "{policy:?}: {stats:?}");
            assert_eq!(
                stats.scattered_accesses, 0,
                "{policy:?}: addresses are `tid * 3`: {stats:?}"
            );
            assert!(
                (stats.mean_occupancy() - 16.0).abs() < f64::EPSILON,
                "{policy:?}: 16 instances in lockstep occupy every issue: {stats:?}"
            );
        }
    }

    /// The seeds disagree on the vote's parity at a branch reached inside
    /// a straight-line batch: the round issues `rng.u63` and the batch
    /// runs `rem`, `vote` and `rem` up to the `brdiv`. The forked class
    /// must start from the state an unbatched run has at that pick — the
    /// lanes at the branch, the three batched issues recorded, the clock
    /// past them — which the parent itself writes and records only when
    /// its batch ends. Under every policy, flat and with an L1.
    #[test]
    fn uniform_divergence_forks_and_merges_without_scalar_fallback() {
        for policy in SchedulerPolicy::ALL {
            for mem in [None, Some(l1())] {
                let cfg = SimConfig { scheduler: policy, mem, ..SimConfig::default() };
                let sweep = SweepLaunch::new(launch("k", 1, 32, vec![]), 0, 32);
                let stats = assert_matches_scalar(VOTE_DIVERGE_KERNEL, &cfg, &sweep);
                assert!(stats.forks > 0, "{cfg:?}: seeds disagree on the vote parity: {stats:?}");
                assert!(stats.merges > 0, "{cfg:?}: cost-symmetric arms must realign: {stats:?}");
                assert_eq!(stats.scalar_steps, 0, "{cfg:?}: {stats:?}");
                assert!(stats.peak_subcohorts >= 2, "{cfg:?}: {stats:?}");
                assert!(
                    stats.mean_occupancy() > 1.0,
                    "{cfg:?}: masked execution keeps width above scalar: {stats:?}"
                );
            }
        }
    }

    /// A hinted round stands in for the pick it skips, under every
    /// policy: every seed of [`HINT_KERNEL`] matches its scalar run, and
    /// debug builds check each consumed hint against that pick
    /// (`recon::take_hint`), down to the RoundRobin cursor. Hints are
    /// left on the whole cohort before its first fork, and a one-warp
    /// cohort (whose forks are all its one warp's) forks in rounds that
    /// warp entered holding a hint.
    #[test]
    fn hinted_rounds_match_the_picks_they_skip() {
        let image = DecodedImage::decode(&parse_and_link(HINT_KERNEL).unwrap());
        for policy in SchedulerPolicy::ALL {
            let cfg = SimConfig { scheduler: policy, warp_width: 8, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 2, 64, vec![Value::I64(6)]), 0, 12);
            let stats = assert_matches_scalar(HINT_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0 && stats.merges > 0, "{policy:?}: {stats:?}");
            let mut cohort = Cohort::<false>::new(&image, &cfg, &sweep.base, sweep.seed_lo, 12)
                .expect("cohort builds");
            let mut sub = cohort.subs.pop().expect("root sub-cohort");
            let mut hinted = 0;
            while cohort.subs.is_empty() {
                let ready = |w: usize| sub.warps[w].busy_until <= sub.cycle;
                hinted += (0..2).filter(|&w| ready(w) && sub.picks[w].hint.is_some()).count();
                assert!(!cohort.round(&mut sub), "{policy:?}: the cohort forks before it ends");
            }
            assert!(hinted > 0, "{policy:?}: no round was hinted before the first fork");

            let sweep = SweepLaunch::new(launch("k", 1, 64, vec![Value::I64(6)]), 0, 12);
            assert_matches_scalar(HINT_KERNEL, &cfg, &sweep);
            let mut cohort = Cohort::<false>::new(&image, &cfg, &sweep.base, sweep.seed_lo, 12)
                .expect("cohort builds");
            let mut sub = cohort.subs.pop().expect("root sub-cohort");
            let (mut forks, mut hinted_forks) = (0, 0);
            loop {
                let hinted = sub.warps[0].busy_until <= sub.cycle && sub.picks[0].hint.is_some();
                let before = cohort.subs.len();
                if cohort.round(&mut sub) || sub.slots == 0 {
                    break;
                }
                if cohort.subs.len() > before {
                    forks += 1;
                    hinted_forks += usize::from(hinted);
                }
            }
            assert!(hinted_forks > 0, "{policy:?}: none of {forks} forks came in a hinted round");
        }
    }

    /// The dear ops on rows every seed holds alike (`tid`-derived) are
    /// computed once per row: a float result, a destination that is its
    /// own operand, a `div` of registers — and a division by zero on
    /// lane 0 in every seed, which must fault each seed exactly as its
    /// scalar run does.
    #[test]
    fn seed_independent_rows_compute_once_and_fault_per_seed() {
        let kernel = "\
kernel @k(params=0, regs=6, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = itof %r0
  %r1 = sqrt %r1
  %r2 = rem %r0, 3
  %r2 = rem %r2, 2
  %r3 = add %r0, 1
  %r4 = div 120, %r3
  %r5 = rng.u63
  %r5 = rem %r5, 7
  %r5 = div %r5, %r3
  store global[%r0], %r1
  %r3 = div 1, DIVISOR
  exit
}
";
        let image =
            DecodedImage::decode(&parse_and_link(&kernel.replace("DIVISOR", "%r0")).unwrap());
        for warp_width in [4, 8] {
            let cfg = SimConfig { warp_width, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 2, 64, vec![]), 0, 16);
            let stats = assert_matches_scalar(&kernel.replace("DIVISOR", "%r3"), &cfg, &sweep);
            assert_eq!(stats.mixed_rows, 0, "{stats:?}");
            assert_matches_scalar(&kernel.replace("DIVISOR", "%r0"), &cfg, &sweep);
            let out = run_sweep_image(&image, &cfg, &sweep, None).expect("sweep runs");
            assert!(
                out.runs.iter().all(|r| matches!(r.result, Err(SimError::Arithmetic { .. }))),
                "lane 0 divides by zero in every seed"
            );
        }
    }

    /// The cohort runs a straight-line warp ahead through the shared
    /// batcher: a round issues up to `BATCH_LIMIT + 1` instructions per
    /// warp, so the rounds are far fewer than the lockstep issues.
    #[test]
    fn a_straight_line_cohort_batches() {
        let adds = "  %r0 = add %r0, 1\n".repeat(200);
        let src = format!(
            "kernel @k(params=0, regs=1, barriers=0, entry=bb0) {{\nbb0:\n{adds}  exit\n}}\n"
        );
        let image = DecodedImage::decode(&parse_and_link(&src).unwrap());
        let cfg = SimConfig::default();
        let sweep = SweepLaunch::new(launch("k", 2, 4, vec![]), 0, 8);
        let mut cohort = Cohort::<false>::new(&image, &cfg, &sweep.base, sweep.seed_lo, 8)
            .expect("cohort builds");
        let mut sub = cohort.subs.pop().expect("root sub-cohort");
        let mut rounds = 1;
        while !cohort.round(&mut sub) {
            rounds += 1;
        }
        let issues = cohort.stats.lockstep_issues;
        assert_eq!(issues, 2 * 201, "two warps of 200 adds and an exit");
        assert!(rounds * 16 < issues, "{rounds} rounds for {issues} lockstep issues");
        assert_matches_scalar(&src, &cfg, &sweep);
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
    fn hardware_recon_sweeps_run_in_lockstep() {
        // The hardware reconvergence models run in the cohort like the
        // barrier file: their stacks and splits are control state, so
        // seeds fork at the divergent branch and merge once their planes
        // re-agree, and every seed still equals its scalar run.
        let sweep = SweepLaunch::new(launch("k", 2, 64, vec![]), 0, 12);
        for recon in [
            ReconvergenceModel::IpdomStack,
            ReconvergenceModel::WarpSplit { window: 0, compact: false },
            ReconvergenceModel::WarpSplit { window: 4, compact: true },
        ] {
            for scheduler in SchedulerPolicy::ALL {
                let cfg = SimConfig { recon, scheduler, ..SimConfig::default() };
                let stats = assert_matches_scalar(LANE_DIVERGE_KERNEL, &cfg, &sweep);
                let at = format!("{} {scheduler:?}: {stats:?}", recon.spec());
                assert!(stats.lockstep_issues > 0 && stats.scalar_steps == 0, "{at}");
                assert!(stats.forks > 0 && stats.merges > 0, "{at}");
            }
        }
    }

    /// Seeds split on a warp-uniform coin (a vote's parity) into arms of
    /// equal issue count and clock: one nests two divergent branches
    /// (IPDOM depth 4), the other one (depth 2). The arms' sub-cohorts
    /// merge after them and then nest three deep (depth 6).
    const DEPTH_KERNEL: &str = "\
kernel @k(params=0, regs=10, barriers=1, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  %r2 = vote %r1
  %r3 = rem %r2, 2
  %r4 = special.tid
  %r5 = and %r4, 1
  %r6 = and %r4, 2
  %r7 = and %r4, 4
  br %r3, bb1, bb7
bb1:
  brdiv %r5, bb2, bb6
bb2:
  brdiv %r6, bb3, bb4
bb3:
  jmp bb5
bb4:
  jmp bb5
bb5:
  jmp bb19
bb6:
  %r8 = add %r4, 1
  jmp bb19
bb19:
  jmp bb8
bb7:
  brdiv %r5, bb9, bb10
bb9:
  %r8 = add %r4, 2
  %r8 = add %r8, 1
  jmp bb11
bb10:
  %r8 = add %r4, 3
  %r8 = add %r8, 1
  jmp bb11
bb11:
  jmp bb8
bb8:
  brdiv %r5, bb12, bb18
bb12:
  brdiv %r6, bb13, bb17
bb13:
  brdiv %r7, bb14, bb15
bb14:
  jmp bb16
bb15:
  jmp bb16
bb16:
  jmp bb17
bb17:
  jmp bb18
bb18:
  store global[%r4], %r8
  exit
}
";

    #[test]
    fn merged_sub_cohorts_keep_each_seeds_stack_depth() {
        // Sub-cohorts of stack depths 4 and 2 merge and then reach 6: a
        // maximum carried as a wrapping delta would read 8 (or 4) for
        // half the seeds.
        let cfg = SimConfig { recon: ReconvergenceModel::IpdomStack, ..SimConfig::default() };
        let sweep = SweepLaunch::new(launch("k", 1, 64, vec![]), 0, 16);
        let stats = assert_matches_scalar(DEPTH_KERNEL, &cfg, &sweep);
        assert!(stats.forks > 0 && stats.merges > 0, "{stats:?}");
        let image = DecodedImage::decode(&parse_and_link(DEPTH_KERNEL).unwrap());
        let out = run_sweep_image(&image, &cfg, &sweep, None).unwrap();
        for run in &out.runs {
            let r = &run.result.as_ref().unwrap().metrics.recon;
            assert_eq!(r.stack_max_depth, 6, "seed {}: {r:?}", run.seed);
        }
    }

    /// Two splits one step apart under compaction: the taken lanes run
    /// `add; jmp`, the others a lone `jmp` to the same block, so one round
    /// issues the taken split's `jmp` into `bb3` and then the other split's
    /// seed-dependent branch there, which forks.
    const RESUME_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=1, entry=bb0) {
bb0:
  %r0 = rng.u63
  %r1 = rem %r0, 2
  %r2 = vote %r1
  %r3 = rem %r2, 2
  %r4 = special.tid
  %r5 = and %r4, 1
  brdiv %r5, bb1, bb2
bb1:
  %r6 = add %r4, 1
  jmp bb3
bb2:
  jmp bb3
bb3:
  br %r3, bb4, bb5
bb4:
  %r6 = add %r6, 7
  jmp bb5
bb5:
  store global[%r4], %r6
  exit
}
";

    #[test]
    fn a_child_forked_mid_split_round_resumes_it() {
        // Re-running the round, the child would find the first split busy
        // at its pc inside the window, defer and count a deferral its
        // scalar run never did.
        let recon = ReconvergenceModel::WarpSplit { window: 4, compact: true };
        let sweep = SweepLaunch::new(launch("k", 1, 64, vec![]), 0, 16);
        for scheduler in SchedulerPolicy::ALL {
            let cfg = SimConfig { recon, scheduler, ..SimConfig::default() };
            let stats = assert_matches_scalar(RESUME_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0, "{scheduler:?}: {stats:?}");
        }
    }

    #[test]
    fn class_explosion_stays_in_lockstep() {
        // 48 seeds × per-lane random taken masks ≈ 48 distinct classes
        // at one branch: every class forks into a sub-cohort of its own
        // and no seed leaves the cohort — still bit-identical, under
        // every policy, with and without per-slot hierarchy state (tags,
        // MSHR files) in the shared data plane.
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
                assert_eq!(stats.scalar_steps, 0, "{cfg:?}: no seed leaves the cohort: {stats:?}");
                assert!(stats.peak_subcohorts > 32, "{cfg:?}: a class per seed: {stats:?}");
            }
        }
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

    /// [`ATOMIC_KERNEL`](crate::exec::tests::ATOMIC_KERNEL) over 32
    /// seeds, flat and with an L1: the seed-independent adds move rows,
    /// the seed-dependent ones take the per-slot path (integer and float
    /// cells, lane-typed values), and a seed whose middle lane lands out
    /// of range faults alone.
    #[test]
    fn atomics_at_seed_dependent_addresses_match_scalar() {
        use crate::exec::tests::{atomic_launch, ATOMIC_KERNEL};
        let sweep = SweepLaunch::new(atomic_launch(32, 0), 0, 32);
        let image = DecodedImage::decode(&parse_and_link(ATOMIC_KERNEL).unwrap());
        for mem in [None, Some(l1())] {
            let cfg = SimConfig { mem, ..SimConfig::default() };
            assert_matches_scalar(ATOMIC_KERNEL, &cfg, &sweep);
            let out = run_sweep_image(&image, &cfg, &sweep, None).unwrap();
            let faults = out.runs.iter().filter(|r| r.result.is_err()).count();
            assert!(faults > 0 && faults < 32, "{faults} of 32 seeds fault");
        }
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
    fn seed_dependent_operand_types_match_scalar() {
        for policy in SchedulerPolicy::ALL {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            let mut base = launch("k", 1, 64, vec![]);
            base.local_mem_size = 2;
            let sweep = SweepLaunch::new(base, 0, 12);
            let stats = assert_matches_scalar(MIXED_TYPES_KERNEL, &cfg, &sweep);
            assert!(stats.mixed_rows > 0, "{policy:?}: `%r4` is mixed in every lane: {stats:?}");
            assert!(stats.dense_rows > 0, "{policy:?}: `rem %r2, 2` is all-int: {stats:?}");
            assert!(stats.forks > 0, "{policy:?}: the branch condition differs by seed: {stats:?}");
        }
    }

    #[test]
    fn bitwise_ops_fault_exactly_the_float_seeds() {
        for op in ["and %r4, 1", "shl 1, %r4", "not %r4"] {
            let src = BITWISE_ON_MIXED_KERNEL.replace("OP", op);
            let image = DecodedImage::decode(&parse_and_link(&src).unwrap());
            for policy in SchedulerPolicy::ALL {
                let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
                let sweep = SweepLaunch::new(launch("k", 2, 64, vec![]), 0, 24);
                assert_matches_scalar(&src, &cfg, &sweep);
                let out = run_sweep_image(&image, &cfg, &sweep, None).unwrap();
                let faults: Vec<_> =
                    out.runs.iter().filter_map(|r| r.result.as_ref().err()).collect();
                assert!(!faults.is_empty() && faults.len() < 24, "{op}: {} faults", faults.len());
                for e in faults {
                    let SimError::Arithmetic { at, message } = e else { panic!("{op}: {e}") };
                    assert_eq!(at.lane, 0, "{op}: the first lane in lane order: {e}");
                    assert!(message.contains("applied to a float"), "{op}: {e}");
                }
            }
        }
    }

    #[test]
    fn signed_zero_and_nan_survive_bit_exact() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let args = vec![Value::F64(-0.0), Value::F64(nan)];
        for policy in SchedulerPolicy::ALL {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            let mut base = launch("k", 1, 128, args.clone());
            base.local_mem_size = 1;
            let sweep = SweepLaunch::new(base, 0, 8);
            assert_matches_scalar(SIGNED_ZERO_NAN_KERNEL, &cfg, &sweep);
            let image = DecodedImage::decode(&parse_and_link(SIGNED_ZERO_NAN_KERNEL).unwrap());
            let out = run_sweep_image(&image, &cfg, &sweep, None).unwrap();
            for run in &out.runs {
                let mem = &run.result.as_ref().expect("no seed faults").global_mem;
                for lane in 0..32 {
                    assert_eq!(encode(mem[lane]), (nan.to_bits(), true), "NaN payload");
                    assert_eq!(encode(mem[32 + lane]), ((-0.0f64).to_bits(), true), "-0.0");
                    // `-0.0` and `0` are both false and NaN is true, so
                    // every lane ends in bb4.
                    assert_eq!(mem[96 + lane], Value::I64(2), "branch on -0.0 / NaN");
                }
                let zeros: Vec<_> = mem[64..96].iter().map(|&v| encode(v)).collect();
                assert!(
                    zeros.contains(&(0, false)) && zeros.contains(&((-0.0f64).to_bits(), true))
                );
            }
        }
    }

    #[test]
    fn uniform_and_scattered_address_rows_share_one_sweep() {
        for mem in [None, Some(l1())] {
            for policy in SchedulerPolicy::ALL {
                let cfg = SimConfig { scheduler: policy, mem: mem.clone(), ..SimConfig::default() };
                let sweep = SweepLaunch::new(launch("k", 1, 64, vec![]), 0, 16);
                let stats = assert_matches_scalar(ADDRESS_SPLIT_KERNEL, &cfg, &sweep);
                assert!(stats.forks > 0, "{policy:?}: {stats:?}");
                assert!(stats.uniform_accesses > 0, "{policy:?}: `tid` rows copy: {stats:?}");
                assert!(stats.scattered_accesses > 0, "{policy:?}: RNG rows gather: {stats:?}");
            }
        }
    }

    #[test]
    fn callee_frames_leave_a_siblings_floats_alone() {
        for policy in SchedulerPolicy::ALL {
            let cfg = SimConfig { scheduler: policy, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 1, 64, vec![]), 0, 24);
            let stats = assert_matches_scalar(FLOAT_FRAMES_KERNEL, &cfg, &sweep);
            assert!(stats.forks > 0, "{policy:?}: call-depth divergence forks: {stats:?}");
        }
    }

    /// The cohort twin of `exec`'s steady-state test: once every scratch
    /// buffer, frame table and register arena has reached its high-water
    /// mark, a round of a non-forking cohort — loads, stores, an atomic,
    /// a call, RNG, barriers; then lanes recursing to different depths —
    /// allocates nothing.
    #[test]
    fn round_is_allocation_free_in_steady_state() {
        let depths = DEPTH_DIVERGE_KERNEL.replace("DRAW", "mul %r7, 7");
        for (kernel, per_lane) in [(LOCKSTEP_KERNEL, false), (&depths[..], true)] {
            let image = DecodedImage::decode(&parse_and_link(kernel).unwrap());
            for mem in [None, Some(l1())] {
                let cfg = SimConfig { mem, ..SimConfig::default() };
                let sweep = SweepLaunch::new(launch("k", 2, 256, vec![Value::I64(400)]), 0, 32);
                let mut cohort = Cohort::<false>::new(&image, &cfg, &sweep.base, sweep.seed_lo, 32)
                    .expect("cohort builds");
                let mut sub = cohort.subs.pop().expect("root sub-cohort");
                for _ in 0..200 {
                    assert!(!cohort.round(&mut sub), "kernel finished during warm-up");
                }
                let before = cohort.stats;
                let mut rounds = 0u32;
                let allocs = crate::alloc_count::allocations_during(|| {
                    for _ in 0..1000 {
                        if cohort.round(&mut sub) {
                            break;
                        }
                        rounds += 1;
                    }
                });
                assert!(
                    rounds >= 500,
                    "kernel too short to observe steady state ({rounds} rounds)"
                );
                assert_eq!(allocs, 0, "round allocated {allocs} times over {rounds} rounds");
                let s = cohort.stats;
                assert!(
                    s.dense_rows > before.dense_rows
                        && s.uniform_accesses > before.uniform_accesses,
                    "the window exercised no data arm: {s:?}"
                );
                assert_eq!(s.per_lane_issues > before.per_lane_issues, per_lane, "{s:?}");
                assert_eq!((s.forks, sub.slots.count_ones()), (0, 32), "the cohort never split");
            }
        }
    }

    #[test]
    fn lanes_at_different_call_depths_match_scalar() {
        let kernel = DEPTH_DIVERGE_KERNEL.replace("DRAW", "rng.u63");
        // Run boundaries at lanes 0, 31 and 63; cohorts of one word's
        // low, middle and full widths.
        for warp_width in [1, 5, 32, 64] {
            for seeds in [2, 6, 33, 64] {
                let cfg = SimConfig { warp_width, ..SimConfig::default() };
                let sweep =
                    SweepLaunch::new(launch("k", 1, 128, vec![Value::I64(1)]), 7, 7 + seeds);
                let stats = assert_matches_scalar(&kernel, &cfg, &sweep);
                let what = format!("{warp_width} lanes x {seeds} seeds: {stats:?}");
                assert!(
                    stats.hoisted_issues > 0 && stats.lane_runs >= stats.hoisted_issues,
                    "{what}"
                );
                if warp_width > 1 {
                    assert!(stats.per_lane_issues > 0, "adjacent lanes differ in depth: {what}");
                }
                if seeds > 2 {
                    assert!(stats.forks > 0 && stats.merges > 0, "depths differ by seed: {what}");
                }
            }
        }
        for policy in SchedulerPolicy::ALL {
            let cfg = SimConfig { scheduler: policy, warp_width: 5, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 3, 128, vec![Value::I64(2)]), 0, 12);
            assert_matches_scalar(&kernel, &cfg, &sweep);
        }
    }

    /// The span loops at `n == 1` — what a run of lanes at different call
    /// depths breaks down to — leave the rows a multi-lane span leaves,
    /// bit for bit: NaN payloads, `-0.0`, mixed-type rows, every operand
    /// shape, whole and fragmented masks.
    #[test]
    fn spans_of_one_lane_leave_the_rows_a_lane_run_leaves() {
        let (ns, width) = (6, 8);
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut cols = SlotCols::new(4 * width, ns);
        for (l, s) in (0..width).flat_map(|l| (0..ns).map(move |s| (l, s))) {
            let x = (l * ns + s) as i64 - 20;
            let floats = [Value::F64(-0.0), Value::F64(nan), Value::F64(x as f64)];
            cols.set(l, s, Value::I64(x));
            cols.set(width + l, s, floats[s % 3]);
            cols.set(2 * width + l, s, if (l + s) % 2 == 0 { Value::I64(x) } else { floats[0] });
        }
        let rows = |r: usize| Src::Row(r * width);
        let imm = Src::of(Operand::Imm(Value::F64(nan)), width);
        let regs =
            [(3, 0, rows(1)), (3, 2, rows(0)), (0, 0, rows(1)), (1, 0, rows(1)), (2, 2, rows(2))];
        for live in [0b11_1111u64, 0b00_1110, 0b10_1001] {
            for (d, a, b) in regs.into_iter().chain([(3, 1, imm), (1, 1, imm)]) {
                let run = |spans: &[(usize, usize)]| {
                    let (mut cols, mut stage) = (cols.clone(), vec![0; width * ns]);
                    let mut faults = Faults::default();
                    for &(lo, n) in spans {
                        let ops = (d * width + lo, rows(a).at(lo), b.at(lo));
                        for op in [BinOp::Add, BinOp::Lt] {
                            let k = |a, b| crate::alu::eval_bin(op, a, b);
                            let ca = ops.1.class(&cols.floats, n, live);
                            let cb = ops.2.class(&cols.floats, n, live);
                            let (geom, run) =
                                (Geom { width, lanes: false }, RowRun { at: 0, n, cols: live, lo });
                            typed!(
                                ca,
                                cb,
                                alu_span(&mut cols, &mut stage, ops, (geom, &run), &mut faults, &k)
                            );
                        }
                        cols.assign_rows(3 * width + lo, n, rows(a).at(lo), live);
                        cols.fill_rows_with(lo, n, true, live, |i, s| ((lo + i) * ns + s) as u64);
                    }
                    assert_eq!(faults.mask, 0);
                    (cols.bits, cols.floats)
                };
                let lanes: Vec<_> = (1..width).map(|l| (l, 1)).collect();
                assert_eq!(
                    run(&[(1, width - 1)]),
                    run(&lanes),
                    "live {live:#b}, r{d} = r{a} op {b:?}"
                );
            }
        }
    }

    /// Seeds that agree on control but load different addresses through
    /// an L1 see different hits and misses: the walk outcome forks them
    /// (probe, then commit), and each seed still equals its scalar run. A
    /// lone slot commits without probing, which only a fork could need.
    #[test]
    fn hierarchy_outcomes_fork_seeds_that_share_control() {
        let src = "\
kernel @k(params=0, regs=5, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rng.u63
  %r1 = rem %r1, 1024
  %r2 = load global[%r1]
  %r3 = load global[%r0]
  %r4 = add %r2, %r3
  store global[%r0], %r4
  exit
}
";
        let cfg = SimConfig { mem: Some(l1()), ..SimConfig::default() };
        let sweep = SweepLaunch::new(launch("k", 2, 1024, vec![]), 0, 8);
        let stats = assert_matches_scalar(src, &cfg, &sweep);
        assert!(stats.forks > 0, "the L1's outcome never split the seeds: {stats:?}");
    }

    /// Cohorts of 1, 3, 33 and 64 seeds at warp widths 5 and 32 over the
    /// scalar launch's oracle kernels — lane-mixed types (which reach the
    /// mixed-row loop at one slot), NaN and `-0.0` payloads, lane- and
    /// seed-dependent atomics, faults at the first faulting lane on one
    /// warp and on two: every seed is bit-identical (memory by payload and
    /// type, metrics, or the error) to its one-slot run and to the
    /// tree-walker's — the two layouts ([`Geom`]) against each other and
    /// against the oracle.
    #[test]
    fn cohorts_of_every_width_match_one_slot_runs_and_the_oracle() {
        use crate::exec::tests::{
            atomic_launch, fault_kernel, launch_of, ATOMIC_KERNEL, MIXED_KERNEL, PAYLOAD_KERNEL,
        };
        let (nan, int) = (Value::F64(f64::from_bits(0x7ff8_0000_dead_beef)), Value::I64(-1));
        let faults = [("and", "1.5", "1"), ("div", "0", "2.5"), ("rem", "0", "2.5")];
        type LaunchAt<'a> = Box<dyn Fn(usize) -> Launch + 'a>;
        let mut kernels: Vec<(String, LaunchAt<'_>)> = vec![
            (MIXED_KERNEL.into(), Box::new(move |w| launch_of(vec![], 16 * w, int))),
            (
                PAYLOAD_KERNEL.into(),
                Box::new(move |w| launch_of(vec![nan, Value::F64(-0.0)], 12 * w, int)),
            ),
            (ATOMIC_KERNEL.into(), Box::new(|w| atomic_launch(w, 0))),
        ];
        for (op, bad, good) in faults {
            let one_warp = |w| Launch { num_warps: 1, ..launch_of(vec![], w, Value::I64(0)) };
            kernels.push((fault_kernel(op, bad, good), Box::new(one_warp)));
            kernels.push((fault_kernel(op, bad, good), Box::new(|w| launch_of(vec![], w, int))));
        }
        let bits = |mem: &[Value]| mem.iter().map(|&v| encode(v)).collect::<Vec<_>>();
        for (src, launch) in &kernels {
            let module = parse_and_link(src).expect("kernel parses");
            let image = DecodedImage::decode(&module);
            for warp_width in [5, 32] {
                let cfg = SimConfig { warp_width, ..SimConfig::default() };
                for seeds in [1, 3, 33, 64] {
                    let sweep = SweepLaunch::new(launch(warp_width), 40, 40 + seeds);
                    let out = run_sweep_image(&image, &cfg, &sweep, None).expect("sweep runs");
                    for run in out.runs {
                        let at = format!("width {warp_width}, {seeds} seeds, seed {}", run.seed);
                        let launch = Launch { seed: run.seed, ..sweep.base.clone() };
                        let one = crate::exec::run_image(&image, &cfg, &launch);
                        let oracle = crate::reference::run_reference(&module, &cfg, &launch);
                        for (twin, want) in [("one-slot run", one), ("oracle", oracle)] {
                            match (&run.result, want) {
                                (Ok(got), Ok(want)) => {
                                    let mem = (bits(&got.global_mem), bits(&want.global_mem));
                                    assert_eq!(mem.0, mem.1, "{at}: memory vs {twin}\n{src}");
                                    assert_eq!(got.metrics, want.metrics, "{at}: vs {twin}");
                                }
                                (Err(got), Err(want)) => {
                                    assert_eq!(got.to_string(), want.to_string(), "{at}: {twin}")
                                }
                                (got, want) => panic!("{at}: {got:?} vs {twin} {want:?}"),
                            }
                        }
                    }
                }
            }
        }
    }

    /// A fork copies the control plane — per warp one [`WarpCtl`] and
    /// four flat per-lane vectors — and no data: the allocation count is
    /// a small multiple of the warp count, whatever the warp width.
    #[test]
    fn fork_allocates_per_warp_not_per_lane() {
        let image = DecodedImage::decode(&parse_and_link(VOTE_DIVERGE_KERNEL).unwrap());
        let forks = |warp_width, warps| {
            let cfg = SimConfig { warp_width, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", warps, 32, vec![]), 0, 8);
            let mut cohort = Cohort::<false>::new(&image, &cfg, &sweep.base, sweep.seed_lo, 8)
                .expect("cohort builds");
            let mut sub = cohort.subs.pop().expect("root sub-cohort");
            let (w, mask, run) = (0, 0, Run::default());
            let spans = Spans::runs(mask);
            let ctx = IssueCtx { w, mask, pre: (0, 0, 0), batched: false, spans };
            cohort.subs.reserve(2);
            let allocs = crate::alloc_count::allocations_during(|| {
                cohort.split_off(&mut sub, 0b1100, &ctx, &run)
            });
            assert_eq!(
                (cohort.stats.forks, cohort.subs[0].slots, sub.slots),
                (1, 0b1100, 0b1111_0011)
            );
            allocs
        };
        let (narrow, wide) = (forks(2, 3), forks(64, 3));
        assert_eq!(narrow, wide, "allocations must not depend on the warp width");
        assert!(wide <= 3 * 12, "{wide} allocations to fork 3 warps");
        assert!(forks(64, 1) < wide, "and they scale with the warp count");
    }
}
